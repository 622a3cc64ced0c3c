"""Orbits of the two-flag triangular group on G(k, 2k).

Orbits are indexed by incidence matrices (dimensions of intersections with the sums
F_i + G_j of two transverse partial flags); each realizable matrix decodes, by
inclusion-exclusion, to a distinguished representative spanned by vectors f_i + g_j with
no basis vector reused, and each such set of pairs is one orbit. Both directions of the
round trip are one pass over rows: the encoder keeps one running row of counters, and the
decoder inverts each row against the one above. A representative is checked only where it
comes in, by make_representative (pairs a caller supplies) and by the decoder;
enumerate_orbits builds its records unchecked, valid by construction. The decoder,
representative_from_incidence, is also the one place a matrix is checked, and needs no
re-encoding: once every inclusion-exclusion value is 0 or 1, the pairs re-encode to the
matrix by telescoping; every other matrix is built from a valid representative or read
off ranks. Includes exact orbit dimensions
via the Lie algebra stabilizer condition and a finite-field enumeration used as an oracle,
which reads each row of a subspace's incidence off one echelon over F_q. Two bounds count
what they would build, before any work: enumerate_orbits refuses more than ENTRY_CAP
incidence entries (one cap on entries built, from `partitions`), orbit_count(k, d) x
(k+1)^2, as every caller (the listing, the oracle, the benchmark) builds one matrix per
orbit; the oracle refuses more than ORACLE_CAP subspaces (the Gaussian binomial).

A representative's basis vectors have disjoint supports of size 1 or 2, so
each e_i modulo W is 0 or a signed unit vector of V/W, and each row of the
stabilizer matrix (the image w -> w[j] (e_i mod W) of E_ij) has at most one
nonzero entry. Its rank is therefore a count of distinct positions, exact
with no elimination. The representatives lie in F^{2k}, and the Lie algebra
of the triangular group on F^{2k+s} has no entry (i, j) with i >= 2k > j, so
extra coordinates never change an orbit's dimension and are not modelled.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass

from grasseff.errors import InputError
# bench/tracing.py looks up rank, rref, reduce_mod and ff_rank in this module, so all four
# stay bound: rref and reduce_mod are not called here, and ff_rank (through it rank) only by
# the tests
from grasseff.linalg import echelon, rank, reduce_mod, rref  # noqa: F401
from grasseff.partitions import ENTRY_CAP


@dataclass(frozen=True)
class IncidenceMatrix:
    """(k+1) x (k+1) matrix of intersection dimensions, indices 0..k; a plain record,
    checked only by representative_from_incidence."""

    k: int
    entries: tuple  # tuple of k+1 rows, each a tuple of k+1 ints

    @property
    def subspace_dim(self) -> int:
        return self.entries[self.k][self.k]

    def to_json(self) -> list:
        return [list(row) for row in self.entries]


@dataclass(frozen=True)
class OrbitRepresentative:
    """Pairs (i, j) meaning the span of the vectors f_i + g_j; index 0 drops the summand.
    A plain record, checked only by make_representative and representative_from_incidence."""

    k: int
    pairs: tuple  # sorted tuple of (i, j): indices in 0..k, no (0,0), no flag vector reused

    def to_json(self) -> list:
        return [list(p) for p in self.pairs]


def make_representative(k: int, pairs) -> OrbitRepresentative:
    """The representative of caller-supplied pairs, sorted, with every index in 0..k, no
    (0,0) and no flag vector reused."""
    pairs = tuple(sorted(tuple(p) for p in pairs))
    for i, j in pairs:
        if not (0 <= i <= k and 0 <= j <= k):
            raise InputError("pair (%d,%d) out of range" % (i, j))
        if (i, j) == (0, 0):
            raise InputError("pair (0,0) denotes the zero vector")
    fs, gs = [i for i, _ in pairs if i > 0], [j for _, j in pairs if j > 0]
    if len(set(fs)) != len(fs) or len(set(gs)) != len(gs):
        raise InputError("a flag basis vector is reused across pairs")
    return OrbitRepresentative(k, pairs)


def incidence_of_representative(rep: OrbitRepresentative) -> IncidenceMatrix:
    """entry(i,j) = number of pairs with both indices dominated by (i,j).

    One running row of k+1 counters: the pairs are sorted by i, each pair (i, b) adds 1
    to columns b..k, and row i is frozen once its own pairs are in.
    """
    k = rep.k
    row, entries = [0] * (k + 1), []
    for a, b in rep.pairs:
        while len(entries) < a:
            entries.append(tuple(row))
        for c in range(b, k + 1):
            row[c] += 1
    while len(entries) <= k:
        entries.append(tuple(row))
    return IncidenceMatrix(k, tuple(entries))


def representative_from_incidence(inc: IncidenceMatrix) -> OrbitRepresentative:
    """Read the pairs off the matrix by Moebius inversion (inclusion-exclusion).

    entry(i,j) counts the pairs dominated by (i,j), so (i,j) is a pair exactly when
    e[i][j] - e[i-1][j] - e[i][j-1] + e[i-1][j-1] is 1 (entries with a negative index are
    0): row by row, the differences along the row of its step from the row above, and a
    row equal to the one above holds no pair. A shape other than (k+1) x (k+1), any value
    other than 0 or 1, the pair (0,0), a reused flag vector or more than k pairs mean it is
    not the incidence profile of any subspace; together these imply (0,0) = 0, (k,k) <= k,
    nonnegative entries and row and column steps of 0 or 1. The pairs need no re-encoding
    check: summed over a <= i, b <= j, the inclusion-exclusion values telescope back to
    e[i][j], and once each of them is 0 or 1 that sum counts the pairs dominated by (i,j),
    which is what the encoder writes. Rows may be tuples or lists.
    """
    k, entries = inc.k, inc.entries
    if len(entries) != k + 1 or any(len(row) != k + 1 for row in entries):
        raise InputError("expected a %dx%d matrix" % (k + 1, k + 1))
    pairs, gs, above = [], set(), (0,) * (k + 1)
    for i, row in enumerate(entries):
        if row == above:  # no pair in this row
            continue
        step = tuple(map(operator.sub, row, above))
        at = len(pairs)
        for j, m in enumerate(map(operator.sub, step, (0, *step))):
            if m:
                if m != 1:
                    raise InputError("invalid incidence profile: inclusion-exclusion gives %d "
                                     "at (%d,%d)" % (m, i, j))
                if not (i or j):
                    raise InputError("pair (0,0) denotes the zero vector")
                if (i and len(pairs) > at) or j in gs:
                    raise InputError("a flag basis vector is reused across pairs")
                if j:
                    gs.add(j)
                pairs.append((i, j))
        above = row
    if len(pairs) > k:
        raise InputError("invalid incidence profile: %d pairs, more than k=%d" % (len(pairs), k))
    return OrbitRepresentative(k, tuple(pairs))


def orbit_count(k: int, d: int) -> int:
    """The number of d-plane orbits, 0 <= d <= k: j pairs with both indices positive, in
    C(k, j)^2 j! ways, then d - j single flag vectors out of the 2(k - j) unused."""
    return sum(math.comb(k, j) ** 2 * math.factorial(j) * math.comb(2 * (k - j), d - j)
               for j in range(d + 1))


def enumerate_orbits(k: int, d: int) -> list[OrbitRepresentative]:
    """All orbit representatives of d-planes, sorted by their pairs.

    Each set of pairs with no flag vector reused is one orbit (its incidence gives the pairs
    back), and exactly these sets are built. More than ENTRY_CAP incidence entries is
    refused first: each caller builds one (k+1) x (k+1) incidence matrix per orbit.
    """
    if not (0 <= d <= k):
        raise InputError("need 0 <= subspace_dim <= k")
    # there is at least one orbit, so the sum waits for (k+1)^2 alone to pass
    entries = (k + 1) ** 2
    if entries > ENTRY_CAP or orbit_count(k, d) * entries > ENTRY_CAP:
        raise InputError("the %d-plane orbits for k=%d have more than %d incidence entries"
                         % (d, k, ENTRY_CAP))
    flags = range(1, k + 1)
    grid = [[(i, j) for j in range(k + 1)] for i in range(k + 1)]  # every set shares these pairs
    sets = []
    # j pairs f_i + g_j, then d - j of the 2(k - j) unused flag vectors, listed when j < d
    for j in range(d + 1):
        for fs in itertools.combinations(flags, j):
            for gs in itertools.permutations(flags, j):
                pairs = [grid[i][g] for i, g in zip(fs, gs)]
                free = ([grid[i][0] for i in flags if i not in fs]
                        + [grid[0][g] for g in flags if g not in gs]) if j < d else []
                sets += (tuple(sorted(pairs + list(singles)))
                         for singles in itertools.combinations(free, d - j))
    return [OrbitRepresentative(k, pairs) for pairs in sorted(sets)]


# ---------------------------------------------------------------------------
# orbit dimensions via the Lie algebra stabilizer condition

def orbit_dimension(rep: OrbitRepresentative) -> int:
    """dim B - dim Stab_B(W), as the rank of the map X -> (X.w mod W)_w.

    The Lie algebra of B has the entries (i, j), i <= j, of its two
    triangular k-blocks. E_ij sends the basis vector w_t to w_t[j] e_i, which
    is nonzero only for the one t with j in supp(w_t), so only the
    coordinates j inside W's supports count, with i running over j's own
    k-block up to j. The supports are disjoint, of size 1 or 2, so e_i mod W
    is 0 (e_i spans a support of size 1), -(e_a mod W) (the support is
    {a, i} with a < i) or a unit vector of its own. Each row of the
    stabilizer matrix thus has at most one nonzero entry, +-1 at the
    position (t, class of e_i), and the rank is the number of distinct
    positions reached.
    """
    k = rep.k
    # coordinate c -> the t with c in supp(w_t), and -> the class of e_c mod W (None: e_c in W);
    # a coordinate outside every support is its own class
    owner, cls = {}, {}
    for t, (i, j) in enumerate(rep.pairs):
        support = [i - 1] * (i > 0) + [k + j - 1] * (j > 0)
        for c in support:
            owner[c] = t
            cls[c] = support[0] if len(support) == 2 else None
    return len({(t, cls.get(i, i)) for j, t in owner.items()
                for i in range(j - j % k, j + 1) if cls.get(i, i) is not None})


def dense_orbit_dimension_check(k: int, d: int) -> dict:
    """Compare dim of the d-block triangular group with dim G(k, dk)."""
    if k < 1 or d < 2:
        raise InputError("need k >= 1 and d >= 2")
    dim_b = d * k * (k + 1) // 2
    dim_g = (d - 1) * k * k
    if dim_b < dim_g:
        verdict = "no dense orbit possible"
    elif dim_b == dim_g:
        verdict = "boundary case"
    else:
        verdict = "no obstruction"
    return {"k": k, "d": d, "dim_b": dim_b, "dim_g": dim_g, "verdict": verdict}


# ---------------------------------------------------------------------------
# finite-field oracle

# The fields F_q that oracle_check enumerates, and the subspaces it may enumerate over them.
FIELDS = (2, 3)
ORACLE_CAP = 50_000


def ff_rank(matrix, q: int) -> int:
    """Rank over F_q (q prime)."""
    return rank(matrix, q)


def ff_subspaces(n: int, d: int, q: int):
    """All d-dimensional subspaces of F_q^n, one RREF basis matrix each."""
    for pivots in itertools.combinations(range(n), d):
        free = [c for c in range(n)
                if c not in pivots and any(c > p for p in pivots)]
        free_slots = [(r, c) for r in range(d) for c in free if c > pivots[r]]
        for values in itertools.product(range(q), repeat=len(free_slots)):
            m = [[0] * n for _ in range(d)]
            for r, p in enumerate(pivots):
                m[r][p] = 1
            for (r, c), v in zip(free_slots, values):
                m[r][c] = v
            yield m


def ff_incidence(basis, k: int, q: int) -> IncidenceMatrix:
    """Incidence matrix of the row span W of basis inside F_q^{2k}.

    F_i + G_j is the span of the coordinates 0..i-1 and k..k+j-1, so W meets
    it in dimension d minus the rank of W's other columns. With W's columns
    ordered as i..k-1, then 2k-1 down to k, those are the first 2k-i-j, and
    the rank of a prefix of columns is the number of pivot columns before its
    end: one echelon per i gives the whole row i.
    """
    d = len(basis)
    entries = []
    for i in range(k + 1):
        cols = echelon([row[i:k] + row[k:][::-1] for row in basis], q)[2]
        entries.append(tuple(d - bisect.bisect_left(cols, 2 * k - i - j) for j in range(k + 1)))
    return IncidenceMatrix(k, tuple(entries))


def ff_orbit_counts(k: int, d: int, q: int) -> dict:
    """Map incidence entries -> number of F_q-rational d-planes realizing them."""
    counts: dict = {}
    for basis in ff_subspaces(2 * k, d, q):
        key = ff_incidence(basis, k, q).entries
        counts[key] = counts.get(key, 0) + 1
    return counts


def _subspace_count(n: int, d: int, q: int) -> int:
    """The Gaussian binomial [n choose d]_q: the number of d-planes in F_q^n."""
    num = den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def oracle_check(k: int, d: int) -> dict:
    """Compare enumerate_orbits against the finite-field enumeration.

    Each field in FIELDS must realize exactly the enumerated incidences, each by
    (q-1)^m q^(dim-m) points (m pairs with both indices positive, dim from orbit_dimension);
    disagreement is reported, not repaired. More than ORACLE_CAP subspaces over all fields is
    refused first.
    """
    # [2k choose d]_q >= q^(d(2k-d)) >= 2^(d(2k-d)): only a small exponent needs the exact count
    if d * (2 * k - d) >= ORACLE_CAP.bit_length() \
            or sum(_subspace_count(2 * k, d, q) for q in FIELDS) > ORACLE_CAP:
        raise InputError("the F_q oracle for k=%d, d=%d enumerates more than %d subspaces"
                         % (k, d, ORACLE_CAP))
    expected = {incidence_of_representative(rep).entries:
                (sum(1 for i, j in rep.pairs if i and j), orbit_dimension(rep))
                for rep in enumerate_orbits(k, d)}
    agree = all(ff_orbit_counts(k, d, q) == {key: (q - 1) ** m * q ** (dim - m)
                                             for key, (m, dim) in expected.items()} for q in FIELDS)
    return {"k": k, "dim": d, "orbit_count": len(expected), "fields": list(FIELDS), "agree": agree}
