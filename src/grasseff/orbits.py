"""Orbits of the two-flag triangular group on G(k, 2k) and G(k, 2k+s).

Orbits are indexed by incidence matrices (dimensions of intersections with
the sums F_i + G_j of two transverse partial flags); each realizable matrix
decodes, by inclusion-exclusion, to a distinguished representative spanned
by vectors f_i + g_j with no basis vector reused, and each such set of
pairs is one orbit. Includes exact orbit dimensions via the Lie algebra
stabilizer condition and a finite-field enumeration used as an oracle. Every
orbit bound counts what it builds, before any work: enumerate_orbits refuses
more than ENUMERATE_CAP orbits, a listing more than LIST_CAP units of orbits x
Lie positions x (d + 1) x n (both from the closed form orbit_count), and the
oracle more than ORACLE_CAP subspaces (the Gaussian binomial).

A representative's basis vectors have disjoint supports of size 1 or 2, so
each e_i modulo W is 0 or a signed unit vector of V/W, and each row of the
stabilizer matrix (the image w -> w[j] (e_i mod W) of E_ij) has at most one
nonzero entry. Its rank is therefore a count of distinct positions, exact
with no elimination.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from grasseff.errors import InputError
# rref and reduce_mod are not called here; they stay bound because bench/tracing.py
# looks up rank, rref and reduce_mod in this module
from grasseff.linalg import rank, reduce_mod, rref  # noqa: F401


@dataclass(frozen=True)
class IncidenceMatrix:
    """(k+1) x (k+1) matrix of intersection dimensions, indices 0..k."""

    k: int
    entries: tuple  # tuple of k+1 rows, each a tuple of k+1 ints

    def __post_init__(self):
        k = self.k
        e = self.entries
        if len(e) != k + 1 or any(len(row) != k + 1 for row in e):
            raise InputError("expected a %dx%d matrix" % (k + 1, k + 1))
        if e[0][0] != 0:
            raise InputError("entry (0,0) must be 0")
        if e[k][k] > k:
            raise InputError("entry (k,k) exceeds k")
        for i in range(k + 1):
            for j in range(k + 1):
                if e[i][j] < 0:
                    raise InputError("negative entry at (%d,%d)" % (i, j))
                if i > 0 and e[i][j] - e[i - 1][j] not in (0, 1):
                    raise InputError("column step at (%d,%d) not 0 or 1" % (i, j))
                if j > 0 and e[i][j] - e[i][j - 1] not in (0, 1):
                    raise InputError("row step at (%d,%d) not 0 or 1" % (i, j))

    @property
    def subspace_dim(self) -> int:
        return self.entries[self.k][self.k]

    def to_json(self) -> list:
        return [list(row) for row in self.entries]


@dataclass(frozen=True)
class OrbitRepresentative:
    """Pairs (i, j) meaning the span of the vectors f_i + g_j; index 0 drops the summand."""

    k: int
    pairs: tuple  # canonically sorted tuple of (i, j)

    def __post_init__(self):
        k = self.k
        if tuple(sorted(self.pairs)) != self.pairs:
            raise InputError("pairs must be sorted")
        fs, gs = [], []
        for i, j in self.pairs:
            if not (0 <= i <= k and 0 <= j <= k):
                raise InputError("pair (%d,%d) out of range" % (i, j))
            if (i, j) == (0, 0):
                raise InputError("pair (0,0) denotes the zero vector")
            if i > 0:
                fs.append(i)
            if j > 0:
                gs.append(j)
        if len(set(fs)) != len(fs) or len(set(gs)) != len(gs):
            raise InputError("a flag basis vector is reused across pairs")

    @property
    def subspace_dim(self) -> int:
        return len(self.pairs)

    def to_json(self) -> list:
        return [list(p) for p in self.pairs]


def make_representative(k: int, pairs) -> OrbitRepresentative:
    return OrbitRepresentative(k, tuple(sorted(tuple(p) for p in pairs)))


def incidence_of_representative(rep: OrbitRepresentative) -> IncidenceMatrix:
    """entry(i,j) = number of pairs with both indices dominated by (i,j).

    The 2-D prefix sums of the 0/1 grid that marks the pairs: each row adds
    its running sums to the row above.
    """
    k = rep.k
    grid = [[0] * (k + 1) for _ in range(k + 1)]
    for a, b in rep.pairs:
        grid[a][b] = 1
    entries, above = [], (0,) * (k + 1)
    for line in grid:
        above = tuple(map(operator.add, above, itertools.accumulate(line)))
        entries.append(above)
    return IncidenceMatrix(k, tuple(entries))


def representative_from_incidence(inc: IncidenceMatrix) -> OrbitRepresentative:
    """Read the pairs off the matrix by Moebius inversion (inclusion-exclusion).

    entry(i,j) counts the pairs dominated by (i,j), so (i,j) is a pair exactly
    when e[i][j] - e[i-1][j] - e[i][j-1] + e[i-1][j-1] is 1 (entries with a
    negative index are 0). Any value other than 0 or 1, a reused flag vector,
    or pairs that do not re-encode to the matrix mean it is not the incidence
    profile of any subspace.
    """
    k = inc.k
    e = [[0] * (k + 2)] + [[0, *row] for row in inc.entries]  # one row and column of zeros
    pairs = []
    for i in range(k + 1):
        for j in range(k + 1):
            m = e[i + 1][j + 1] - e[i][j + 1] - e[i + 1][j] + e[i][j]
            if m not in (0, 1):
                raise InputError("invalid incidence profile: inclusion-exclusion gives %d at "
                                 "(%d,%d)" % (m, i, j))
            if m:
                pairs.append((i, j))
    rep = make_representative(k, pairs)
    if incidence_of_representative(rep).entries != inc.entries:
        raise InputError("invalid incidence profile: its pairs do not reproduce the matrix")
    return rep


# Orbits (orbit_count) one enumerate_orbits may build; k = 8, d = 3 builds 44,016.
ENUMERATE_CAP = 50_000

# Work units (about 0.06-0.15 us each) of one check_listing; k = d = 4, s = 2 needs 2.0 million.
LIST_CAP = 4_000_000


def orbit_count(k: int, d: int) -> int:
    """The number of d-plane orbits, 0 <= d <= k: j pairs with both indices positive, in
    C(k, j)^2 j! ways, then d - j single flag vectors out of the 2(k - j) unused."""
    return sum(math.comb(k, j) ** 2 * math.factorial(j) * math.comb(2 * (k - j), d - j)
               for j in range(d + 1))


def enumerate_orbits(k: int, d: int) -> list[OrbitRepresentative]:
    """All orbit representatives of d-planes, sorted by their pairs.

    Each set of pairs with no flag vector reused is one orbit (its incidence gives the pairs
    back), and exactly these sets are built; more than ENUMERATE_CAP is refused first.
    """
    if not (0 <= d <= k):
        raise InputError("need 0 <= subspace_dim <= k")
    if d == 0:
        return [OrbitRepresentative(k, ())]  # the zero subspace
    # the one-pair term alone is k^2 C(2k - 2, d - 1) >= k^2, so the sum waits for a small k
    if k * k > ENUMERATE_CAP or orbit_count(k, d) > ENUMERATE_CAP:
        raise InputError("k=%d has more than %d orbits of %d-planes" % (k, ENUMERATE_CAP, d))
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


def check_listing(k: int, d: int, s: int = 0) -> int:
    """Work of listing every d-plane orbit with its dimension; more than LIST_CAP is refused.

    Orbits (orbit_count) x (k(k+1) + 2ks + s(s+1)/2 Lie positions) x (d + 1) x n.
    """
    if not (0 <= d <= k):
        raise InputError("need 0 <= subspace_dim <= k")
    if s < 0:
        raise InputError("s must be nonnegative")
    n = 2 * k + s
    work = (k * (k + 1) + 2 * k * s + s * (s + 1) // 2) * (d + 1) * n
    # there is at least one orbit, so the sum is taken only once k is known to be small
    if work <= LIST_CAP:
        work *= orbit_count(k, d)
    if work > LIST_CAP:
        # the estimate itself is not printed: for a huge k it has too many digits to format
        raise InputError("listing the %d-plane orbits for k=%d, s=%d takes more than %d work "
                         "units" % (d, k, s, LIST_CAP))
    return work


# ---------------------------------------------------------------------------
# orbit dimensions via the Lie algebra stabilizer condition

def _lie_positions(k: int, s: int) -> list[tuple[int, int]]:
    """Free entries of the Lie algebra: two triangular k-blocks, full side
    columns over the last s coordinates, and a triangular s-block."""
    n = 2 * k + s
    return [(i, j) for i in range(n) for j in range(i, n) if j >= 2 * k or (i < k) == (j < k)]


def orbit_dimension(rep: OrbitRepresentative, s: int = 0) -> int:
    """dim B - dim Stab_B(W), as the rank of the map X -> (X.w mod W)_w.

    E_ij sends the basis vector w_t to w_t[j] e_i, which is nonzero only for
    the one t with j in supp(w_t). The supports are disjoint, of size 1 or 2,
    so e_i mod W is 0 (e_i spans a support of size 1), -(e_a mod W) (the
    support is {a, i} with a < i) or a unit vector of its own. Each row of
    the stabilizer matrix thus has at most one nonzero entry, +-1 at the
    position (t, class of e_i), and the rank is the number of distinct
    positions reached.
    """
    k = rep.k
    if s < 0:
        raise InputError("s must be nonnegative")
    # coordinate c -> the t with c in supp(w_t), and -> the class of e_c mod W (None: e_c in W);
    # a coordinate outside every support is its own class
    owner, cls = {}, {}
    for t, (i, j) in enumerate(rep.pairs):
        support = [i - 1] * (i > 0) + [k + j - 1] * (j > 0)
        for c in support:
            owner[c] = t
            cls[c] = support[0] if len(support) == 2 else None
    return len({(owner[j], cls.get(i, i)) for i, j in _lie_positions(k, s)
                if j in owner and cls.get(i, i) is not None})


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

# Subspaces that one oracle_check may enumerate, summed over its fields.
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
    it in dimension d minus the rank of W's other columns.
    """
    d = len(basis)
    return IncidenceMatrix(k, tuple(
        tuple(d - ff_rank([row[i:k] + row[k + j:] for row in basis], q) for j in range(k + 1))
        for i in range(k + 1)))


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


def oracle_check(k: int, d: int, qs=(2, 3)) -> dict:
    """Compare enumerate_orbits against the finite-field enumeration.

    Each field must realize exactly the enumerated incidences, each by (q-1)^m q^(dim-m)
    points (m pairs with both indices positive, dim from orbit_dimension); disagreement is
    reported, not repaired. More than ORACLE_CAP subspaces over all fields is refused first.
    """
    # [2k choose d]_q >= q^(d(2k-d)) >= 2^(d(2k-d)): only a small exponent needs the exact count
    if d * (2 * k - d) >= ORACLE_CAP.bit_length() \
            or sum(_subspace_count(2 * k, d, q) for q in qs) > ORACLE_CAP:
        raise InputError("the F_q oracle for k=%d, d=%d enumerates more than %d subspaces"
                         % (k, d, ORACLE_CAP))
    expected = {incidence_of_representative(rep).entries:
                (sum(1 for i, j in rep.pairs if i and j), orbit_dimension(rep))
                for rep in enumerate_orbits(k, d)}
    agree = all(ff_orbit_counts(k, d, q) == {key: (q - 1) ** m * q ** (dim - m)
                                             for key, (m, dim) in expected.items()} for q in qs)
    return {"k": k, "dim": d, "orbit_count": len(expected), "fields": sorted(qs), "agree": agree}
