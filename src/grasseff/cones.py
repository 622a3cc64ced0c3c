"""Polyhedral cone toolkit and the constructive decomposition procedures.

Covers: exact membership with dual certificates, the two-point divisor cone
on G(k, 2k), the inductive span decompositions for blow-up classes, the
quadric curve-cone reduction for blow-ups of G(2, 4) at up to 7 points, the
three-cycle reduction on G(2, 5) for up to 4 points, and the r = 3 class on
G(2, 4) that leaves the span of the Schubert classes.

Each paper cone is built by _paper_cone from the term keys its decomposition peels
off, placed by lemma41_vector, lemma42_term_vector or quadric_term_vector, with a
rule that answers every query: the first violated inequality (Theorem 4.4, Lemma
4.2, the quadric facets) is the certificate over D = 1, else the decomposition
(Lemma 4.1, Lemma 4.2, the quadric conics) of L times the query, L the lcm of its
denominators, is the witness over D = L. Lemma 4.1, the quadric and the three-cycle
decompositions are closed forms, their cost set by the number of points, not the
size of the coefficients. A cone without a rule (`cone check`) is answered by the
simplex over its own D, on a tableau built for the query. Either answer is
re-checked by substitution and kept as integer numerators over D; Fractions
are built only when one is read. A witness is checked on every query
(>= 0, with sum c_j g_j equal to D v). A certificate has two halves: < 0 on the
query, checked on every query, and >= 0 on every generator, which depends only on
the cone and the normal and is checked once per distinct normal per cone.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from operator import mul

from grasseff import chow
from grasseff.blowup import BlowupClass, BlowupCtx, blow_class
from grasseff.chow import GrassCtx
from grasseff.errors import DecompositionError, InputError, InternalError
from grasseff.jsonio import MAX_DIGITS
from grasseff.simplex import solve_nonneg_combination


@dataclass(frozen=True)
class ConeSpec:
    """A cone given by generators over a labeled rational basis.

    Coordinates are kept as given (ints, or Fractions from an input file).
    rule, if set, answers every query as the simplex does, ("witness", integer
    coefficients per generator, D) or ("certificate", an integer normal, D), and
    cone_membership re-checks it. normals holds the certificate normals already
    found >= 0 on every generator, at most chow.MEMO_CAP of them, so that half of
    a certificate's re-check runs once per distinct normal; the generators never
    change, so an entry never goes stale, and a cone made by dataclasses.replace
    starts with none.
    """

    dim: int
    basis_labels: tuple[str, ...]
    labels: tuple[str, ...]
    generators: tuple[tuple, ...]
    rule: Callable[[tuple], tuple[str, tuple[int, ...], int]] | None = None

    @staticmethod
    def build(dim, basis_labels, labeled_generators) -> "ConeSpec":
        seen = {}
        for label, vec in labeled_generators:
            vec = tuple(vec)
            if len(vec) != dim:
                raise InputError("generator %s has wrong dimension" % label)
            if not _exact(vec):
                raise InputError("generator %s has a coordinate that is not an int or a "
                                 "Fraction" % label)
            seen.setdefault(vec, label)
        return ConeSpec(dim, tuple(basis_labels), tuple(seen.values()), tuple(seen))

    @cached_property
    def normals(self) -> set:
        return set()


@dataclass(frozen=True)
class MembershipResult:
    """A re-checked answer as integer numerators num over D > 0: per generator for a
    witness ("in-span"), per coordinate for a certificate ("not-in-span")."""

    verdict: str
    num: tuple
    D: int

    @property
    def is_member(self) -> bool:
        return self.verdict == "in-span"

    @property
    def witness(self) -> tuple | None:
        """Coefficients per generator as Fractions, summing to the query."""
        return self._fractions() if self.is_member else None

    @property
    def certificate(self) -> tuple | None:
        """A functional as Fractions, >= 0 on the generators and < 0 on the query."""
        return None if self.is_member else self._fractions()

    def _fractions(self) -> tuple:
        return tuple(Fraction(x, self.D) for x in self.num)


def _dot(u, v):
    return sum(map(mul, u, v))


def _exact(v) -> bool:
    """Whether every coordinate of v is an int or a Fraction, by the type of their sum."""
    try:
        return type(sum(v)) in (int, Fraction)
    except (TypeError, OverflowError):
        return False


def _answer_holds(cone: ConeSpec, v, kind: str, data: tuple, D: int) -> bool:
    """An answer over the denominator D > 0: a certificate is < 0 on v and >= 0 on every
    generator (looked up in cone.normals, and stored there once it holds); a witness is
    >= 0 and D v less sum c_j g_j over the nonzero c_j is 0."""
    if not D > 0:
        return False
    if kind == "certificate":
        if len(data) != cone.dim or _dot(data, v) >= 0:
            return False
        normals = cone.normals
        if data in normals:
            return True
        for g in cone.generators:  # inlined _dot: no call per generator on this path
            if sum(map(mul, data, g)) < 0:
                return False
        if len(normals) < chow.MEMO_CAP:
            normals.add(data)
        return True
    if kind != "witness" or len(data) != len(cone.generators) or min(data, default=0) < 0:
        return False
    rest = list(v) if D == 1 else [D * x for x in v]
    for c, g in zip(data, cone.generators):
        if c:
            rest = [r - c * x for r, x in zip(rest, g)]
    return not any(rest)


def cone_membership(cone: ConeSpec, v) -> MembershipResult:
    """Exact membership: a witness, or a Farkas certificate.

    v is a sequence of ints and Fractions, answered by the cone's rule if it has one and by
    the simplex otherwise; the answer stands once substitution re-checks it, and one that
    fails is an internal error.
    """
    if len(v) != cone.dim:
        raise InputError("vector has dimension %d, cone has %d" % (len(v), cone.dim))
    if not _exact(v):
        raise InputError("vector %s has a coordinate that is not an int or a Fraction" % (v,))
    kind, data, D = cone.rule(v) if cone.rule else solve_nonneg_combination(cone.generators, v)
    data = tuple(data)
    if not _answer_holds(cone, v, kind, data, D):
        raise InternalError("internal: %s %s fails its re-check on %s" % (kind, data, v))
    return MembershipResult("in-span" if kind == "witness" else "not-in-span", data, D)


def _paper_cone(basis_labels, keys, label, vector, rule, decompose) -> ConeSpec:
    """One generator per decomposition term key, labelled label(key), at vector(key).

    rule(member, v) returns ("certificate", normal, 1) for an inequality of the cone
    that v violates, else member(v): the counts per generator of the (key, count) terms
    of decompose(L v), L the lcm of v's denominators, as ("witness", counts, L).
    """
    position = {key: j for j, key in enumerate(keys)}

    def member(v):
        L = 1
        if type(sum(v)) is not int:  # a Fraction among v makes the sum one
            L = math.lcm(*[x.denominator for x in v])
            v = [x.numerator * (L // x.denominator) for x in v]
        witness = [0] * len(keys)
        for key, c in decompose(v):
            witness[position[key]] += c
        return "witness", tuple(witness), L
    return ConeSpec(len(basis_labels), tuple(basis_labels), tuple(map(label, keys)),
                    tuple(map(vector, keys)), partial(rule, member))


# ---------------------------------------------------------------------------
# two-point divisor cone on G(k, 2k)

def lemma41_decompose(k: int, a: int, b1: int, b2: int) -> list[tuple[str, int]]:
    """Write (a, -b1, -b2) as a nonnegative combination of e_i and beta_m.

    beta_m = e_0 - m e_1 - (k - m) e_2. Requires a, b1, b2 >= 0 and
    k*a >= b1 + b2. Lemma 4.1's induction on a peels beta_m with m = min(b1 left, k)
    a times; in closed form, with q, rem = divmod(b1, k), that is q copies of beta_k,
    one beta_rem when rem > 0, a - q - [rem > 0] copies of beta_0, and the
    k*a - b1 - b2 left over in E_2 as e2. Sorted by label, zero counts dropped.
    """
    if k < 1:
        raise InputError("need k >= 1")
    if a < 0 or b1 < 0 or b2 < 0:
        raise DecompositionError("outside dual-cone region: negative coefficient")
    if k * a < b1 + b2:
        raise DecompositionError("outside dual-cone region: %d*%d < %d + %d" % (k, a, b1, b2))
    q, rem = divmod(b1, k)
    terms = {"beta_%d" % k: q, "beta_0": a - q - (rem > 0), "e2": k * a - b1 - b2}
    if rem:
        terms["beta_%d" % rem] = 1
    return sorted((label, c) for label, c in terms.items() if c)


def lemma41_vector(k: int, label: str) -> tuple[int, int, int]:
    """Coordinate vector of a lemma41 generator label in the (H, E1, E2) basis."""
    if label == "e1":
        return (0, 1, 0)
    if label == "e2":
        return (0, 0, 1)
    if label.startswith("beta_"):
        m = int(label.split("_")[1])
        return (1, -m, -(k - m))
    raise InputError("unknown label %r" % label)


def thm44_generators(k: int) -> ConeSpec:
    """Generators of the divisor cone for two general points on G(k, 2k).

    Basis (H, E_1, E_2); a class aH - b_1 E_1 - b_2 E_2 is the vector
    (a, -b_1, -b_2). The generators are the terms of lemma41_decompose:
    e1, e2 and beta_m = H - m E_1 - (k - m) E_2 for m = 0..k. The rule is
    Theorem 4.4, tried in the order a >= 0, ka >= b_2, ka >= b_1, ka >= b_1 + b_2;
    a class meeting all four has the witness lemma41_decompose(k, a, b_1+, b_2+)
    plus b_i- times e_i (b+ = max(b, 0), b- = max(-b, 0)).
    """
    if k < 2:
        raise InputError("need k >= 2")

    def rule(member, v):  # v = (a, -b_1, -b_2)
        a, y, z = v
        if a < 0:
            return "certificate", (1, 0, 0), 1
        if k * a + z < 0:
            return "certificate", (k, 0, 1), 1
        if k * a + y < 0:
            return "certificate", (k, 1, 0), 1
        if k * a + y + z < 0:
            return "certificate", (k, 1, 1), 1
        return member(v)

    def decompose(v):
        a, y, z = v
        terms = lemma41_decompose(k, a, max(-y, 0), max(-z, 0))
        return terms if y <= 0 >= z else terms + [("e1", max(y, 0)), ("e2", max(z, 0))]
    keys = ("e1", "e2") + tuple("beta_%d" % m for m in range(k + 1))  # each its own label
    return _paper_cone(("H", "E1", "E2"), keys, str, partial(lemma41_vector, k), rule, decompose)


# ---------------------------------------------------------------------------
# span decomposition for blow-up classes

def _lemma42_greedy(a: dict, bs) -> dict[tuple, object]:
    """Lemma 4.2's induction on the number of points, for a mapping lam -> a_lam >= 0
    and b_i with sum a_lam >= the sum of the b_i > 0.

    From the last point to the first, the coefficients a'_lam with total b_i
    are drawn greedily from the largest remaining a_lam (ties to the larger
    parts). Each lam is drawn at most once per point; a b_i < 0 is -b_i copies
    of E_i. Term keys: ("sigma-E", lam, i), ("sigma", lam) and ("E", i).
    """
    coeffs = {lam: c for lam, c in a.items() if c}
    out: dict[tuple, object] = {}
    for i in range(len(bs) - 1, -1, -1):
        need = bs[i]
        if need < 0:
            out[("E", i)] = -need
        while need > 0:
            lam = max(coeffs, key=lambda l: (coeffs[l], l.parts))
            take = min(coeffs[lam], need)
            out[("sigma-E", lam, i)] = take
            coeffs[lam] -= take
            if coeffs[lam] == 0:
                del coeffs[lam]
            need -= take
    out.update((("sigma", lam), v) for lam, v in coeffs.items())
    return out


def lemma42_decompose(c: BlowupClass) -> list[tuple[tuple, object]]:
    """Decompose c into sigma_lam - E_i and bare sigma_lam terms by _lemma42_greedy.

    Requires a_lam >= 0, b_i >= 0 and sum a_lam >= sum b_i.
    """
    coeffs = c.ambient.coeffs
    if any(v < 0 for v in coeffs.values()):
        raise DecompositionError("ambient coefficients must be nonnegative")
    bs = list(c.exc)
    if any(b < 0 for b in bs):
        raise DecompositionError("exceptional coefficients must be nonnegative")
    total_a, total_b = sum(coeffs.values()), sum(bs)
    if total_a < total_b:
        raise DecompositionError("sum of ambient coefficients falls short by %s"
                                 % (total_b - total_a))
    return sorted(_lemma42_greedy(coeffs, bs).items(), key=lambda t: repr(t[0]))


def lemma42_term_vector(sigmas, r: int, key: tuple) -> tuple:
    """Coordinates of a lemma42 term key in blowup_cycle_vector's basis.

    sigmas is the Schubert basis of the cycles' codimension; the vector is
    (a_lam in that order, -b_1, ..., -b_r), so E_i has +1 at point i.
    """
    a, minus_b = [0] * len(sigmas), [0] * r
    if key[0] in ("sigma", "sigma-E"):
        a[sigmas.index(key[1])] = 1
    if key[0] == "sigma-E":
        minus_b[key[2]] = -1
    elif key[0] == "E":
        minus_b[key[1]] = 1
    elif key[0] != "sigma":
        raise InputError("unknown term key %r" % (key,))
    return (*a, *minus_b)


def _lemma42_label(key: tuple) -> str:
    if key[0] == "E":
        return "E%d" % (key[1] + 1)
    return "s%s" % (key[1],) + ("-E%d" % (key[2] + 1) if key[0] == "sigma-E" else "")


# ---------------------------------------------------------------------------
# S-generation bounds

def sgen_bound(ctx: GrassCtx, cycle_dim: int) -> int:
    """Largest r for which the dimension-1 or -2 cone is known span-generated.

    Base bound binom(n, k) - k(n-k); curves gain one more point when the
    Plucker degree f is at least base + 1, which holds exactly when both
    sides k, w = n-k are >= 2 and kw > 4. Proof: the hook formula gives
    f(k, w+1) / f(k, w) = prod_{i=1..k} (kw+i)/(w+i), at least its first
    factor (kw+1)/(w+1) >= (k+w+1)/(w+1) = C(k+w+1, k) / C(k+w, k) once
    k, w >= 2, so f / C(k+w, k) never falls as either side grows from 2 (f is
    symmetric in k and w). f >= C already at G(2,7) (42 >= 21) and G(3,6)
    (42 >= 20), and every other box with both sides >= 2 contains one of them
    except G(2,4), G(2,5) and G(2,6), where f = 2, 5, 14 against base + 1 =
    3, 5, 8. With a side of 1, f = 1 < 2 = base + 1. A base of more than
    MAX_DIGITS digits cannot be written as JSON and is refused: binom(n, j)
    >= (n/j)^j for j = min(k, n-k), so a bound past the limit by that
    estimate is refused before the binomial is computed.
    """
    if cycle_dim not in (1, 2):
        raise InputError("cycle_dim must be 1 or 2")
    too_long = InputError("G(%d,%d): the bound binom(n, k) - k(n-k) has more than %d "
                          "digits, too many to print" % (ctx.k, ctx.n, MAX_DIGITS))
    j = min(ctx.k, ctx.w)
    if j * (math.log10(ctx.n) - math.log10(j)) > MAX_DIGITS + 1:
        raise too_long
    base = math.comb(ctx.n, ctx.k) - ctx.dim
    if base >= 10 ** MAX_DIGITS:
        raise too_long
    return base + (cycle_dim == 1 and j >= 2 and ctx.dim > 4)


def very_general_curve_bound(ctx: GrassCtx) -> int:
    """Sharp curve bound for very general points: the Plucker degree."""
    return chow.degree(ctx)


# ---------------------------------------------------------------------------
# quadric curve decomposition (blow-ups of G(2,4) at r <= 7 points)

def _violated_facet(a, bs):
    """Normal on (a, -b_1, ..., -b_r) of the facet of quadric_cone(r) that (a, bs) violates
    most within the first violated form, or None. With i, j not in S and |S| = m the forms
    are a >= 0, a >= b_i, a >= b_i + b_j, 2a >= 2b_i + sum_S b_j (m = 3..r-1) and
    3a >= 2 sum_S b_j (m = 4..r). Their b-coefficients are >= 0, so one sort finds each.
    """
    r = len(bs)
    order = sorted(range(r), key=bs.__getitem__, reverse=True)  # stable: ties keep i order
    prefix = list(itertools.accumulate((bs[i] for i in order), initial=0))
    facets = [(a - prefix[m], 1, (1,) * m) for m in range(min(r, 2) + 1)]  # forms 0 to 2
    ms = [max(range(4, r + 1), key=prefix.__getitem__)] if r > 3 else []  # forms 3, 4: top prefix
    facets += [(2 * a - prefix[1] - prefix[m], 2, (2,) + (1,) * (m - 1)) for m in ms]
    facets += [(3 * a - 2 * prefix[m], 3, (2,) * m) for m in ms]
    slack, c, weights = next((f for f in facets if f[0] < 0), (0, 0, ()))  # weights by order
    normal = [0] * r
    for i, w in zip(order, weights):
        normal[i] = w
    return (c, *normal) if slack < 0 else None


def quadric_curve_decompose(a: int, bs) -> dict[tuple, int]:
    """Decompose a*l - sum b_i l_i into lines, conics and exceptional lines.

    With s = sum b_i+, T conics 2l - l_i - l_j - l_k leave s - 3T for lines
    l - l_i and a + T - s for l, so the most conics that fit are best: T is
    the largest with 2T <= a and sum min(b_i+, T) >= 3T, which for b_(1) >=
    b_(2) the two largest b_i+ reads T = min(a // 2, s // 3, (s - b_(1)) // 2,
    s - b_(1) - b_(2)). The class decomposes exactly when s - a <= T; otherwise
    the refusal names the facet of the cone that (a, bs) violates. Point i
    takes u_i <= min(b_i+, T) conics, filled in index order to 3T: listing
    point i u_i times, conic t takes the entries at t, t + T and t + 2T (three
    distinct points, as no point is listed more than T times). The three
    change only at the starts of points' entries taken mod T, so the conics
    come in at most r + 1 runs. Point i then takes b_i+ - u_i lines and b_i-
    exceptional lines l_i.

    Term keys: ("ell",), ("ell_i", i), ("line", i) for l - l_i,
    ("conic", i, j, k).
    """
    if len(bs) > 7:
        raise InputError("at most 7 points supported")
    pos = [b if b > 0 else 0 for b in bs]
    s = sum(pos)
    top = sorted(pos, reverse=True)[:2] + [0, 0]
    T = min(a // 2, s // 3, (s - top[0]) // 2, s - top[0] - top[1])
    if s - a > T:
        normal = _violated_facet(a, bs)
        if normal is None:
            raise InternalError("internal: no decomposition of (%s, %s) inside the cone" % (a, bs))
        c, *ws = normal
        rhs = " + ".join("%sb_%d" % (w if w > 1 else "", i + 1) for i, w in enumerate(ws) if w)
        raise DecompositionError("violated facet: %sa >= %s (%s < %s)"
                                 % (c if c > 1 else "", rhs or "0", c * a, _dot(ws, bs)))
    out: dict[tuple, int] = {}
    starts = [0]  # point i's entries in the list of 3T are starts[i]..starts[i + 1] - 1
    for i, (b, p) in enumerate(zip(bs, pos)):
        u = min(p, T, 3 * T - starts[-1])
        starts.append(starts[-1] + u)
        if p > u:
            out[("line", i)] = p - u
        if b < 0:
            out[("ell_i", i)] = -b
    if T:  # the points at t, t + T and t + 2T change only where a point's entries begin
        cuts = sorted({x % T for x in starts} | {T})
        for t0, t1 in zip(cuts, cuts[1:]):
            out[("conic", bisect_right(starts, t0) - 1, bisect_right(starts, t0 + T) - 1,
                 bisect_right(starts, t0 + 2 * T) - 1)] = t1 - t0
    if a + T > s:
        out[("ell",)] = a + T - s
    return out


def quadric_term_vector(key: tuple, r: int) -> tuple:
    """Coordinates (a, b_1..b_r) of a quadric decomposition term, b as stored."""
    a, bs = 0, [0] * r
    if key[0] == "ell":
        a = 1
    elif key[0] == "ell_i":
        bs[key[1]] = -1
    elif key[0] == "line":
        a, bs[key[1]] = 1, 1
    elif key[0] == "conic":
        a = 2
        for t in key[1:]:
            bs[t] = 1
    else:
        raise InputError("unknown term key %r" % (key,))
    return (a, *bs)


def quadric_cone(r: int) -> ConeSpec:
    """Curve cone of the quadric blown up at r <= 7 points: lines, conics, exceptional lines.

    One generator per term kind of quadric_curve_decompose; a class
    a*l - sum b_i l_i is the vector (a, -b_1, ..., -b_r). The rule: the certificate
    is _violated_facet, else the witness is quadric_curve_decompose.
    """
    if not 0 <= r <= 7:
        raise InputError("r = %d: need r >= 0, and at most 7 points supported" % r)
    keys = [("ell",)] + [("ell_i", i) for i in range(r)] + [("line", i) for i in range(r)] \
        + [("conic", *ijk) for ijk in itertools.combinations(range(r), 3)]

    def rule(member, v):  # v = (a, -b_1, ..., -b_r)
        normal = _violated_facet(v[0], [-x for x in v[1:]])
        return member(v) if normal is None else ("certificate", normal, 1)

    def vector(key):
        a, *bs = quadric_term_vector(key, r)
        return (a, *(-b for b in bs))
    return _paper_cone(("ell",) + tuple("ell_%d" % (i + 1) for i in range(r)), keys,
                       lambda key: key[0] + "".join("_%d" % (i + 1) for i in key[1:]), vector,
                       rule, lambda v: quadric_curve_decompose(v[0], [-x for x in v[1:]]).items())


def resum(terms, vector_of, length: int) -> tuple:
    """Sum of c * vector_of(key) over a decomposition's terms (a dict or (key, c) pairs)."""
    total = [0] * length
    for key, c in dict(terms).items():
        total = [t + c * v for t, v in zip(total, vector_of(key))]
    return tuple(total)


# ---------------------------------------------------------------------------
# three-cycles on G(2,5) blown up at r <= 4 points

def g25_threecycle_decompose(a21: int, a3: int, bs) -> dict[tuple, int]:
    """Decompose a21*s21 + a3*s3 - sum b_i E_i (3-cycles on blown-up G(2,5)).

    Requires everything nonnegative, at most 4 points, and the inequality
    2*a21 + a3 >= sum b_i. The units of b, point i listed b_i times in index
    order, are paired from the front, min(a21, sum b_i // 2) pairs in all: a
    pair inside point i is s21 - 2E_i, a pair across points i < j is
    s21 - E_i - E_j. Each unit left is s3 - E_i; when a3 = 0 the inequality
    leaves at most one, which is s21 - 2E_i + E_i. The rest of a21 and a3 are
    bare s21 and s3.

    Term keys: ("s21-2E", i), ("s21-E-E", i, j), ("s3-E", i),
    ("s21",), ("s3",), ("E", i).
    """
    bs = list(bs)
    if len(bs) > 4:
        raise InputError("at most 4 points supported")
    if a21 < 0 or a3 < 0 or any(b < 0 for b in bs):
        raise DecompositionError("coefficients must be nonnegative")
    if 2 * a21 + a3 < sum(bs):
        raise DecompositionError("violated inequality: 2a_21 + a_3 >= sum b_i (%d < %d)"
                                 % (2 * a21 + a3, sum(bs)))
    out: dict[tuple, int] = {}

    def bump(key, c=1):
        if c > 0:
            out[key] = out.get(key, 0) + c

    pairs = min(a21, sum(bs) // 2)
    left, carry = 2 * pairs, None  # carry: a point whose last paired unit awaits a partner
    for i, b in enumerate(bs):
        paired = min(b, left)
        left -= paired
        spare = b - paired
        if carry is not None and paired:
            bump(("s21-E-E", carry, i))
            carry, paired = None, paired - 1
        bump(("s21-2E", i), paired // 2)
        if paired % 2:
            carry = i
        if spare > a3:  # a3 = 0 and this is the one unit left
            bump(("s21-2E", i))
            bump(("E", i))
            a21 -= 1
        else:
            bump(("s3-E", i), spare)
            a3 -= spare
    bump(("s21",), a21 - pairs)
    bump(("s3",), a3)
    return out


def g25_term_vector(key: tuple, r: int) -> tuple:
    """Coordinates (a21, a3, b_1..b_r) of a g25 decomposition term."""
    a21 = a3 = 0
    bs = [0] * r
    kind = key[0]
    if kind == "s21":
        a21 = 1
    elif kind == "s3":
        a3 = 1
    elif kind == "E":
        bs[key[1]] = -1
    elif kind == "s21-2E":
        a21, bs[key[1]] = 1, 2
    elif kind == "s21-E-E":
        a21 = 1
        bs[key[1]], bs[key[2]] = 1, 1
    elif kind == "s3-E":
        a3, bs[key[1]] = 1, 1
    else:
        raise InputError("unknown term key %r" % (key,))
    return (a21, a3, *bs)


# Generators x coordinates of one sgen_cycle_cone; r = 400 on G(2,4), cycle_dim 1 (321,201)
# takes about 0.3 s to build and query.
SGEN_CAP = 400_000


def sgen_cycle_cone(ctx: GrassCtx, cycle_dim: int, r: int) -> ConeSpec:
    """Span of Schubert classes for dimension-1 or -2 cycles on a blow-up at r points.

    Each generating Schubert cycle passes through one general point, so the
    generators are the lemma42 terms sigma, sigma - E_i and E_i, in that
    order per sigma and with the E_i last. With b Schubert classes there are
    (b + 1) r + b generators of b + r coordinates; more than SGEN_CAP
    entries in all is refused before any is built. The rule is Lemma 4.2:
    e_lam for the first a_lam < 0, else (1, ..., 1, 1_S) with S = {i : b_i > 0}
    when that is negative on the query, else the witness _lemma42_greedy(a, b),
    which gives -b_i times E_i for each b_i < 0.
    """
    if cycle_dim not in (1, 2):
        raise InputError("cycle_dim must be 1 or 2")
    if r < 0:
        raise InputError("need r >= 0 points, got %d" % r)
    sigmas = chow.basis(ctx, ctx.dim - cycle_dim)
    b = len(sigmas)
    if ((b + 1) * r + b) * (b + r) > SGEN_CAP:
        raise InputError("the span cone of %d-cycles on G(%d,%d) at r=%d points has more than %d "
                         "generator entries" % (cycle_dim, ctx.k, ctx.n, r, SGEN_CAP))
    keys = []
    for lam in sigmas:
        keys += [("sigma", lam)] + [("sigma-E", lam, i) for i in range(r)]
    keys += [("E", i) for i in range(r)]

    def rule(member, v):  # v = (a_lam..., -b_1, ..., -b_r)
        for j, x in enumerate(v[:b]):
            if x < 0:
                return "certificate", tuple(int(t == j) for t in range(b + r)), 1
        normal = (1,) * b + tuple(int(c < 0) for c in v[b:])
        return ("certificate", normal, 1) if _dot(normal, v) < 0 else member(v)

    def decompose(v):
        return _lemma42_greedy(dict(zip(sigmas, v)), [-c for c in v[b:]]).items()
    return _paper_cone([_lemma42_label(key) for key in keys if key[0] != "sigma-E"], keys,
                       _lemma42_label, partial(lemma42_term_vector, sigmas, r), rule, decompose)


def blowup_cycle_vector(cls: BlowupClass) -> tuple:
    """(a_lam in basis order, -b_1, ..., -b_r) for membership in sgen_cycle_cone."""
    ctx = cls.bctx.ctx
    sigmas = chow.basis(ctx, cls.codim)
    return tuple(cls.ambient.coefficient(lam) for lam in sigmas) \
        + tuple(-b for b in cls.exc)


# ---------------------------------------------------------------------------
# the r = 3 class on G(2,4) outside the span of the Schubert classes

def g24_sgen_cone(r: int) -> ConeSpec:
    """sgen_cycle_cone for 2-cycles on G(2,4) at r points; basis (s(2), s(1,1), E_1..E_r)."""
    return sgen_cycle_cone(GrassCtx(2, 4), 2, r)


def g24_nonspan_witness():
    """The quadric-surface class s2 + s11 - E_1 - E_2 - E_3 and its certificate.

    Returns (BlowupClass, MembershipResult) with a verified separating
    functional against the r = 3 S-generation generators.
    """
    ctx = GrassCtx(2, 4)
    bctx = BlowupCtx(ctx, 3)
    amb = chow.sigma(ctx, (2,)) + chow.sigma(ctx, (1, 1))
    cls = blow_class(bctx, "dim", 2, amb, (1, 1, 1))
    return cls, cone_membership(g24_sgen_cone(3), blowup_cycle_vector(cls))

