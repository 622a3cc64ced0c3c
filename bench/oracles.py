"""Independent answers for the benchmark's correctness checks.

Nothing here imports grasseff or the repository's tests: each function
recomputes, from the mathematics alone, what a grasseff answer must be, so
that a fault in grasseff cannot hide by agreeing with itself.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from functools import lru_cache


# ---------------------------------------------------------------------------
# cones: generator lists, witnesses and certificates

def thm44_generators(k: int) -> list[tuple[int, ...]]:
    """E1, E2 and H - m E1 - (k - m) E2 in the basis (H, E1, E2)."""
    return [(0, 1, 0), (0, 0, 1)] + [(1, -m, -(k - m)) for m in range(k + 1)]


def lemma41_vector(k: int, label: str) -> tuple[int, int, int]:
    if label == "e0":
        return (1, 0, 0)
    if label == "e1":
        return (0, 1, 0)
    if label == "e2":
        return (0, 0, 1)
    m = int(label[len("beta_"):])
    return (1, -m, -(k - m))


def quadric_generators(r: int) -> list[tuple[int, ...]]:
    """Lines, exceptional lines, lines through a point and conics through three,
    as (a, -b_1, ..., -b_r) for the class a*l - sum b_i l_i."""
    def vec(a, minus):
        v = [a] + [0] * r
        for i, x in minus:
            v[1 + i] = x
        return tuple(v)

    gens = [vec(1, [])]
    gens += [vec(0, [(i, 1)]) for i in range(r)]
    gens += [vec(1, [(i, -1)]) for i in range(r)]
    gens += [vec(2, [(i, -1), (j, -1), (t, -1)])
             for i, j, t in itertools.combinations(range(r), 3)]
    return gens


def sgen_generators(n_sigma: int, r: int) -> list[tuple[int, ...]]:
    """sigma, sigma - E_i and E_i as (a_sigma..., -b_1, ..., -b_r)."""
    dim = n_sigma + r
    gens = []
    for s in range(n_sigma):
        base = [0] * dim
        base[s] = 1
        gens.append(tuple(base))
        for i in range(r):
            v = list(base)
            v[n_sigma + i] = -1
            gens.append(tuple(v))
    for i in range(r):
        v = [0] * dim
        v[n_sigma + i] = 1
        gens.append(tuple(v))
    return gens


def sgen_in_span(a: list[int], b: list[int]) -> bool:
    """Closed form of membership in the span of sigma, sigma - E_i, E_i."""
    return all(x >= 0 for x in a) and sum(a) >= sum(max(x, 0) for x in b)


def dot(u, v) -> Fraction:
    return sum((Fraction(x) * y for x, y in zip(u, v)), Fraction(0))


def witness_problem(gens, target, witness) -> str | None:
    """None when witness >= 0 and sum witness_i gens_i == target."""
    if len(witness) != len(gens):
        return "witness has %d entries for %d generators" % (len(witness), len(gens))
    if any(x < 0 for x in witness):
        return "witness has a negative entry"
    total = [Fraction(0)] * len(target)
    for x, g in zip(witness, gens):
        for i, gi in enumerate(g):
            total[i] += x * gi
    if tuple(total) != tuple(Fraction(t) for t in target):
        return "witness does not substitute back to the target"
    return None


def certificate_problem(gens, target, phi) -> str | None:
    """None when phi >= 0 on every generator and phi < 0 on the target."""
    if len(phi) != len(target):
        return "certificate has the wrong length"
    if any(dot(phi, g) < 0 for g in gens):
        return "certificate is negative on a generator"
    if dot(phi, target) >= 0:
        return "certificate does not separate the target"
    return None


def membership_problem(gens, target, member, witness, certificate, expected) -> str | None:
    """Check one membership answer against the expected verdict and own generators."""
    if member != expected:
        return "verdict %s, expected %s" % (member, expected)
    if member:
        return witness_problem(gens, target, witness)
    return certificate_problem(gens, target, certificate)


@lru_cache(maxsize=None)
def _conic_search(a: int, pos: tuple) -> bool:
    if sum(pos) <= a:
        return True
    if a < 2 or sum(1 for p in pos if p > 0) < 3:
        return False
    options = set()
    for trio in itertools.combinations(range(len(pos)), 3):
        new = list(pos)
        for t in trio:
            new[t] = max(new[t] - 1, 0)
        options.add(tuple(sorted(new, reverse=True)))
    return any(_conic_search(a - 2, o) for o in options)


def quadric_in_cone(a: int, bs) -> bool:
    """a*l - sum b_i l_i is in the quadric curve cone: exhaustive conic subtraction,
    the residual finished by lines and exceptional lines."""
    if a < 0:
        return False
    return _conic_search(a, tuple(sorted((max(b, 0) for b in bs), reverse=True)))


def quadric_term_vector(key: tuple, r: int) -> tuple[int, ...]:
    """(a, b_1..b_r) of a quadric decomposition term."""
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
        raise ValueError("unknown quadric term %r" % (key,))
    return (a, *bs)


def g25_term_vector(key: tuple, r: int) -> tuple[int, ...]:
    """(a21, a3, b_1..b_r) of a G(2,5) three-cycle decomposition term."""
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
        bs[key[1]] += 1
        bs[key[2]] += 1
    elif kind == "s3-E":
        a3, bs[key[1]] = 1, 1
    else:
        raise ValueError("unknown three-cycle term %r" % (key,))
    return (a21, a3, *bs)


def resum(terms, vector_of, length: int) -> tuple | None:
    """Sum c * vector_of(key) over terms; None when a coefficient is not positive."""
    total = [0] * length
    for key, c in terms:
        if c <= 0:
            return None
        total = [t + c * v for t, v in zip(total, vector_of(key))]
    return tuple(total)


# ---------------------------------------------------------------------------
# Schubert calculus

def dual(parts: tuple[int, ...], w: int) -> tuple[int, ...]:
    return tuple(w - p for p in reversed(parts))


def monk(parts: tuple[int, ...], w: int) -> dict:
    """sigma_1 * sigma_parts: add one box in every row where the result stays a partition."""
    out = {}
    for i, p in enumerate(parts):
        cap = w if i == 0 else parts[i - 1]
        if p < cap:
            out[parts[:i] + (p + 1,) + parts[i + 1:]] = 1
    return out


def hook_degree(k: int, w: int) -> int:
    """Plucker degree of G(k, k + w): standard tableaux of the k x w rectangle."""
    hooks = 1
    for i in range(k):
        for j in range(w):
            hooks *= (k - i) + (w - j) - 1
    return math.factorial(k * w) // hooks


def add_into(acc: dict, terms: dict, c: int = 1) -> None:
    for key, v in terms.items():
        acc[key] = acc.get(key, 0) + c * v


def nonzero(terms: dict) -> dict:
    return {key: v for key, v in terms.items() if v != 0}


# ---------------------------------------------------------------------------
# orbits

MODULUS = (1 << 61) - 1


def incidence(pairs, k: int) -> tuple:
    """entry(i, j) = number of pairs (a, b) with a <= i and b <= j."""
    return tuple(tuple(sum(1 for a, b in pairs if a <= i and b <= j) for j in range(k + 1))
                 for i in range(k + 1))


def rank_mod(rows, p: int = MODULUS) -> int:
    """Rank of an integer matrix modulo the prime p."""
    m = [[x % p for x in row] for row in rows if any(row)]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def orbit_dimension(pairs, k: int) -> int:
    """Dimension of the orbit of span{f_i + g_j : (i, j) in pairs} in G(d, 2k).

    The Lie algebra of the group of pairs of upper-triangular k x k blocks
    maps X to (X v mod W)_v; the orbit dimension is the rank of that map.
    Each v has at most two coordinates and no two share one, so v mod W is
    taken against the complement of each v's first coordinate.
    """
    n = 2 * k
    vecs = []
    for i, j in pairs:
        support = ([i - 1] if i > 0 else []) + ([k + j - 1] if j > 0 else [])
        vecs.append(support)
    reduce = {}
    for support in vecs:
        pivot = support[0]
        reduce[pivot] = [(c, -1) for c in support[1:]]

    def unit_mod_w(c):
        return reduce.get(c, [(c, 1)])

    positions = [(i, j) for i in range(k) for j in range(i, k)]
    positions += [(k + i, k + j) for i in range(k) for j in range(i, k)]
    rows = []
    for a, b in positions:
        row = [0] * (n * len(vecs))
        for p, support in enumerate(vecs):
            if b in support:
                for c, v in unit_mod_w(a):
                    row[p * n + c] += v
        rows.append(row)
    return rank_mod(rows)


def combinatorial_orbit_count(k: int, d: int) -> int:
    """Number of distinct incidence matrices of d pairs with no f or g index reused."""
    cells = [(i, j) for i in range(k + 1) for j in range(k + 1) if (i, j) != (0, 0)]
    seen = set()
    for combo in itertools.combinations(cells, d):
        fs = [i for i, _ in combo if i]
        gs = [j for _, j in combo if j]
        if len(set(fs)) == len(fs) and len(set(gs)) == len(gs):
            seen.add(incidence(combo, k))
    return len(seen)


def gaussian_binomial(n: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


# ---------------------------------------------------------------------------
# two-radical signs, re-checked with 256-bit interval bounds

BITS = 256
_RADICAL = re.compile(r"^(\S+) \+ (\S+)\*sqrt\((\S+)\) \+ (\S+)\*sqrt\((\S+)\)$")
_FRACTION = re.compile(r"^Fraction\((-?\d+), (\d+)\)$")


def parse_value(text: str) -> tuple:
    """(a, b, q, c, qp) with value a + b*sqrt(q) + c*sqrt(qp), from a report's value repr."""
    m = _RADICAL.match(text)
    if m:
        a, b, q, c, qp = (Fraction(x) for x in m.groups())
        return (a, b, q, c, qp)
    m = _FRACTION.match(text)
    if m:
        return (Fraction(int(m.group(1)), int(m.group(2))), Fraction(0), Fraction(1),
                Fraction(0), Fraction(1))
    return (Fraction(text), Fraction(0), Fraction(1), Fraction(0), Fraction(1))


def _sqrt_interval(x: Fraction) -> tuple[Fraction, Fraction]:
    """Rational bounds lo <= sqrt(x) <= hi, 2^-256 / denominator apart."""
    scaled = math.isqrt(x.numerator * x.denominator << (2 * BITS))
    den = x.denominator << BITS
    return Fraction(scaled, den), Fraction(scaled + 1, den)


def interval(value: tuple) -> tuple[Fraction, Fraction]:
    """Bounds on a + b*sqrt(q) + c*sqrt(qp)."""
    a, b, q, c, qp = value
    lo = hi = a
    for coeff, rad in ((b, q), (c, qp)):
        if coeff == 0:
            continue
        r_lo, r_hi = _sqrt_interval(rad)
        ends = (coeff * r_lo, coeff * r_hi)
        lo += min(ends)
        hi += max(ends)
    return lo, hi


def sign_problem(relation: str, value: tuple) -> str | None:
    """None when the numeric value is consistent with relation ('== 0', '> 0' or '>= 0')."""
    lo, hi = interval(value)
    if relation == "== 0":
        ok = lo <= 0 <= hi
    elif relation == "> 0":
        ok = lo > 0
    elif relation == ">= 0":
        ok = hi >= 0
    else:
        return "unknown relation %r" % relation
    return None if ok else "value in [%s, %s] does not satisfy %s" % (
        float(lo), float(hi), relation)


def fano_interval(N: int) -> tuple[Fraction, Fraction]:
    """Open interval of admissible q: (8 - N) / (9 (9 - N)) < q < 1/9."""
    return Fraction(8 - N, 9 * (9 - N)), Fraction(1, 9)


def fano_qprime(N: int, q: Fraction) -> Fraction:
    return (9 - N) * (Fraction(1, 9) - q)
