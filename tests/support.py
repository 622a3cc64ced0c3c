"""Shared brute-force oracles, resum shorthands and orbit, Pieri and multiplicity references
for the test suite."""

import itertools
from functools import lru_cache, partial
from math import comb

from grasseff import cones
from grasseff.linalg import det_bareiss


@lru_cache(maxsize=None)
def _search(a: int, pos: tuple) -> bool:
    """Can a*l - sum pos_i l_i be written in lines, conics and exceptional lines?

    Exhaustive search over conic subtractions; a residual with
    sum of positive coefficients <= a is finished off by lines.
    """
    if sum(pos) <= a:
        return True
    if a < 2 or len(pos) < 3:
        return False
    nxt = set()
    r = len(pos)
    for i in range(r):
        for j in range(i + 1, r):
            for k in range(j + 1, r):
                new = list(pos)
                for t in (i, j, k):
                    new[t] = max(new[t] - 1, 0)
                nxt.add(tuple(sorted(new, reverse=True)))
    return any(_search(a - 2, key) for key in nxt)


def lemma41_peel(k: int, a: int, b1: int, b2: int) -> list:
    """Lemma 4.1's induction as written, one peel per unit of a: beta_m with
    m = min(b1 left, k), then what is left of b2 below 0 as e2. Needs a, b1, b2 >= 0
    and k*a >= b1 + b2; (label, count) pairs sorted by label."""
    terms: dict[str, int] = {}
    r1, r2 = b1, b2
    for _ in range(a):
        m = min(r1, k)
        terms["beta_%d" % m] = terms.get("beta_%d" % m, 0) + 1
        r1 -= m
        r2 -= k - m
    assert r1 <= 0 and r2 <= 0
    if r2 < 0:
        terms["e2"] = -r2
    return sorted(terms.items())


def quadric_in_cone(a: int, bs) -> bool:
    """Brute-force membership of a*l - sum b_i l_i in the quadric curve cone."""
    if a < 0:
        return False
    pos = tuple(sorted((max(b, 0) for b in bs), reverse=True))
    return _search(a, pos)


def quadric_facets(r: int) -> set:
    """The five facet forms of the quadric curve cone at r points, written out as normals
    on (a, -b_1, ..., -b_r), with i, j not in S and |S| = m: a >= 0, a >= b_i,
    a >= b_i + b_j, 2a >= 2b_i + sum_S b_j (m = 3..r-1) and 3a >= 2 sum_S b_j (m = 4..r)."""
    def normal(c, weights):
        return (c, *(weights.get(i, 0) for i in range(r)))
    out = {normal(1, dict.fromkeys(s, 1))
           for m in (0, 1, 2) for s in itertools.combinations(range(r), m)}
    for m, i in itertools.product(range(3, r), range(r)):
        out.update(normal(2, {**dict.fromkeys(s, 1), i: 2})
                   for s in itertools.combinations([t for t in range(r) if t != i], m))
    out.update(normal(3, dict.fromkeys(s, 2))
               for m in range(4, r + 1) for s in itertools.combinations(range(r), m))
    return out


def facet_slack(normal, a: int, bs) -> int:
    """c a - sum w_i b_i for the facet c a >= sum w_i b_i: negative when (a, bs) violates it."""
    return normal[0] * a - sum(w * b for w, b in zip(normal[1:], bs))


def quadric_resum(terms, r: int) -> tuple:
    """(a, b_1..b_r) that quadric decomposition terms sum to."""
    return cones.resum(terms, partial(cones.quadric_term_vector, r=r), r + 1)


def g25_resum(terms, r: int) -> tuple:
    """(a21, a3, b_1..b_r) that G(2,5) three-cycle terms sum to."""
    return cones.resum(terms, partial(cones.g25_term_vector, r=r), r + 2)


def lie_positions(k: int, s: int) -> list:
    """Free entries (i, j) of the Lie algebra of the triangular group on F^{2k+s}: two
    triangular k-blocks, full side columns over the last s coordinates, and a triangular
    s-block. The side columns and the s-block have i or j >= 2k, outside every orbit
    representative, which lies in F^{2k}."""
    n = 2 * k + s
    return [(i, j) for i in range(n) for j in range(i, n) if j >= 2 * k or (i < k) == (j < k)]


def fold_degree(k: int, n: int) -> int:
    """Plucker degree of G(k, n) as sigma_1^(k(n-k)), folded one Pieri step at a time.

    Each step is the plain interlacing sum of sigma_1: one box added to any row
    i with nu_i < nu_{i-1} (nu_0 := n - k), so the fold counts the standard
    tableaux of the k x (n-k) rectangle without calling `chow`.
    """
    w = n - k
    cur = {(0,) * k: 1}
    for _ in range(k * w):
        nxt: dict = {}
        for nu, c in cur.items():
            for i in range(k):
                if nu[i] < (w if i == 0 else nu[i - 1]):
                    rho = nu[:i] + (nu[i] + 1,) + nu[i + 1:]
                    nxt[rho] = nxt.get(rho, 0) + c
        cur = nxt
    return cur.get((w,) * k, 0)


def reference_pieri_parts(mu: tuple, w: int, special: int) -> tuple:
    """The interlacing sum of sigma_special * sigma_mu as a recursive generator, in
    lexicographic order: nu_i runs from mu_i up to min(mu_{i-1}, mu_i + remaining), mu_0 := w."""
    k = len(mu)

    def rec(i, remaining):
        if i == k:
            if remaining == 0:
                yield ()
            return
        cap = w if i == 0 else mu[i - 1]
        for nu_i in range(mu[i], min(cap, mu[i] + remaining) + 1):
            for rest in rec(i + 1, remaining - (nu_i - mu[i])):
                yield (nu_i,) + rest

    return tuple(rec(0, special))


def reference_multiplicity(ctx, lam, mu) -> int:
    """Rosenthal-Zelevinsky on the whole k x k matrix, by one forward Bareiss pass.

    t_i = n - k + i - lam_i and s_i = #{j : mu_j - j < lam_i - i}, found by one merge;
    the value is (-1)^{sum s_i} det(binom(t_i, rho - s_i)), 0 where rho < s_i. No price.
    """
    k, w = ctx.k, ctx.w
    lp, mp = lam.parts, mu.parts
    t, s, j = [], [], 0
    for i in range(k):
        x = lp[i] - i
        while j < k and mp[j] - j >= x:
            j += 1
        t.append(w + i + 1 - lp[i])
        s.append(k - j)
    cols = range(k)
    matrix = [[comb(t[i], rho - s[i]) if rho >= s[i] else 0 for i in cols] for rho in cols]
    return (-1) ** sum(s) * det_bareiss(matrix)
