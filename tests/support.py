"""Shared brute-force oracles and resum shorthands for the test suite."""

from functools import lru_cache, partial

from grasseff import cones


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


def quadric_in_cone(a: int, bs) -> bool:
    """Brute-force membership of a*l - sum b_i l_i in the quadric curve cone."""
    if a < 0:
        return False
    pos = tuple(sorted((max(b, 0) for b in bs), reverse=True))
    return _search(a, pos)


def quadric_resum(terms, r: int) -> tuple:
    """(a, b_1..b_r) that quadric decomposition terms sum to."""
    return cones.resum(terms, partial(cones.quadric_term_vector, r=r), r + 1)


def g25_resum(terms, r: int) -> tuple:
    """(a21, a3, b_1..b_r) that G(2,5) three-cycle terms sum to."""
    return cones.resum(terms, partial(cones.g25_term_vector, r=r), r + 2)
