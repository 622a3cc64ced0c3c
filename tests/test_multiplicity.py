import warnings

import pytest

from grasseff import chow
from grasseff.chow import GrassCtx
from grasseff.errors import InputError
from grasseff.multiplicity import max_point_multiplicity, rz_multiplicity

G25 = GrassCtx(2, 5)


def test_smooth_point_multiplicity_one():
    for parts in [(), (1,), (2, 1), (3, 2)]:
        lam = G25.partition(parts)
        assert rz_multiplicity(G25, lam, lam) == 1


def test_known_values():
    g24 = GrassCtx(2, 4)
    assert rz_multiplicity(g24, g24.partition((1,)), g24.partition((2, 2))) == 2
    assert rz_multiplicity(G25, G25.partition((2, 1)), G25.partition((3, 3))) == 2


def test_max_point_hyperplane_class():
    for k in range(2, 6):
        ctx = GrassCtx(k, 2 * k)
        assert max_point_multiplicity(ctx, ctx.partition((1,))) == k


def test_cell_not_contained_rejected():
    with pytest.raises(InputError):
        rz_multiplicity(G25, G25.partition((2, 1)), G25.partition((1, 1)))


def test_all_values_positive_small_boxes():
    for k, n in [(2, 4), (2, 5), (3, 6)]:
        ctx = GrassCtx(k, n)
        for m in range(ctx.dim + 1):
            for lam in chow.basis(ctx, m):
                for mm in range(m, ctx.dim + 1):
                    for mu in chow.basis(ctx, mm):
                        if all(a >= b for a, b in zip(mu.parts, lam.parts)):
                            assert rz_multiplicity(ctx, lam, mu) >= 1


def test_monotonicity_measured_not_assumed():
    """Report how often deepening the cell by one box increases the multiplicity.

    Monotonicity is not an invariant the code promises; this measures it on
    G(2,5) and only asserts that no step drops the value below 1.
    """
    steps = increases = 0
    for m in range(G25.dim + 1):
        for lam in chow.basis(G25, m):
            for mm in range(m, G25.dim):
                for mu in chow.basis(G25, mm):
                    if any(a < b for a, b in zip(mu.parts, lam.parts)):
                        continue
                    base = rz_multiplicity(G25, lam, mu)
                    for nu in chow.basis(G25, mm + 1):
                        if all(a >= b for a, b in zip(nu.parts, mu.parts)):
                            steps += 1
                            nxt = rz_multiplicity(G25, lam, nu)
                            assert nxt >= 1
                            if nxt > base:
                                increases += 1
    print("multiplicity steps on G(2,5): %d, strictly increasing: %d" % (steps, increases))
    assert steps > 0


def test_rz_one_exhaustive_boxes_up_to_12():
    for k in range(1, 13):
        for w in range(1, 12 // k + 1):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ctx = GrassCtx(k, k + w)
            for m in range(ctx.dim + 1):
                for lam in chow.basis(ctx, m):
                    assert rz_multiplicity(ctx, lam, lam) == 1
