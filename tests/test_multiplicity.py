import hashlib
import math
import time
import warnings
from fractions import Fraction
from functools import lru_cache

import pytest

from grasseff import chow, jsonio
from grasseff.chow import GrassCtx
from grasseff.errors import InputError
from grasseff.multiplicity import RZ_WORK_CAP, max_point_multiplicity, rz_blocks, rz_multiplicity, \
    rz_work

from support import reference_multiplicity

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


def test_price_accepts_the_dense_cells_that_answer_in_under_a_second():
    # lambda empty and mu the full box: every s_i is 0 and t runs over w+1..n, one block
    # with the product formula, whose factors are (t_b - t_a) / (b - a) = 1
    for k, n in [(160, 320), (120, 100120), (320, 640), (640, 1280), (60, 10 ** 1000 + 60)]:
        ctx = GrassCtx(k, n)
        blocks = rz_blocks(ctx, ctx.partition(()), ctx.point_class_partition())
        assert [(len(t), s[0], lo) for t, s, lo in blocks] == [(k, 0, 0)]
        assert rz_work(blocks) <= RZ_WORK_CAP
        started = time.perf_counter()
        assert max_point_multiplicity(ctx, ctx.partition(())) == 1
        assert time.perf_counter() - started < 1


def test_price_refuses_the_large_mixed_block_before_any_work():
    # lambda = 100^100 with mu the full box on G(200,400) is one 200 x 200 block whose
    # shifts run 99..0, then 0: the forward pass took over 17 s on it
    ctx = GrassCtx(200, 400)
    lam = ctx.partition((100,) * 100)
    blocks = rz_blocks(ctx, lam, ctx.point_class_partition())
    assert [(len(t), s[0], lo) for t, s, lo in blocks] == [(200, 99, 0)]
    started = time.perf_counter()
    with pytest.raises(InputError, match="more than %d$" % RZ_WORK_CAP):
        max_point_multiplicity(ctx, lam)
    assert time.perf_counter() - started < 1


def test_a_multiplicity_past_the_json_digits_is_refused():
    # a 640 x 640 product-formula block whose value has about 78,000 digits
    ctx = GrassCtx(640, 4480)
    lam = ctx.partition((1920,) * 320)
    assert rz_work(rz_blocks(ctx, lam, ctx.point_class_partition())) <= RZ_WORK_CAP
    with pytest.raises(InputError, match="more than %d digits" % jsonio.MAX_DIGITS):
        max_point_multiplicity(ctx, lam)


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


def _fraction_det(matrix):
    """Determinant by Gaussian elimination over Fraction, independent of linalg."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n, det = len(m), Fraction(1)
    for c in range(n):
        r = next((i for i in range(c, n) if m[i][c]), None)
        if r is None:
            return Fraction(0)
        if r != c:
            m[c], m[r] = m[r], m[c]
            det = -det
        piv = m[c][c]
        det *= piv
        for i in range(c + 1, n):
            f = m[i][c] / piv
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


@lru_cache(maxsize=None)
def _ref_det(t, s):
    k = len(t)
    return _fraction_det([[math.comb(t[i], rho - s[i]) if rho >= s[i] else 0
                           for i in range(k)] for rho in range(k)])


def ref_multiplicity(ctx, lam, mu):
    """Rosenthal-Zelevinsky with s_i counted over all k^2 pairs (i, j)."""
    k, lp, mp = ctx.k, lam.parts, mu.parts
    t = tuple(ctx.w + i - lp[i - 1] for i in range(1, k + 1))
    s = tuple(sum(1 for j in range(1, k + 1) if mp[j - 1] - j < lp[i - 1] - i)
              for i in range(1, k + 1))
    return (-1) ** sum(s) * _ref_det(t, s)


def _comparable_pairs(ctx):
    box = [lam for m in range(ctx.dim + 1) for lam in chow.basis(ctx, m)]
    return [(lam, mu) for lam in box for mu in box
            if all(a <= b for a, b in zip(lam.parts, mu.parts))]


def test_matches_fraction_oracle_on_every_comparable_pair():
    count = 0
    for k, n in [(2, 5), (3, 6), (3, 7), (4, 8), (3, 9), (5, 10)]:
        ctx = GrassCtx(k, n)
        for lam, mu in _comparable_pairs(ctx):
            value = rz_multiplicity(ctx, lam, mu)
            assert value >= 1 and value == ref_multiplicity(ctx, lam, mu), (k, n, lam, mu)
            count += 1
    assert count == 24403


# The sha256 of the canonical JSON list of [lambda, mu, multiplicity] over every
# comparable pair of G(4,8), lambda and then mu in `chow.basis` order, codim by codim.
G48_TABLE_SHA256 = "137b6d37c754c6ab009d20185148f57cd4e4dbdd5764f8fdc6954377e06c92e8"


def test_g48_table_is_pinned():
    ctx = GrassCtx(4, 8)
    table = [[list(lam.parts), list(mu.parts), rz_multiplicity(ctx, lam, mu)]
             for lam, mu in _comparable_pairs(ctx)]
    assert len(table) == 1764
    assert hashlib.sha256(jsonio.canonical_dumps(table).encode()).hexdigest() == G48_TABLE_SHA256


def test_matches_the_whole_matrix_reference_on_every_box_up_to_5_by_5():
    count = 0
    for k in range(1, 6):
        for w in range(1, 6):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ctx = GrassCtx(k, k + w)
            for lam, mu in _comparable_pairs(ctx):
                assert rz_multiplicity(ctx, lam, mu) == reference_multiplicity(ctx, lam, mu), \
                    (k, w, lam, mu)
                count += 1
    assert count == 36088


@pytest.mark.parametrize("k, n, lam, mu, blocks, value", [
    # the smooth point: one 1 x 1 block per column, binom(t, 0) = 1
    (4, 8, (2, 1), (2, 1), [([3, 5, 7, 8], [3, 2, 1, 0], None)], 1),
    # one uniform block: (t_1 - t_0) / 1
    (2, 4, (1,), (2, 2), [([2, 4], [0, 0], 0)], 2),
    # one mixed block, by det_bareiss
    (3, 5, (1,), (2, 2, 1), [([2, 4, 5], [1, 0, 0], 0)], 2),
    # a uniform block with lo m = 3 odd under a 1 x 1 block
    (4, 7, (1,), (3, 3, 3), [([3, 5, 6], [1, 1, 1], 1), ([7], [0], 0)], 3),
    # a mixed block with lo m = 3 odd
    (4, 6, (1,), (2, 2, 1), [([2, 4, 5], [2, 1, 1], 1), ([6], [0], 0)], 2),
], ids=["1x1", "uniform", "mixed", "uniform-odd-sign", "mixed-odd-sign"])
def test_constructed_blocks(k, n, lam, mu, blocks, value):
    ctx = GrassCtx(k, n)
    lam, mu = ctx.partition(lam), ctx.partition(mu)
    got = rz_blocks(ctx, lam, mu)
    if blocks[0][2] is None:  # the 1 x 1 chain: block i is column i with lo = k - 1 - i
        t, s, _ = blocks[0]
        blocks = [([t[i]], [s[i]], k - 1 - i) for i in range(k)]
    assert got == [(t, s, lo) for t, s, lo in blocks]
    assert rz_multiplicity(ctx, lam, mu) == reference_multiplicity(ctx, lam, mu) == value
