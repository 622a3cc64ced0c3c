import math
import random
import time
import warnings
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasseff import chow, partitions
from grasseff.chow import GrassCtx
from grasseff.errors import InputError
from grasseff.jsonio import MAX_DIGITS
from grasseff.partitions import dual, enumerate_box

from support import fold_degree, reference_pieri_parts

G24 = GrassCtx(2, 4)
G25 = GrassCtx(2, 5)
G36 = GrassCtx(3, 6)


def all_boxes(max_dim):
    out = []
    for k in range(1, max_dim + 1):
        for w in range(1, max_dim // k + 1):
            out.append((k, w))
    return out


def make_ctx(k, w):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GrassCtx(k, k + w)


def test_ctx_basic():
    assert G24.w == 2 and G24.dim == 4
    assert G36.dim == 9
    with pytest.raises(InputError):
        GrassCtx(3, 3)


def test_pieri_square_of_hyperplane():
    out = chow.pieri(G24, 1, G24.partition((1,)))
    assert out == chow.sigma(G24, (2,)) + chow.sigma(G24, (1, 1))


def test_pieri_respects_box():
    out = chow.pieri(G24, 2, G24.partition((2, 1)))
    assert out.is_zero()


def test_pieri_interlacing_cap():
    # nu_2 is capped by mu_1 = 1, so no horizontal strip of size 2 fits the box
    out = chow.pieri(G24, 2, G24.partition((1, 1)))
    assert out.is_zero()


def test_pieri_count_matches_the_enumeration():
    for k, w in all_boxes(16):
        for m in range(k * w + 1):
            for mu in enumerate_box(k, w, m):
                for special in range(w + 1):
                    assert chow._pieri_count(mu.parts, w, special) \
                        == len(chow._pieri_parts(mu.parts, w, special)), (mu, special)


@pytest.mark.parametrize("k,n", [(3, 7), (4, 8)])
def test_pieri_parts_match_the_recursive_reference_in_order(k, n):
    ctx = GrassCtx(k, n)
    for m in range(ctx.dim + 1):
        for mu in enumerate_box(k, ctx.w, m):
            for special in range(ctx.dim - m + 2):
                got = chow._pieri_parts(mu.parts, ctx.w, special)
                assert got == reference_pieri_parts(mu.parts, ctx.w, special), (mu, special)
                assert len(got) == chow._pieri_count(mu.parts, ctx.w, special)


def test_pieri_refuses_more_than_memo_cap_terms_before_work():
    ctx = GrassCtx(40, 80)
    staircase = ctx.partition(range(40, 0, -1))
    start = time.perf_counter()
    with pytest.raises(InputError, match="68923264410 terms"):
        chow.pieri(ctx, 20, staircase)
    assert time.perf_counter() - start < 1.0


def test_hyperplane_cube_g25():
    s1 = chow.sigma(G25, (1,))
    cube = chow.multiply(chow.multiply(s1, s1), s1)
    assert cube == chow.sigma(G25, (3,)) + chow.sigma(G25, (2, 1)).scale(2)


def test_giambelli_hook():
    # sigma_{2,1} = sigma_2 sigma_1 - sigma_3 as a signed monomial list
    monos = chow.giambelli(G25.partition((2, 1)))
    assert sorted(monos) == [(-1, (3,)), (1, (2, 1))]


def test_multiply_unit_identity():
    for parts in [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]:
        s = chow.sigma(G24, parts)
        assert chow.multiply(s, chow.unit(G24)) == s


def test_pair_known_g24():
    assert chow.pair(chow.sigma(G24, (2,)), chow.sigma(G24, (2,))) == 1
    assert chow.pair(chow.sigma(G24, (1, 1)), chow.sigma(G24, (1, 1))) == 1
    assert chow.pair(chow.sigma(G24, (2,)), chow.sigma(G24, (1, 1))) == 0
    with pytest.raises(InputError):
        chow.pair(chow.sigma(G24, (1,)), chow.sigma(G24, (1,)))


def test_self_dual_codim3_g25():
    # both codimension-3 classes of the 2x3 box are self-dual
    for parts in [(2, 1), (3,)]:
        s = chow.sigma(G25, parts)
        assert chow.pair(s, s) == 1
    assert chow.pair(chow.sigma(G25, (2, 1)), chow.sigma(G25, (3,))) == 0


def test_degree_table():
    assert chow.degree(G24) == 2
    assert chow.degree(G25) == 5
    assert chow.degree(G36) == 42
    # the sigma_1 fold on every G(k, n) with n <= 12 and on a seeded sample of
    # the boxes with at most 32,768 Schubert classes, G(8,16) among them
    boxes = [(k, n) for n in range(2, 13) for k in range(1, n)]
    rng = random.Random(27)
    wide = [(k, n) for n in range(13, 260) for k in range(1, n) if math.comb(n, k) <= 32768]
    boxes += rng.sample(wide, 40) + [(8, 16)]
    for k, n in boxes:
        assert chow.degree(make_ctx(k, n - k)) == fold_degree(k, n), (k, n)


def test_degree_is_priced_by_its_digits():
    assert chow.degree(GrassCtx(8, 16)) == 22081374992701950398847674830857600
    assert chow.degree(GrassCtx(10, 20)) == \
        599868742615440724911356453304513631101279740967209774643120000
    # the largest box the bound admits: 2 * 7142 * log10(2) < MAX_DIGITS
    assert len(str(chow.degree(GrassCtx(2, 7144)))) == 4294
    for k, n in ((2, 10 ** 6), (2, 7145), (10 ** 9 - 5, 10 ** 9), (5 * 10 ** 8, 10 ** 9)):
        started = time.perf_counter()
        with pytest.raises(InputError, match="more than %d digits" % MAX_DIGITS):
            chow.degree(make_ctx(k, n - k))
        assert time.perf_counter() - started < 0.5
    for k, n in ((10 ** 6 - 1, 10 ** 6), (1, 10 ** 9)):
        started = time.perf_counter()
        assert chow.degree(make_ctx(k, n - k)) == 1
        assert time.perf_counter() - started < 0.5


def test_duality_small_boxes():
    for k, w in all_boxes(8):
        ctx = make_ctx(k, w)
        for m in range(ctx.dim + 1):
            for lam in chow.basis(ctx, m):
                for mu in chow.basis(ctx, ctx.dim - m):
                    expected = 1 if mu == dual(lam) else 0
                    assert chow.pair(chow.sigma(ctx, lam.parts),
                                     chow.sigma(ctx, mu.parts)) == expected


def test_product_out_of_box_is_zero():
    top = chow.sigma(G24, (2, 2))
    assert chow.multiply(top, chow.sigma(G24, (1,))).is_zero()


def test_a_term_of_the_wrong_size_is_refused_at_every_codim():
    s2, s22 = G24.partition((2,)), G24.partition((2, 2))
    # codim -1 and 5 lie outside 0..dim: the term is refused there too, not dropped
    for codim, lam in ((-1, s2), (5, s22), (3, s2)):
        with pytest.raises(InputError, match="does not live in codim %d" % codim):
            chow.ChowClass(G24, codim, {lam: 7})
    # an empty class keeps any codim, as a product beyond the box does
    for codim in (-1, 5, 8):
        assert chow.ChowClass(G24, codim, {}).codim == codim
    beyond = chow.multiply(chow.sigma(G24, (2, 2)), chow.sigma(G24, (2, 2)))
    assert beyond.is_zero() and beyond.codim == 8


def test_non_integer_parts_are_refused_on_a_memo_hit():
    assert repr(chow.sigma(G24, (1,))) == "1*s(1)"  # (1,) is now in the table
    assert partitions.boxed((1,), 2, 2) is G24.partition((1,))
    for parts in ((1.5,), (1.0,), (True,), ("1",)):
        for refuse in (partial(chow.sigma, G24), G24.partition,
                       partial(partitions.make_partition, k=2, w=2)):
            with pytest.raises(InputError) as err:
                refuse(parts)
            assert str(err.value) == "partition parts must be integers: %r" % (parts,)


G49 = GrassCtx(4, 9)


@pytest.mark.parametrize("parts,message", [
    ((True,), "partition parts must be integers: (True,)"),
    ((1.0,), "partition parts must be integers: (1.0,)"),
    (("2",), "partition parts must be integers: ('2',)"),
    ("21", "partition parts must be integers: ('2', '1')"),
    ((1, 1, 1, 1, 1), "partition (1, 1, 1, 1, 1) has more than 4 nonzero parts"),
    ((6,), "first part 6 exceeds box width 5"),
    ((1, 2), "parts must be weakly decreasing: (1, 2, 0, 0)"),
])
def test_sigma_keeps_every_refusal(parts, message):
    # twice: a refusal is not cached by the memo of validated partitions
    for _ in range(2):
        with pytest.raises(InputError) as err:
            chow.sigma(G49, parts)
        assert str(err.value) == message


def test_sigma_builds_what_the_checking_constructor_builds():
    for lam in (lam for m in range(G49.dim + 1) for lam in enumerate_box(4, 5, m)):
        got = chow.sigma(G49, lam.parts)
        assert got == chow.ChowClass(G49, lam.size, {G49.partition(lam.parts): 1})
        assert got == chow.sigma(G49, lam.trimmed())


def test_sums_and_multiples_drop_zero_terms_and_keep_their_refusal():
    s2, s11 = chow.sigma(G24, (2,)), chow.sigma(G24, (1, 1))
    both = s2.scale(3) + s11
    for got in (both, both + s2.scale(-3), s2 + s2.scale(-1), both.scale(0),
                both.scale(-2), chow.zero(G24, 2) + s11, s11 + chow.zero(G24, 5)):
        assert got == chow.ChowClass(G24, got.codim, got.coeffs)
        assert all(c != 0 for c in got.coeffs.values())
    assert (both + s2.scale(-3)).coeffs == s11.coeffs
    assert (s2 + s2.scale(-1)).is_zero() and both.scale(0).is_zero()
    assert (chow.zero(G24, 5) + s11).codim == 2
    for other in (chow.sigma(G24, (1,)), chow.sigma(G25, (2,))):
        with pytest.raises(InputError) as err:
            s2 + other
        assert str(err.value) == "cannot add classes from different contexts or degrees"


def test_mismatched_contexts_rejected():
    with pytest.raises(InputError):
        chow.multiply(chow.sigma(G24, (1,)), chow.sigma(G25, (1,)))


parts_2x3 = st.sampled_from([lam.parts for m in range(7) for lam in enumerate_box(2, 3, m)])
parts_3x3 = st.sampled_from([lam.parts for m in range(10) for lam in enumerate_box(3, 3, m)])


@settings(deadline=None, max_examples=60)
@given(parts_2x3, parts_2x3)
def test_product_commutes_2x3(pa, pb):
    a, b = chow.sigma(G25, pa), chow.sigma(G25, pb)
    assert chow.multiply(a, b) == chow.multiply(b, a)


@settings(deadline=None, max_examples=40)
@given(parts_3x3, parts_3x3, parts_3x3)
def test_product_associates_3x3(pa, pb, pc):
    a, b, c = (chow.sigma(G36, p) for p in (pa, pb, pc))
    assert chow.multiply(chow.multiply(a, b), c) == chow.multiply(a, chow.multiply(b, c))


@settings(deadline=None, max_examples=60)
@given(parts_2x3, parts_2x3)
def test_product_coefficients_nonnegative(pa, pb):
    out = chow.multiply(chow.sigma(G25, pa), chow.sigma(G25, pb))
    assert all(c > 0 for c in out.coeffs.values())
    assert all(lam.size == sum(pa) + sum(pb) for lam in out.coeffs)


def test_json_round_trip():
    cls = chow.sigma(G25, (2, 1)).scale(3) + chow.sigma(G25, (3,))
    assert cls.to_json() == {"k": 2, "n": 5, "codim": 3,
                             "terms": [{"lambda": [3], "c": 1}, {"lambda": [2, 1], "c": 3}]}
