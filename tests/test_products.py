"""Schubert structure constants against two references that share no code with chow's fold.

- A Littlewood-Richardson tableau count (Fulton, Young Tableaux, ch. 5),
  written on plain tuples without grasseff.
- The earlier product path, `reference_product`: Giambelli monomials folded
  one Pieri step at a time over BoxedPartition/ChowClass objects, with no memo.
"""

import warnings
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasseff import chow, partitions
from grasseff.chow import ChowClass, GrassCtx
from grasseff.partitions import BoxedPartition


def make_ctx(k, n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GrassCtx(k, n)


def box(k, w, m, cap=None):
    """Weakly decreasing k-tuples with entries <= w summing to m."""
    cap = w if cap is None else cap
    if k == 0:
        return [()] if m == 0 else []
    return [(first,) + rest for first in range(min(cap, m), -1, -1)
            for rest in box(k - 1, w, m - first, first)]


def _rows(length, room):
    """Letter counts of a weakly increasing row; letter i+1 used at most room[i] times."""
    if not room:
        if length == 0:
            yield ()
        return
    for c in range(min(length, room[0]) + 1):
        for rest in _rows(length - c, room[1:]):
            yield (c,) + rest


def lr_coefficient(lam, mu, nu):
    """Number of LR tableaux of shape nu/lam and content mu.

    A semistandard filling of nu/lam whose word, read right to left along
    each row from the top row down, is a lattice word: every prefix holds at
    least as many i's as (i+1)'s.
    """
    lam = tuple(lam) + (0,) * (len(nu) - len(lam))
    mu = tuple(p for p in mu if p)
    if any(l > v for l, v in zip(lam, nu)) or sum(nu) != sum(lam) + sum(mu):
        return 0

    def fill(r, above, used):
        if r == len(nu):
            return 1
        total = 0
        room = [m - u for m, u in zip(mu, used)]
        for counts in _rows(nu[r] - lam[r], room):
            # the row is read from its largest letter down, before its own i's
            if any(used[i] + counts[i] > used[i - 1] for i in range(1, len(mu))):
                continue
            entries = [i + 1 for i, c in enumerate(counts) for _ in range(c)]
            row = dict(zip(range(lam[r], nu[r]), entries))
            if all(row[col] > above[col] for col in row if col in above):
                total += fill(r + 1, row, [u + c for u, c in zip(used, counts)])
        return total

    return fill(0, {}, [0] * len(mu))


def lr_product(lam, mu, k, w):
    """sigma_lam * sigma_mu on G(k, k + w) as {nu parts: coefficient}."""
    out = {}
    for nu in box(k, w, sum(lam) + sum(mu)):
        c = lr_coefficient(lam, mu, nu)
        if c:
            out[nu] = c
    return out


def as_parts(cls):
    return {nu.parts: c for nu, c in cls.coeffs.items()}


# ---- the earlier fold, kept as a reference


def reference_pieri(ctx, special, mu):
    out = {}

    def rec(i, remaining, prefix):
        if i == ctx.k:
            if remaining == 0:
                nu = BoxedPartition(prefix, ctx.k, ctx.w)
                out[nu] = out.get(nu, 0) + 1
            return
        cap = ctx.w if i == 0 else mu.parts[i - 1]
        for nu_i in range(mu.parts[i], min(cap, mu.parts[i] + remaining) + 1):
            rec(i + 1, remaining - (nu_i - mu.parts[i]), prefix + (nu_i,))

    rec(0, special, ())
    return ChowClass(ctx, special + mu.size, out)


def reference_product(ctx, lam, mu):
    acc = {}
    for sign, mono in chow.giambelli(lam):
        cur = ChowClass(ctx, mu.size, {mu: 1})
        for size in mono:
            nxt = {}
            for nu, c in cur.coeffs.items():
                for rho, d in reference_pieri(ctx, size, nu).coeffs.items():
                    nxt[rho] = nxt.get(rho, 0) + c * d
            cur = ChowClass(ctx, cur.codim + size, nxt)
            if cur.is_zero():
                break
        for nu, c in cur.coeffs.items():
            acc[nu] = acc.get(nu, 0) + sign * c
    return ChowClass(ctx, lam.size + mu.size, acc)


def all_pairs(ctx):
    basis = [lam for m in range(ctx.dim + 1) for lam in chow.basis(ctx, m)]
    return [(lam, mu) for lam in basis for mu in basis if lam.size + mu.size <= ctx.dim]


def test_lr_count_on_known_values():
    # s_{2,1} * s_{2,1} = s_42 + s_411 + s_33 + 2 s_321 + s_3111 + s_222 + s_2211
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((2, 1), (2, 1), (4, 2)) == 1
    assert lr_coefficient((2, 1), (2, 1), (4, 1, 1)) == 1
    assert lr_coefficient((2, 1), (2, 1), (5, 1)) == 0
    assert lr_coefficient((1,), (1,), (1, 1)) == lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((), (2, 2), (2, 2)) == 1


@pytest.mark.parametrize("k,n", [(2, 6), (3, 6), (3, 7)])
def test_every_product_matches_littlewood_richardson(k, n):
    ctx = make_ctx(k, n)
    for lam, mu in all_pairs(ctx):
        got = chow.multiply(chow.sigma(ctx, lam.parts), chow.sigma(ctx, mu.parts))
        assert as_parts(got) == lr_product(lam.parts, mu.parts, k, ctx.w), (lam, mu)


@st.composite
def box_pair(draw):
    k = draw(st.integers(1, 16))
    w = draw(st.integers(1, 16 // k))
    ctx = make_ctx(k, k + w)
    basis = [lam for m in range(ctx.dim + 1) for lam in chow.basis(ctx, m)]
    return ctx, draw(st.sampled_from(basis)), draw(st.sampled_from(basis))


@settings(deadline=None, max_examples=150)
@given(box_pair())
def test_product_matches_the_earlier_fold(case):
    ctx, lam, mu = case
    got = chow.multiply(chow.sigma(ctx, lam.parts), chow.sigma(ctx, mu.parts))
    if lam.size + mu.size > ctx.dim:
        assert got.is_zero()
    else:
        assert got == reference_product(ctx, lam, mu)


def test_pieri_matches_the_earlier_interlacing_sum():
    ctx = make_ctx(3, 7)
    for mu in (lam for m in range(ctx.dim + 1) for lam in chow.basis(ctx, m)):
        for special in range(ctx.w + 1):
            assert chow.pieri(ctx, special, mu) == reference_pieri(ctx, special, mu)


MEMOS = ((chow, ("_expansion", "_pieri_parts", "_product_parts")),
         (partitions, ("boxed", "_enumerate")))


def memos():
    return [getattr(module, name) for module, names in MEMOS for name in names]


def test_every_memo_is_bounded_by_the_one_cap():
    assert chow.MEMO_CAP is partitions.MEMO_CAP
    assert len(memos()) == 5
    assert all(memo.cache_info().maxsize == chow.MEMO_CAP for memo in memos())


def test_products_stay_right_after_the_memos_evict(monkeypatch):
    cap = 7
    for module, names in MEMOS:
        for name in names:
            memo = lru_cache(maxsize=cap)(getattr(module, name).__wrapped__)
            monkeypatch.setattr(module, name, memo)
    monkeypatch.setattr(chow, "boxed", partitions.boxed)
    ctx = make_ctx(3, 6)
    for lam, mu in all_pairs(ctx):
        got = chow.multiply(chow.sigma(ctx, lam.parts), chow.sigma(ctx, mu.parts))
        assert got == reference_product(ctx, lam, mu), (lam, mu)
        assert all(memo.cache_info().currsize <= cap for memo in memos())
    # far more distinct Pieri expansions than the cap: entries were evicted many times
    assert chow._pieri_parts.cache_info().misses > 10 * cap
    # a second pass, in the other order, meets a different set of survivors
    for lam, mu in all_pairs(ctx)[::-1]:
        got = chow.multiply(chow.sigma(ctx, lam.parts), chow.sigma(ctx, mu.parts))
        assert as_parts(got) == lr_product(lam.parts, mu.parts, 3, 3)
    assert chow.degree(ctx) == 42


@pytest.mark.parametrize("k,n", [(3, 6), (4, 8)])
def test_products_commute_and_share_one_memo_entry(k, n):
    ctx = make_ctx(k, n)
    chow._product_parts.cache_clear()
    pairs = all_pairs(ctx)
    for lam, mu in pairs:
        a, b = chow.sigma(ctx, lam.parts), chow.sigma(ctx, mu.parts)
        assert chow.multiply(a, b) == chow.multiply(b, a), (lam, mu)
    unordered = {frozenset((lam, mu)) for lam, mu in pairs}
    assert chow._product_parts.cache_info().currsize == len(unordered)


@pytest.mark.parametrize("k,n", [(3, 6), (4, 8), (3, 9)])
def test_each_expansion_term_sums_back_to_its_class(k, n):
    # Laplace along the last column: sigma_lam = sum sign * sigma_special * sigma_minor,
    # the terms with special > w being zero classes
    ctx = make_ctx(k, n)
    for lam in (lam for m in range(1, ctx.dim + 1) for lam in chow.basis(ctx, m)):
        total = chow.zero(ctx, lam.size)
        for sign, special, minor in chow._expansion(lam.parts, ctx.w):
            total = total + chow.pieri(ctx, special, ctx.partition(minor)).scale(sign)
        assert total == chow.sigma(ctx, lam.parts), lam


def in_order(lam, mu):
    """The one order of a pair in the product memo: fewer nonzero parts first,
    then the smaller tuple."""
    return (len(lam) - lam.count(0), lam) <= (len(mu) - mu.count(0), mu)


def record_products(monkeypatch):
    """A fresh product memo that lists, in order, the pairs it computes."""
    computed, compute = [], chow._product_parts.__wrapped__

    def recording(lam, mu, w):
        computed.append((lam, mu))
        return compute(lam, mu, w)

    monkeypatch.setattr(chow, "_product_parts", lru_cache(maxsize=chow.MEMO_CAP)(recording))
    return computed


def test_product_recurses_only_on_the_operand_with_fewer_rows(monkeypatch):
    computed = record_products(monkeypatch)
    ctx = make_ctx(8, 16)
    big, line = chow.sigma(ctx, (4,) * 8), chow.sigma(ctx, (1,))
    for a, b in ((big, line), (line, big)):
        assert as_parts(chow.multiply(a, b)) == {(5,) + (4,) * 7: 1}
    # sigma_1's one row, then its empty minor; the second order is a memo hit
    assert computed == [((1,) + (0,) * 7, (4,) * 8), ((0,) * 8, (4,) * 8)]
    assert all(in_order(lam, mu) for lam, mu in computed)


def test_a_product_that_does_not_fit_the_complement_stops_at_once(monkeypatch):
    computed = record_products(monkeypatch)
    ctx = make_ctx(4, 8)
    # lam_3 + mu_2 = 2 + 3 > 4: the codimensions fit (14 <= 16), the shapes do not
    got = chow.multiply(chow.sigma(ctx, (2, 2, 2, 2)), chow.sigma(ctx, (3, 3)))
    assert got.is_zero() and lr_product((2, 2, 2, 2), (3, 3), 4, 4) == {}
    assert computed == [((3, 3, 0, 0), (2, 2, 2, 2))]


@pytest.mark.parametrize("k,part", [(7, 3), (8, 4)])
def test_tall_squares_multiply_to_one_term(k, part):
    ctx = make_ctx(k, 3 * k)
    square = chow.sigma(ctx, (part,) * k)
    assert as_parts(chow.multiply(square, square)) == {(2 * part,) * k: 1}


def test_a_many_term_product_matches_littlewood_richardson():
    k, w = 4, 6
    ctx = make_ctx(k, k + w)
    lam = ctx.partition((3, 2, 1))
    got = chow.multiply(chow.sigma(ctx, lam.parts), chow.sigma(ctx, lam.parts))
    assert len(got.coeffs) > 1 and max(got.coeffs.values()) > 1
    assert as_parts(got) == lr_product(lam.parts, lam.parts, k, w)
    assert got == reference_product(ctx, lam, lam)


@pytest.mark.parametrize("k,n", [(3, 6), (4, 8)])
def test_the_product_memo_computes_only_ordered_pairs(monkeypatch, k, n):
    # the recursion passes (minor, mu) without reordering: the minor has fewer
    # nonzero parts than lam, and lam no more than mu, so the pair is in order
    computed = record_products(monkeypatch)
    ctx = make_ctx(k, n)
    for lam, mu in all_pairs(ctx):
        chow.multiply(chow.sigma(ctx, lam.parts), chow.sigma(ctx, mu.parts))
    assert computed and all(in_order(lam, mu) for lam, mu in computed)


def assert_built_as_validated(ctx, got):
    """A result of multiply or pieri is what the checking constructor builds
    from it, with no zero coefficient and every key the one `partitions.boxed` holds."""
    assert got == ChowClass(ctx, got.codim, got.coeffs)
    assert all(c != 0 for c in got.coeffs.values())
    assert all(lam is partitions.boxed(lam.parts, ctx.k, ctx.w) for lam in got.coeffs)


@pytest.mark.parametrize("k,n", [(3, 6), (4, 8)])
def test_products_and_pieri_build_what_the_checking_constructor_builds(k, n):
    ctx = make_ctx(k, n)
    for lam, mu in all_pairs(ctx):
        assert_built_as_validated(
            ctx, chow.multiply(chow.sigma(ctx, lam.parts), chow.sigma(ctx, mu.parts)))
    for mu in (lam for m in range(ctx.dim + 1) for lam in chow.basis(ctx, m)):
        for special in range(ctx.w + 1):
            assert_built_as_validated(ctx, chow.pieri(ctx, special, mu))


@pytest.mark.parametrize("k,n", [(3, 6), (4, 8)])
def test_every_partition_handed_out_is_the_one_the_table_holds(k, n):
    # products and pieri: test_products_and_pieri_build_what_the_checking_constructor_builds
    ctx = make_ctx(k, n)
    basis = [lam for m in range(ctx.dim + 1) for lam in chow.basis(ctx, m)]
    assert all(lam is partitions.boxed(lam.parts, k, ctx.w) for lam in basis)
    held = set(map(id, basis))
    for lam in basis:
        assert ctx.partition(lam.parts) is lam and ctx.partition(lam.trimmed()) is lam
        assert id(partitions.dual(lam)) in held
    assert ctx.point_class_partition() is basis[-1]


def test_a_cancelling_product_drops_its_zero_term():
    ctx = make_ctx(3, 6)
    # sigma_1 * sigma_2 = s3 + s21 and sigma_1 * sigma_11 = s21 + s111
    diff = chow.sigma(ctx, (2,)) + chow.sigma(ctx, (1, 1)).scale(-1)
    got = chow.multiply(chow.sigma(ctx, (1,)), diff)
    assert as_parts(got) == {(3, 0, 0): 1, (1, 1, 1): -1}  # no (2, 1, 0) key
    assert_built_as_validated(ctx, got)
