import random
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

from grasseff.errors import InputError
from grasseff.radicals import RadicalNumber


def rad(a, b, c, q=2, qp=3):
    return RadicalNumber(Fraction(a), Fraction(b), Fraction(c), Fraction(q), Fraction(qp))


def test_nonpositive_radicand_rejected():
    with pytest.raises(InputError):
        rad(1, 1, 0, q=0)


@pytest.mark.parametrize("field", ["a", "b", "c", "q", "qp"])
@pytest.mark.parametrize("bad", [0.5, 1.0, True, "1", None, Decimal(1)])
def test_only_exact_inputs_are_admitted(field, bad):
    args = dict(a=Fraction(1), b=2, c=Fraction(-1, 3), q=Fraction(1, 10), qp=5)
    RadicalNumber(**args)
    args[field] = bad
    with pytest.raises(InputError, match=r"RadicalNumber\.%s " % field):
        RadicalNumber(**args)


def test_sign_two_term_cases():
    assert rad(3, -2, 0).sign() == 1       # 3 > 2*sqrt(2)
    assert rad(2, -2, 0).sign() == -1      # 2 < 2*sqrt(2)
    assert rad(3, -2, 0, q=Fraction(9, 4)).sign() == 0
    assert rad(-1, 1, 0).sign() == 1
    assert rad(0, 0, 0).sign() == 0
    assert rad(0, 0, -1).sign() == -1


def test_sign_three_term_cases():
    # sqrt(2) + sqrt(3) vs rationals
    assert rad(-3, 1, 1).sign() == 1   # 3.146... > 3
    assert rad(-4, 1, 1).sign() == -1
    # engineered exact zero: sqrt(9/4) - 3/2 with both radicals active
    z = rad(Fraction(-7, 2), 1, 1, q=Fraction(9, 4), qp=4)
    assert z.sign() == 0 and z.is_zero()


def test_exact_zero_with_square_radicand():
    assert rad(-3, 2, 0, q=Fraction(9, 4)).sign() == 0


def _interval_value(x: RadicalNumber):
    def f(fr):
        return mpmath.iv.mpf(fr.numerator) / mpmath.iv.mpf(fr.denominator)
    return f(x.a) + f(x.b) * mpmath.iv.sqrt(f(x.q)) + f(x.c) * mpmath.iv.sqrt(f(x.qp))


def test_sign_agrees_with_256bit_intervals():
    """10^4 random instances: exact sign vs interval arithmetic at 256 bits.

    The interval is only a cross-check; whenever it straddles zero the exact
    sign must be confirmed by a second engineered route, never by floats.
    """
    rng = random.Random(20260823)
    old = mpmath.iv.prec
    mpmath.iv.prec = 256
    try:
        undecided = 0
        for _ in range(10000):
            a = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
            b = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
            c = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
            q = Fraction(rng.randint(1, 30), rng.randint(1, 10))
            qp = Fraction(rng.randint(1, 30), rng.randint(1, 10))
            x = RadicalNumber(a, b, c, q, qp)
            iv = _interval_value(x)
            s = x.sign()
            if iv > 0:
                assert s == 1, x
            elif iv < 0:
                assert s == -1, x
            else:
                undecided += 1
                # interval straddles zero: confirm by exact squaring of a scaled copy
                assert RadicalNumber(2 * a, 2 * b, 2 * c, q, qp).sign() == s
        assert undecided < 100  # 256 bits should decide essentially everything
    finally:
        mpmath.iv.prec = old


def test_engineered_zeros_against_intervals():
    old = mpmath.iv.prec
    mpmath.iv.prec = 256
    try:
        rng = random.Random(7)
        for _ in range(200):
            p = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            b = Fraction(rng.randint(-9, 9))
            if b == 0:
                b = Fraction(1)
            x = RadicalNumber(-b * p, b, Fraction(0), p * p, Fraction(5))
            assert x.sign() == 0
            assert 0 in _interval_value(x)
    finally:
        mpmath.iv.prec = old


# --- reference: the Fraction case analysis the integer kernel replaced


def reference_sign(a, b, c, q, qp):
    """Exact sign of a + b*sqrt(q) + c*sqrt(qp), decided in Fraction arithmetic."""
    a, b, c, q, qp = (Fraction(x) for x in (a, b, c, q, qp))
    s1 = reference_sign_quadratic(a, b, q)
    if c == 0:
        return s1
    s2 = 1 if c > 0 else -1
    if s1 == 0:
        return s2
    if s1 == s2:
        return s1
    cmp = reference_sign_quadratic(a * a + b * b * q - c * c * qp, 2 * a * b, q)
    if cmp > 0:
        return s1
    if cmp < 0:
        return s2
    return 0


def reference_sign_quadratic(a, b, q):
    if b == 0:
        return 0 if a == 0 else (1 if a > 0 else -1)
    if a == 0:
        return 1 if b > 0 else -1
    sa = 1 if a > 0 else -1
    sb = 1 if b > 0 else -1
    if sa == sb:
        return sa
    diff = a * a - b * b * q
    if diff == 0:
        return 0
    return sa if diff > 0 else sb


def _random_fraction(rng, num, den, zero_share=0.15):
    """Zero with probability zero_share, else a nonzero n/d with |n| <= num, d <= den."""
    if rng.random() < zero_share:
        return Fraction(0)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, num), rng.randint(1, den))


def _random_radicand(rng, num, den):
    return Fraction(rng.randint(1, num), rng.randint(1, den))


def _assert_agrees(a, b, c, q, qp):
    x = RadicalNumber(a, b, c, q, qp)
    assert x.sign() == reference_sign(a, b, c, q, qp), x


@pytest.mark.parametrize("num, den", [(9, 4), (60, 60), (10 ** 12, 10 ** 12), (3, 10 ** 30)])
def test_integer_sign_matches_the_fraction_reference(num, den):
    rng = random.Random(num * 7919 + den)
    for _ in range(1500):
        _assert_agrees(_random_fraction(rng, num, den), _random_fraction(rng, num, den),
                       _random_fraction(rng, num, den), _random_radicand(rng, num, den),
                       _random_radicand(rng, num, den))


def test_integer_sign_matches_the_reference_on_exact_cancellations():
    rng = random.Random(19)
    for _ in range(1500):
        p = _random_radicand(rng, 40, 40)
        b = _random_fraction(rng, 40, 40, zero_share=0)
        # a = -b*p with q = p^2: the first two terms cancel exactly
        c = _random_fraction(rng, 40, 40)
        qp = _random_radicand(rng, 40, 40)
        _assert_agrees(-b * p, b, c, p * p, qp)
        # c^2 * qp = (a + b*sqrt(q))^2 with a + b*sqrt(q) rational: the value is 0 or 2c*sqrt(qp)
        t = _random_fraction(rng, 40, 40, zero_share=0)
        s = _random_radicand(rng, 40, 40)
        a = rng.choice((-1, 1)) * t * s - b * p
        signs = {RadicalNumber(a, b, sc * t, p * p, s * s).sign() for sc in (1, -1)}
        assert signs == {0, 1 if a + b * p > 0 else -1}
        for sc in (1, -1):
            _assert_agrees(a, b, sc * t, p * p, s * s)
        # c^2 * qp equal to the rational part of (a + b*sqrt(q))^2 = a^2 + b^2 q + 2ab sqrt(q):
        # after squaring, only the 2ab sqrt(q) term is left to decide the sign
        q = _random_radicand(rng, 40, 40)
        a2 = _random_fraction(rng, 40, 40, zero_share=0)
        qp2 = a2 * a2 + b * b * q
        for sc in (1, -1):
            _assert_agrees(a2, b, sc, q, qp2)
