import random
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
