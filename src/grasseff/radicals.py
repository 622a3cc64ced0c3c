"""Exact sign of a + b*sqrt(q) + c*sqrt(q') for rational a, b, c and positive rational q, q'.

A RadicalNumber is a value, not a ring element: one Fano report builds one
per distinct pairing key (see `delpezzo.NullDivisor.pair`), then signs it
once and prints it once. The sign is decided in integers: with q = n1/d1,
q' = n2/d2 and L the product of the denominators of a, b and c, multiplying
by L*d1*d2 > 0 turns the value into A + B*sqrt(n1*d1) + C*sqrt(n2*d2) with
A, B, C ints, and the case analysis compares squares of ints. No floating
point, no Fraction arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from grasseff.errors import InputError

_FIELDS = ("a", "b", "c", "q", "qp")


def is_rational(x) -> bool:
    """An int or a Fraction: the exact values admitted. A bool is an int, but never one."""
    return type(x) is int or isinstance(x, Fraction)


@dataclass(frozen=True)
class RadicalNumber:
    """a + b*sqrt(q) + c*sqrt(qp) for ints or Fractions, q and qp positive."""

    a: Fraction
    b: Fraction
    c: Fraction
    q: Fraction
    qp: Fraction

    def __post_init__(self):
        for name, x in zip(_FIELDS, (self.a, self.b, self.c, self.q, self.qp)):
            if not is_rational(x):
                raise InputError("RadicalNumber.%s must be an int or a Fraction, got %r"
                                 % (name, x))
        if self.q.numerator <= 0 or self.qp.numerator <= 0:
            raise InputError("radicands must be positive")

    def sign(self) -> int:
        """Exact sign of the real number a + b*sqrt(q) + c*sqrt(qp)."""
        a, b, c = self.a, self.b, self.c
        n1, d1 = self.q.numerator, self.q.denominator
        n2, d2 = self.qp.numerator, self.qp.denominator
        da, db, dc = a.denominator, b.denominator, c.denominator
        scale = da * db * dc
        return _sign_two_radicals(a.numerator * (scale // da) * d1 * d2,
                                  b.numerator * (scale // db) * d2, n1 * d1,
                                  c.numerator * (scale // dc) * d1, n2 * d2)

    def is_zero(self) -> bool:
        return self.sign() == 0

    def __repr__(self):
        return "%s + %s*sqrt(%s) + %s*sqrt(%s)" % (self.a, self.b, self.q, self.c, self.qp)


def _sign_two_radicals(a: int, b: int, r1: int, c: int, r2: int) -> int:
    """Exact sign of a + b*sqrt(r1) + c*sqrt(r2) for ints, r1 and r2 positive."""
    s1 = _sign_quadratic(a, b, r1)
    if c == 0:
        return s1
    s2 = 1 if c > 0 else -1
    if s1 == 0 or s1 == s2:
        return s2
    # opposite signs: compare (a + b*sqrt(r1))^2 against c^2 * r2
    cmp = _sign_quadratic(a * a + b * b * r1 - c * c * r2, 2 * a * b, r1)
    if cmp > 0:
        return s1
    if cmp < 0:
        return s2
    return 0


def _sign_quadratic(a: int, b: int, r: int) -> int:
    """Exact sign of a + b*sqrt(r) for ints, r positive."""
    if b == 0:
        return (a > 0) - (a < 0)
    sb = 1 if b > 0 else -1
    if a == 0 or (a > 0) == (b > 0):
        return sb
    diff = a * a - b * b * r
    if diff == 0:
        return 0
    return -sb if diff > 0 else sb
