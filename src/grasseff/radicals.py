"""Exact sign of a + b*sqrt(q) + c*sqrt(q') for rational a, b, c and positive rational q, q'.

A RadicalNumber is a value, not a ring element: the Fano checks build one per
pairing from integer sums (see `delpezzo.NullDivisor.pair`) and ask for its
sign. Signs are decided exactly by case analysis and squaring; no floating
point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from grasseff.errors import InputError


@dataclass(frozen=True)
class RadicalNumber:
    """a + b*sqrt(q) + c*sqrt(qp) for ints or Fractions, q and qp positive."""

    a: Fraction
    b: Fraction
    c: Fraction
    q: Fraction
    qp: Fraction

    def __post_init__(self):
        if self.q <= 0 or self.qp <= 0:
            raise InputError("radicands must be positive")

    def sign(self) -> int:
        """Exact sign of the real number a + b*sqrt(q) + c*sqrt(qp)."""
        s1 = _sign_quadratic(self.a, self.b, self.q)
        if self.c == 0:
            return s1
        s2 = 1 if self.c > 0 else -1
        if s1 == 0:
            return s2
        if s1 == s2:
            return s1
        # opposite signs: compare (a + b*sqrt(q))^2 against c^2 * qp
        big_a = self.a * self.a + self.b * self.b * self.q - self.c * self.c * self.qp
        big_b = 2 * self.a * self.b
        cmp = _sign_quadratic(big_a, big_b, self.q)
        if cmp > 0:
            return s1
        if cmp < 0:
            return s2
        return 0

    def is_zero(self) -> bool:
        return self.sign() == 0

    def __repr__(self):
        return "%s + %s*sqrt(%s) + %s*sqrt(%s)" % (self.a, self.b, self.q, self.c, self.qp)


def _sign_quadratic(a: Fraction, b: Fraction, q: Fraction) -> int:
    """Exact sign of a + b*sqrt(q)."""
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
