"""Numerical cycle groups on the blow-up of G(k, n) at r points.

A codimension-m class is written sum a_lam sigma_lam - sum b_i E_i^[m]; a
dimension-m class is the same shape against the dual Schubert basis and the
linear cycles E_{i,[m]}. The exc field always stores the b_i of that sign
convention, so E_i itself has exc entry -1.

The pairing normalization is fixed so the displayed identities
(a*l - sum b_i l_i) . (H - sum E_i) = a - sum b_i and
(H - sum E_i)^2 . beta = a_2 + a_{1,1} - sum b_i hold verbatim; it follows
from E_i^{k(n-k)} = (-1)^{k(n-k)+1} for the top self-intersection.
"""

from __future__ import annotations

from dataclasses import dataclass

from grasseff import chow
from grasseff.chow import ChowClass, GrassCtx
from grasseff.errors import InputError


@dataclass(frozen=True)
class BlowupCtx:
    """G(k, n) blown up at r anonymous points."""

    ctx: GrassCtx
    r: int

    def __post_init__(self):
        if self.r < 0:
            raise InputError("r must be nonnegative")


@dataclass(frozen=True)
class BlowupClass:
    """ambient - sum_i exc[i] * (exceptional linear cycle of the right grading)."""

    bctx: BlowupCtx
    grading: str  # "dim" or "codim"
    m: int
    ambient: ChowClass
    exc: tuple

    def __post_init__(self):
        if self.grading not in ("dim", "codim"):
            raise InputError("grading must be 'dim' or 'codim'")
        if len(self.exc) != self.bctx.r:
            raise InputError("expected %d exceptional coefficients" % self.bctx.r)
        expected_codim = self.m if self.grading == "codim" else self.bctx.ctx.dim - self.m
        if not self.ambient.is_zero() and self.ambient.codim != expected_codim:
            raise InputError("ambient codim %d does not match grading (%s, m=%d)"
                             % (self.ambient.codim, self.grading, self.m))

    @property
    def codim(self) -> int:
        return self.m if self.grading == "codim" else self.bctx.ctx.dim - self.m

    def add(self, other: "BlowupClass") -> "BlowupClass":
        if self.bctx != other.bctx or self.grading != other.grading or self.m != other.m:
            raise InputError("cannot add classes of different gradings")
        return BlowupClass(self.bctx, self.grading, self.m,
                           self.ambient + other.ambient,
                           tuple(x + y for x, y in zip(self.exc, other.exc)))

    def scale(self, c) -> "BlowupClass":
        return BlowupClass(self.bctx, self.grading, self.m,
                           self.ambient.scale(c), tuple(c * x for x in self.exc))

    def to_json(self) -> dict:
        data = self.ambient.to_json()
        data["r"] = self.bctx.r
        data["grading"] = self.grading
        data["m"] = self.m
        data["exc"] = list(self.exc)
        return data


def blow_class(bctx: BlowupCtx, grading: str, m: int, ambient: ChowClass, exc) -> BlowupClass:
    return BlowupClass(bctx, grading, m, ambient, tuple(exc))


def exceptional(bctx: BlowupCtx, grading: str, m: int, i: int, coeff=1) -> BlowupClass:
    """coeff * (linear exceptional cycle at point i): exc entry is -coeff."""
    codim = m if grading == "codim" else bctx.ctx.dim - m
    exc = [0] * bctx.r
    exc[i] = -coeff
    return BlowupClass(bctx, grading, m, chow.zero(bctx.ctx, codim), tuple(exc))


def pair_blowup(a: BlowupClass, b: BlowupClass) -> int:
    """Intersection number of a dimension-m class with a codimension-m class."""
    if a.bctx != b.bctx:
        raise InputError("classes live on different blow-ups")
    if {a.grading, b.grading} != {"dim", "codim"}:
        raise InputError("need one dimension-graded and one codimension-graded class")
    if a.m != b.m:
        raise InputError("grading mismatch: m=%d vs m=%d" % (a.m, b.m))
    ambient = chow.pair(a.ambient, b.ambient)
    return ambient - sum(x * y for x, y in zip(a.exc, b.exc))


def divisor_power_pair(D: BlowupClass, p: int, beta: BlowupClass) -> int:
    """(D^p) . beta for a divisor D = a*H - sum c_i E_i and beta of dimension p.

    Mixed H.E_i and E_i.E_j terms vanish, so D^p = a^p H^p + sum (-c_i)^p E_i^p;
    the exceptional top powers contribute -c_i^p b_i with the fixed sign.
    """
    if D.bctx != beta.bctx:
        raise InputError("classes live on different blow-ups")
    if D.grading != "codim" or D.m != 1:
        raise InputError("D must be a codimension-1 class")
    if beta.grading != "dim" or beta.m != p:
        raise InputError("beta must have dimension %d" % p)
    ctx = D.bctx.ctx
    sigma1 = ctx.partition((1,))
    extra = {lam for lam in D.ambient.coeffs if lam != sigma1}
    if extra:
        raise InputError("D must be supported on H alone")
    a = D.ambient.coefficient(sigma1)
    hp = chow.unit(ctx)
    for _ in range(p):
        hp = chow.multiply(hp, chow.sigma(ctx, (1,)))
    ambient_part = a ** p * chow.pair(hp, beta.ambient)
    exc_part = sum(c ** p * b for c, b in zip(D.exc, beta.exc))
    return ambient_part - exc_part


def effective_representation_check(c: BlowupClass) -> str:
    """Classify the sign pattern an irreducible effective class must satisfy.

    'exceptional-supported': a positive multiple of a single exceptional cycle.
    'standard-form': sum a_lam sigma_lam - sum b_i E_i with a_lam, b_i >= 0.
    'indeterminate': neither pattern.
    """
    negatives = [x for x in c.exc if x < 0]
    if c.ambient.is_zero():
        if len(negatives) == 1 and sum(1 for x in c.exc if x != 0) == 1:
            return "exceptional-supported"
    if all(v >= 0 for v in c.ambient.coeffs.values()) and all(x >= 0 for x in c.exc):
        return "standard-form"
    return "indeterminate"
