"""Multiplicities of Schubert varieties along Schubert cells.

The multiplicity of Sigma_lambda along the open cell of Sigma_mu (mu >= lambda
componentwise) is a signed determinant of binomial coefficients; it is always
a positive integer, and negativity is treated as an internal indexing bug.
"""

from __future__ import annotations

import math

from grasseff.chow import GrassCtx
from grasseff.errors import InputError, InternalError
from grasseff.linalg import det_bareiss
from grasseff.partitions import BoxedPartition


def _binom(t: int, m: int) -> int:
    if m < 0:
        return 0
    return math.comb(t, m) if t >= m else 0


def rz_multiplicity(ctx: GrassCtx, lam: BoxedPartition, mu: BoxedPartition) -> int:
    """Multiplicity of Sigma_lam along the open cell of Sigma_mu.

    With t_i = n - k + i - lam_i and s_i = #{j : mu_j - j < lam_i - i}, the
    value is (-1)^{sum s_i} det( binom(t_i, rho - s_i) ), rows rho = 0..k-1
    down each column i = 1..k.
    """
    k = ctx.k
    if lam.box_k != k or lam.box_w != ctx.w or mu.box_k != k or mu.box_w != ctx.w:
        raise InputError("partitions must live in the %dx%d box" % (k, ctx.w))
    if any(m < l for m, l in zip(mu.parts, lam.parts)):
        raise InputError("cell not contained in variety: mu %s < lambda %s" % (mu, lam))
    t = [ctx.w + i - lam.parts[i - 1] for i in range(1, k + 1)]
    s = [sum(1 for j in range(1, k + 1) if mu.parts[j - 1] - j < lam.parts[i - 1] - i)
         for i in range(1, k + 1)]
    matrix = [[_binom(t[i], rho - s[i]) for i in range(k)] for rho in range(k)]
    value = (-1) ** sum(s) * det_bareiss(matrix)
    if value < 0:
        raise InternalError("internal: negative multiplicity %d for lam=%s mu=%s"
                            % (value, lam, mu))
    return value


def max_point_multiplicity(ctx: GrassCtx, lam: BoxedPartition) -> int:
    """Multiplicity of Sigma_lam at its most singular point (the full-box cell)."""
    full = ctx.point_class_partition()
    return rz_multiplicity(ctx, lam, full)
