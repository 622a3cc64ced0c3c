"""Multiplicities of Schubert varieties along Schubert cells.

The multiplicity of Sigma_lambda along the open cell of Sigma_mu (mu >= lambda
componentwise) is a signed determinant of binomial coefficients; it is always
a positive integer, and negativity is treated as an internal indexing bug.
Its work is priced before the determinant is built, and more than
RZ_WORK_CAP estimated word operations are refused.
"""

from __future__ import annotations

from math import comb

from grasseff.chow import GrassCtx
from grasseff.errors import InputError, InternalError
from grasseff.linalg import det_bareiss
from grasseff.partitions import BoxedPartition

# The densest cells (lambda empty, mu the full box) of G(160,320), G(320,640) and
# G(640,1280) price at 1.7e9, 5.3e10 and 1.7e12. On a shared 2-core x86 machine
# under CPython 3.11, each of 100 seeded inputs priced past the cap took over 1.2 s
# by Gauss-Jordan elimination, and G(320,640) takes 4.5 s by the forward pass.
RZ_WORK_CAP = 2 * 10 ** 10


def rz_work(k: int, t_max: int, s_sum: int) -> int:
    """Estimated 64-bit word operations of the forward pass on the RZ matrix.

    At pivot c the k - c - s_c rows rho >= s_c that are not yet pivot rows
    are updated, k entries each. Each entry is a minor of the matrix, whose
    entries binom(t, m) <= min(2^t, t^m), m < k, t <= t_max, have at most b
    bits, so by Hadamard's bound it has at most k (b + bit_length(k)) bits.
    """
    updates = k * (k * (k + 1) // 2 - s_sum)
    b = min(t_max, (k - 1) * t_max.bit_length())
    return updates * (k * (b + k.bit_length()) // 64 + 1)


def rz_multiplicity(ctx: GrassCtx, lam: BoxedPartition, mu: BoxedPartition) -> int:
    """Multiplicity of Sigma_lam along the open cell of Sigma_mu.

    With t_i = n - k + i - lam_i and s_i = #{j : mu_j - j < lam_i - i}, the
    value is (-1)^{sum s_i} det( binom(t_i, rho - s_i) ), rows rho = 0..k-1
    down each column i = 1..k (Rosenthal and Zelevinsky, J. Algebraic
    Combin. 13 (2001)); an entry with rho < s_i is a structural zero, and no
    binomial is formed for it. Both mu_j - j and lam_i - i strictly decrease,
    so the j with mu_j - j >= lam_i - i are a prefix that only grows with i:
    one merge over the two sequences finds every s_i.
    """
    k, w = ctx.k, ctx.w
    if lam.box_k != k or lam.box_w != w or mu.box_k != k or mu.box_w != w:
        raise InputError("partitions must live in the %dx%d box" % (k, w))
    lp, mp = lam.parts, mu.parts
    if any(m < l for m, l in zip(mp, lp)):
        raise InputError("cell not contained in variety: mu %s < lambda %s" % (mu, lam))
    t, s, j = [], [], 0
    for i in range(k):
        x = lp[i] - i
        while j < k and mp[j] - j >= x:
            j += 1
        t.append(w + i + 1 - lp[i])
        s.append(k - j)
    s_sum = sum(s)
    work = rz_work(k, t[-1], s_sum)
    if work > RZ_WORK_CAP:
        raise InputError("the multiplicity on G(%d,%d) is priced at %d word operations, "
                         "more than %d" % (k, ctx.n, work, RZ_WORK_CAP))
    cols = range(k)
    matrix = [[comb(t[i], rho - s[i]) if rho >= s[i] else 0 for i in cols] for rho in cols]
    value = (-1) ** s_sum * det_bareiss(matrix)
    if value < 0:
        raise InternalError("internal: negative multiplicity %d for lam=%s mu=%s"
                            % (value, lam, mu))
    return value


def max_point_multiplicity(ctx: GrassCtx, lam: BoxedPartition) -> int:
    """Multiplicity of Sigma_lam at its most singular point (the full-box cell)."""
    full = ctx.point_class_partition()
    return rz_multiplicity(ctx, lam, full)
