"""Multiplicities of Schubert varieties along Schubert cells.

The multiplicity of Sigma_lambda along the open cell of Sigma_mu (mu >= lambda
componentwise) is a signed determinant of binomial coefficients (Rosenthal
and Zelevinsky); it is always a positive integer, and negativity is treated
as an internal indexing bug. The shifts s_i never increase, so the matrix is
block triangular, and its diagonal blocks are read off s alone, in the same
merge that finds s, before any binomial is formed. A block whose columns
share one shift is a binomial Vandermonde matrix, taken by its product
formula (a 1 x 1 block is 1); every other block goes to `det_bareiss`. Every
block is priced before any is worked on, and more than RZ_WORK_CAP
estimated word operations in all are refused, as is a multiplicity of more
than MAX_DIGITS digits, which JSON could not carry.
"""

from __future__ import annotations

from grasseff.chow import GrassCtx
from grasseff.errors import InputError, InternalError
from grasseff.jsonio import MAX_DIGITS
from grasseff.linalg import det_bareiss
from grasseff.partitions import BoxedPartition

# Estimated 64-bit word operations one multiplicity may cost. On a shared 2-core x86
# machine under CPython 3.11, mixed blocks priced near it, such as lambda = 70^70 at the
# full-box cell of G(140,280) (1.1e9), take about 2 s.
RZ_WORK_CAP = 10 ** 9


def _words(bits: int) -> int:
    return bits // 64 + 1


def rz_blocks(ctx: GrassCtx, lam: BoxedPartition, mu: BoxedPartition) -> list:
    """The diagonal blocks of the RZ matrix of (lam, mu), left to right, as (t, s, lo):
    the block's t_i and s_i, and the lo rows above it.

    With t_i = n - k + i - lam_i and s_i = #{j : mu_j - j < lam_i - i}, the
    matrix has the entry binom(t_i, rho - s_i) in row rho = 0..k-1 of column
    i = 1..k, and a structural zero where rho < s_i. Both mu_j - j and
    lam_i - i strictly decrease, so the j with mu_j - j >= lam_i - i are a
    prefix that only grows with i: one merge over the two sequences finds
    every s_i, and s never increases. Index i is in its own prefix exactly
    when mu_i >= lam_i, so the merge also checks that the cell lies in the
    variety, and then s_i <= k - 1 - i. With R rows left, the first m columns
    left are zero above the bottom m rows once the m-th of them has
    s >= R - m. The blocks before take k - R rows and columns, so for the
    m-th column c that is s_c >= k - 1 - c: a block ends at each column with
    s_c = k - 1 - c, lo = s_c rows lie above it, and the rest of the matrix
    is the top lo rows of the columns after it.
    """
    k, w = ctx.k, ctx.w
    if lam.box_k != k or lam.box_w != w or mu.box_k != k or mu.box_w != w:
        raise InputError("partitions must live in the %dx%d box" % (k, w))
    lp, mp = lam.parts, mu.parts
    blocks, t, s, j = [], [], [], 0
    for i in range(k):
        x = lp[i] - i
        while j < k and mp[j] - j >= x:
            j += 1
        if j <= i:
            raise InputError("cell not contained in variety: mu %s < lambda %s" % (mu, lam))
        t.append(w + i + 1 - lp[i])
        s.append(k - j)
        if j == i + 1:
            blocks.append((t, s, k - j))
            t, s = [], []
    return blocks


def rz_work(blocks: list) -> int:
    """Estimated word operations of the blocks' determinants; a 1 x 1 block, whose shift
    is lo, costs none."""
    return sum(bareiss_work(t, s, lo) if s[0] != lo else vandermonde_work(t)
               for t, s, lo in blocks if len(t) > 1)


def bareiss_work(t: list[int], s: list[int], lo: int) -> int:
    """Estimated word operations of building one block and its forward pass.

    Column i of the shifted block (see `_bareiss_block`) holds binom(T, j) for
    T = t_i - t_0 and j <= J = lo + m - 1 - s_i, so its entries sum to at most
    2^beta_i, beta_i = min(T, J bit_length(T) + bit_length(J)), which grows
    with i. By Hadamard's bound, after pivot c each entry of the forward pass,
    a minor on the columns 0..c and one more, has at most B_c + beta_last
    bits, B_c = beta_0 + ... + beta_c. Pivot c updates the m - c nonzero
    columns of the m - 1 - c rows below it, each by two products and an exact
    schoolbook division by the previous pivot, which costs the product of the
    two word counts.
    """
    m, t0 = len(t), t[0]
    beta = []
    for ti, si in zip(t, s):
        spread, top = ti - t0, lo + m - 1 - si
        beta.append(min(spread, top * spread.bit_length() + top.bit_length()))
    last = _words(beta[-1])
    work, bits = m * m * last, 0
    for c in range(m - 1):
        bits += beta[c]
        work += (m - 1 - c) * (m - c) * _words(bits) * (_words(bits) + last)
    return work


def vandermonde_work(t: list[int]) -> int:
    """Estimated word operations of `_vandermonde(t)`.

    Step b multiplies the b factors t_b - t_a, a < b, into P_b, then V by P_b,
    and divides by b!. With t strictly increasing, t_b - t_a <= T - a for
    T = t_b - t_0, so P_b has at most b bit_length(T) bits and the ratio
    P_b / b! is at most binom(T, b) <= 2^min(T, b bit_length(T)): the bits
    that V can grow by.
    """
    work = v_bits = fact_bits = 0
    for b in range(1, len(t)):
        spread = t[b] - t[0]
        p_words = _words(b * spread.bit_length())
        fact_bits += b.bit_length()
        work += (b + _words(v_bits)) * p_words
        v_bits += min(spread, b * spread.bit_length())
        work += _words(fact_bits) * _words(v_bits)
    return work


def _vandermonde(t: list[int]) -> int:
    """det [binom(t_i, j)], j, i < m: prod_{a<b} (t_b - t_a) / prod_{j<m} j!.

    Built one column at a time: the leading b x b determinant V_b is an
    integer, and V_{b+1} = V_b prod_{a<b} (t_b - t_a) / b!, so every division
    is exact and V never exceeds the value times the last P_b.
    """
    value = fact = 1
    for b in range(1, len(t)):
        tb = t[b]
        fact *= b
        p = 1
        for ta in t[:b]:
            p *= tb - ta
        value = value * p // fact
    return value


def _bareiss_block(t: list[int], s: list[int], lo: int) -> list[list[int]]:
    """The block's rows lo..lo+m-1 with t shifted by -t_0: binom(t_i - t_0, rho - s_i),
    0 above row s_i.

    The shift keeps the determinant: by Vandermonde's convolution the shifted
    block is L times the block, with L[rho][r] = binom(-t_0, rho - r) lower
    unitriangular, since every nonzero entry of the block has r >= s_i >= lo.
    Each column comes from binom(t, j+1) = binom(t, j) (t - j) / (j + 1).
    """
    m, t0 = len(t), t[0]
    matrix = [[0] * m for _ in range(m)]
    for i, (ti, si) in enumerate(zip(t, s)):
        ti -= t0
        entry = 1
        for j in range(lo + m - si):
            if j:
                entry = entry * (ti - j + 1) // j
            if j + si >= lo:
                matrix[j + si - lo][i] = entry
    return matrix


def rz_multiplicity(ctx: GrassCtx, lam: BoxedPartition, mu: BoxedPartition) -> int:
    """Multiplicity of Sigma_lam along the open cell of Sigma_mu.

    The value is (-1)^{sum s_i} det( binom(t_i, rho - s_i) ) (Rosenthal and
    Zelevinsky, J. Algebraic Combin. 13 (2001)), the matrix of `rz_blocks`.
    Its determinant is the product of the diagonal blocks', each times
    (-1)^(lo m) for the lo rows above its m rows. A block whose shifts all
    equal lo has the rows binom(t_i, j), j < m, and its signs cancel:
    sum s_i + lo m = 2 lo m. So only a mixed block carries a sign,
    (-1)^(sum (s_i - lo)), and it alone goes to `det_bareiss`.
    """
    blocks = rz_blocks(ctx, lam, mu)
    work = rz_work(blocks)
    if work > RZ_WORK_CAP:
        raise InputError("the multiplicity on G(%d,%d) is priced at %d word operations, "
                         "more than %d" % (ctx.k, ctx.n, work, RZ_WORK_CAP))
    value = 1
    for t, s, lo in blocks:
        if s[0] != lo:
            det = det_bareiss(_bareiss_block(t, s, lo))
            value *= -det if (sum(s) - lo * len(t)) % 2 else det
        elif len(t) > 1:
            value *= _vandermonde(t)
    if value < 0:
        raise InternalError("internal: negative multiplicity %d for lam=%s mu=%s"
                            % (value, lam, mu))
    if value.bit_length() > 3 * MAX_DIGITS and value >= 10 ** MAX_DIGITS:
        raise InputError("the multiplicity on G(%d,%d) has more than %d digits"
                         % (ctx.k, ctx.n, MAX_DIGITS))
    return value


def max_point_multiplicity(ctx: GrassCtx, lam: BoxedPartition) -> int:
    """Multiplicity of Sigma_lam at its most singular point (the full-box cell)."""
    full = ctx.point_class_partition()
    return rz_multiplicity(ctx, lam, full)
