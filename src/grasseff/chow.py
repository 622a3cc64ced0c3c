"""The Chow ring of G(k, n): Pieri, Giambelli, duality pairing, Plucker degree.

A product sigma_lam * sigma_mu expands the Jacobi-Trudi (Giambelli)
determinant of lam along its last column: each term is one Pieri step on
the product of a minor, a partition with one row fewer, with mu. Those
minor products are entries of the same product memo, so a table of
products reuses its own smaller entries, and since each call removes a
row, the recursion is at most l(lam) + l(mu) deep. Correctness is testable
by Poincare duality. All coefficients are Python ints (arbitrary precision).

Validation happens at the API boundary: `GrassCtx.partition` and the public
`ChowClass(...)` constructor check their partitions, so `sigma` checks its
own once. Inside, products run on plain part tuples, which interlacing keeps
inside the box. The expansion memo, `_expansion`, builds lam's last-column
terms once for every mu. Each product memo entry is a dict whose keys are
boxed once, when the entry is computed, by `partitions.boxed`, the one table
of validated partitions, so they are the basis's own objects. `multiply` of
two one-term classes copies the entry (scaled when a coefficient is not 1),
and a dict copy reuses the stored hashes, so no key is boxed or hashed
again; longer classes sum one-term products. `pieri` boxes the tuples of
the Pieri memo, which builds its fillings row by row. Both, `sigma`, `+`
and `scale` build their result through `_chow_class`, which skips the
per-term checks. The five memos, `_expansion`, `_pieri_parts` and
`_product_parts` here and `boxed` and `_enumerate` in `partitions`, each
hold at most `MEMO_CAP` entries. The Plucker degree is the hook length
formula alone, priced by its digits.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from functools import lru_cache

from grasseff.errors import InputError, InternalError
from grasseff.jsonio import MAX_DIGITS
from grasseff.partitions import MEMO_CAP, BoxedPartition, boxed, enumerate_box, make_partition


@dataclass(frozen=True)
class GrassCtx:
    """The Grassmannian G(k, n) of k-planes in an n-dimensional space."""

    k: int
    n: int

    def __post_init__(self):
        if not (self.n > self.k >= 1):
            raise InputError("need n > k >= 1, got k=%d n=%d" % (self.k, self.n))
        if self.k < 2 or self.w < 2:
            warnings.warn(
                "G(%d,%d) falls outside the standing assumption k >= 2, n-k >= 2"
                % (self.k, self.n),
                stacklevel=2,
            )

    @property
    def w(self) -> int:
        return self.n - self.k

    @property
    def dim(self) -> int:
        return self.k * self.w

    def partition(self, parts) -> BoxedPartition:
        """The partition with these parts (trailing zeros optional), validated once."""
        return make_partition(parts, self.k, self.w)

    def point_class_partition(self) -> BoxedPartition:
        return boxed((self.w,) * self.k, self.k, self.w)


class ChowClass:
    """A homogeneous integer combination of Schubert classes of one codimension."""

    __slots__ = ("ctx", "codim", "coeffs")

    def __init__(self, ctx: GrassCtx, codim: int, coeffs: dict):
        # an empty class keeps any codim: products beyond the box are zero
        for lam in coeffs:
            if lam.size != codim or lam.box_k != ctx.k or lam.box_w != ctx.w:
                raise InputError("partition %s does not live in codim %d of G(%d,%d)"
                                 % (lam, codim, ctx.k, ctx.n))
        self.ctx = ctx
        self.codim = codim
        self.coeffs = {lam: c for lam, c in coeffs.items() if c != 0}

    def __eq__(self, other):
        return (isinstance(other, ChowClass) and self.ctx == other.ctx
                and self.codim == other.codim and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ctx, self.codim, frozenset(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "ChowClass") -> "ChowClass":
        if self.ctx != other.ctx or (self.coeffs and other.coeffs and self.codim != other.codim):
            raise InputError("cannot add classes from different contexts or degrees")
        out = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            out[lam] = out.get(lam, 0) + c
        return _chow_class(self.ctx, self.codim if self.coeffs or not other.coeffs else other.codim,
                           {lam: c for lam, c in out.items() if c != 0})

    def scale(self, c) -> "ChowClass":
        return _chow_class(self.ctx, self.codim,
                           {l: cv for l, v in self.coeffs.items() if (cv := c * v) != 0})

    def coefficient(self, lam: BoxedPartition):
        return self.coeffs.get(lam, 0)

    def terms_sorted(self):
        """Terms in the canonical (reverse-lexicographic) basis order."""
        return sorted(self.coeffs.items(), key=lambda t: tuple(-p for p in t[0].parts))

    def to_json(self) -> dict:
        return {
            "k": self.ctx.k,
            "n": self.ctx.n,
            "codim": self.codim,
            "terms": [{"lambda": lam.to_json(), "c": c} for lam, c in self.terms_sorted()],
        }

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join("%d*s%s" % (c, lam) for lam, c in self.terms_sorted())


def zero(ctx: GrassCtx, codim: int) -> ChowClass:
    return ChowClass(ctx, codim, {})


def unit(ctx: GrassCtx) -> ChowClass:
    return sigma(ctx, ())


def sigma(ctx: GrassCtx, parts) -> ChowClass:
    lam = ctx.partition(parts)
    return _chow_class(ctx, lam.size, {lam: 1})


def _chow_class(ctx: GrassCtx, codim: int, coeffs: dict) -> ChowClass:
    """The ChowClass of a dict from BoxedPartitions to nonzero coefficients, trusted.

    The keys come from `boxed` (the product memo, `pieri`), whose interlacing
    keeps each inside the box with size codim, from `GrassCtx.partition`
    (`sigma`), or from classes of this ctx and codim (`+`, `scale`), so the
    per-term checks of `ChowClass.__init__` are skipped.
    """
    cls = object.__new__(ChowClass)
    cls.ctx, cls.codim, cls.coeffs = ctx, codim, coeffs
    return cls


def pieri(ctx: GrassCtx, special: int, mu: BoxedPartition) -> ChowClass:
    """sigma_special * sigma_mu as the multiplicity-free interlacing sum.

    The sum runs over nu with mu_i <= nu_i <= mu_{i-1} (mu_0 := w) and
    |nu| = special + |mu|. The terms are counted before any is built, and
    more than MEMO_CAP of them are refused.
    """
    if not (0 <= special <= ctx.w):
        raise InputError("need 0 <= special <= w, got special=%d, w=%d" % (special, ctx.w))
    terms = _pieri_count(mu.parts, ctx.w, special)
    if terms > MEMO_CAP:
        raise InputError("sigma_%d * sigma_%s has %d terms, more than %d"
                         % (special, mu, terms, MEMO_CAP))
    k, w = ctx.k, ctx.w
    return _chow_class(ctx, special + mu.size,
                       {boxed(nu, k, w): 1 for nu in _pieri_parts(mu.parts, w, special)})


def _pieri_count(mu: tuple[int, ...], w: int, special: int) -> int:
    """len(_pieri_parts(mu, w, special)), by a DP over the rows in O(k * special).

    Row i takes 0..(mu_{i-1} - mu_i) boxes (mu_0 := w); ways[s] counts the
    fillings of the rows so far that take s boxes in all.
    """
    ways = [1] + [0] * special
    cap = w
    for m in mu:
        width, acc, nxt = cap - m, 0, []
        for s in range(special + 1):
            acc += ways[s]
            if s > width:
                acc -= ways[s - width - 1]
            nxt.append(acc)
        ways, cap = nxt, m
    return ways[special]


@lru_cache(maxsize=MEMO_CAP)
def _pieri_parts(mu: tuple[int, ...], w: int, special: int) -> tuple[tuple[int, ...], ...]:
    """The parts of every nu in sigma_special * sigma_mu: the one Pieri memo.

    These are all nu >= mu interlacing mu with |nu| - |mu| = special, in
    lexicographic order. The partial fillings are extended one row at a
    time. Rows i+1.. can take at most sum_{j>i} (mu_{j-1} - mu_j) =
    mu_i - mu_last more boxes, so row i takes at least rem + mu_last, and
    every kept filling can be completed.
    """
    last = mu[-1]
    fills = [((), special)]
    cap = w  # nu_i <= mu_{i-1}, mu_0 := w
    for m in mu:
        nxt = []
        for head, rem in fills:
            for nu_i in range(max(m, rem + last), min(cap, m + rem) + 1):
                nxt.append((head + (nu_i,), rem - nu_i + m))
        fills, cap = nxt, m
    return tuple(head for head, _ in fills)


def giambelli(lam: BoxedPartition) -> list[tuple[int, tuple[int, ...]]]:
    """Determinant expansion of sigma_lam as signed products of special sizes.

    Entry (i, j) of the l x l matrix, l the number of nonzero parts, is
    sigma_{lam_i + j - i}; entries with index < 0 or > w are the zero class and
    prune the expansion. The rows of the k x k matrix past the nonzero parts
    are zero left of the diagonal, so they can only take their diagonal
    sigma_0 and add nothing. Each monomial is a tuple of special sizes with
    sigma_0 factors dropped.
    """
    parts, w = lam.parts, lam.box_w
    rows = len(parts) - parts.count(0)
    out: list[tuple[int, tuple[int, ...]]] = []

    def expand(row, used_cols, sign, mono):
        if row == rows:
            out.append((sign, tuple(sorted((m for m in mono if m != 0), reverse=True))))
            return
        for j in range(rows):
            if used_cols & (1 << j):
                continue
            entry = parts[row] + j - row
            if entry < 0 or entry > w:
                continue
            # parity of the permutation built column by column
            inversions = bin(used_cols >> (j + 1)).count("1")
            expand(row + 1, used_cols | (1 << j), sign * (-1) ** inversions, mono + (entry,))

    expand(0, 0, 1, ())
    return out


@lru_cache(maxsize=MEMO_CAP)
def _expansion(lam: tuple[int, ...], w: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The expansion memo: (sign, special, minor) per last-column term of
    lam's Jacobi-Trudi determinant (see `_product_parts`) with special <= w."""
    rows = len(lam) - lam.count(0)
    pad = (0,) * (len(lam) - rows + 1)
    return tuple((-1 if (rows - 1 - i) % 2 else 1, lam[i] + rows - 1 - i,
                  lam[:i] + tuple([p - 1 for p in lam[i + 1:rows]]) + pad)
                 for i in range(rows) if lam[i] + rows - 1 - i <= w)


@lru_cache(maxsize=MEMO_CAP)
def _product_parts(lam: tuple[int, ...], mu: tuple[int, ...], w: int) -> dict:
    """sigma_lam * sigma_mu in the len(lam) x w box as a dict from BoxedPartitions to
    nonzero coefficients, each boxed once, here: the product memo. Read only: `multiply`
    hands out copies.

    The Jacobi-Trudi determinant sigma_lam = det(sigma_{lam_i - i + j}),
    l x l for the l nonzero parts of lam, expanded along its last column:
    sigma_lam * sigma_mu = sum_{i=1..l} (-1)^(l-i) sigma_{lam_i + l - i} * (sigma_nu(i) * sigma_mu),
    where the minor nu(i) drops row i and takes 1 from each part below it.
    A term with lam_i + l - i > w vanishes; `_expansion` holds the others.
    Each minor product comes from this memo as (minor, mu), in the order of
    `multiply`: lam has no more nonzero parts than mu, and the minor has
    fewer. The product is zero at once when some lam_i + mu_{k+1-i} > w:
    then lam does not fit in the complement of mu, and the two Schubert
    varieties in opposite position do not meet.
    """
    k = len(lam)
    rows = k - lam.count(0)
    if rows == 0:
        return {boxed(mu, k, w): 1}
    if max(map(operator.add, lam, reversed(mu))) > w:
        return {}
    acc: dict = {}
    for sign, special, minor in _expansion(lam, w):
        for nu, c in _product_parts(minor, mu, w).items():
            c *= sign
            for rho in _pieri_parts(nu.parts, w, special):
                acc[rho] = acc.get(rho, 0) + c
    return {boxed(nu, k, w): c for nu, c in acc.items() if c}


def multiply(a: ChowClass, b: ChowClass) -> ChowClass:
    """Bilinear product; classes exceeding the box vanish.

    Products commute, so each pair of terms goes in one order, fewer nonzero
    parts first: both orders share one memo entry. A product of two one-term
    classes is a copy of that entry, scaled by the two coefficients; its
    terms are nonzero already.
    """
    ctx = a.ctx
    if ctx is not b.ctx and ctx != b.ctx:
        raise InputError("classes live on different Grassmannians")
    codim = a.codim + b.codim
    k, w = ctx.k, ctx.n - ctx.k
    if codim > k * w:
        return zero(ctx, codim)
    if len(a.coeffs) == 1 == len(b.coeffs):
        (lam, c), = a.coeffs.items()
        (mu, d), = b.coeffs.items()
        lam, mu = lam.parts, mu.parts
        if (k - lam.count(0), lam) > (k - mu.count(0), mu):
            lam, mu = mu, lam
        entry = _product_parts(lam, mu, w)
        cd = c * d
        return _chow_class(ctx, codim,
                           entry.copy() if cd == 1 else {nu: cd * e for nu, e in entry.items()})
    acc: dict = {}
    for lam, c in a.coeffs.items():
        for mu, d in b.coeffs.items():
            cd = c * d
            for nu, e in multiply(_chow_class(ctx, a.codim, {lam: 1}),
                                  _chow_class(ctx, b.codim, {mu: 1})).coeffs.items():
                acc[nu] = acc.get(nu, 0) + cd * e
    return _chow_class(ctx, codim, {nu: c for nu, c in acc.items() if c})


def pair(a: ChowClass, b: ChowClass) -> int:
    """Coefficient of the point class in a * b; requires complementary degrees."""
    if a.ctx != b.ctx:
        raise InputError("classes live on different Grassmannians")
    if a.codim + b.codim != a.ctx.dim:
        raise InputError("degree mismatch: %d + %d != %d" % (a.codim, b.codim, a.ctx.dim))
    return multiply(a, b).coefficient(a.ctx.point_class_partition())


def degree(ctx: GrassCtx) -> int:
    """Plucker degree: the standard tableaux of the k x (n-k) rectangle, by the hook formula.

    Taken with k <= n-k by duality, and 1 for k = 1 before any factorial. The
    degree is at most (k(n-k))! / ((n-k)!)^k <= k^(k(n-k)), so a box whose
    bound has more than MAX_DIGITS digits is refused before any work.
    """
    k, w = min(ctx.k, ctx.w), max(ctx.k, ctx.w)
    if k <= 1:
        return 1
    if ctx.dim * math.log10(k) > MAX_DIGITS:
        raise InputError("G(%d,%d): the degree is at most %d^%d, more than %d digits"
                         % (ctx.k, ctx.n, k, ctx.dim, MAX_DIGITS))
    num = math.factorial(ctx.dim) * math.prod(math.factorial(i) for i in range(k))
    den = math.prod(math.factorial(w + i) for i in range(k))
    if num % den != 0:
        raise InternalError("internal: degree formula did not divide evenly")
    return num // den


def basis(ctx: GrassCtx, codim: int) -> list[BoxedPartition]:
    return enumerate_box(ctx.k, ctx.w, codim)
