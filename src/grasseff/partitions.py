"""Partitions confined to a k x w box.

These index the Schubert classes sigma_lambda on G(k, n) with w = n - k.
Parts are stored with explicit trailing zeros (fixed length k); rendering
trims them. `boxed` is the one table of validated partitions, from which
every BoxedPartition comes. The five memos, `boxed` and `_enumerate` here
and three in `chow`, are each capped at `MEMO_CAP`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from grasseff.errors import InputError

# Entries each memo of the package may hold; past it, the least recently used goes.
MEMO_CAP = 1 << 15


@dataclass(frozen=True)
class BoxedPartition:
    """A weakly decreasing tuple of box_k nonnegative parts, each <= box_w."""

    parts: tuple[int, ...]
    box_k: int
    box_w: int

    def __post_init__(self):
        if self.box_k < 1 or self.box_w < 1:
            raise InputError("box dimensions must be positive")
        if len(self.parts) != self.box_k:
            raise InputError("expected exactly %d parts, got %r" % (self.box_k, self.parts))
        if any(p < 0 for p in self.parts):
            raise InputError("parts must be nonnegative: %r" % (self.parts,))
        if any(self.parts[i] < self.parts[i + 1] for i in range(self.box_k - 1)):
            raise InputError("parts must be weakly decreasing: %r" % (self.parts,))
        if self.parts[0] > self.box_w:
            raise InputError("first part %d exceeds box width %d" % (self.parts[0], self.box_w))

    @property
    def size(self) -> int:
        return sum(self.parts)

    def trimmed(self) -> tuple[int, ...]:
        """Parts without trailing zeros (the usual display convention)."""
        return tuple(p for p in self.parts if p != 0)

    def to_json(self) -> list[int]:
        return list(self.trimmed())

    def __str__(self):
        t = self.trimmed()
        return "(" + ",".join(str(p) for p in t) + ")" if t else "()"


def int_parts(parts) -> tuple[int, ...]:
    """parts as a tuple, refused unless every part is an int (not a bool, float or str)."""
    parts = tuple(parts)
    for p in parts:
        if type(p) is not int:
            raise InputError("partition parts must be integers: %r" % (parts,))
    return parts


def make_partition(parts, k: int, w: int) -> BoxedPartition:
    """The partition with these parts (trailing zeros optional): the checked entry to `boxed`."""
    return boxed(int_parts(parts), k, w)


@lru_cache(maxsize=MEMO_CAP)
def boxed(parts: tuple[int, ...], k: int, w: int) -> BoxedPartition:
    """The one table of validated partitions, keyed by parts as given (trailing
    zeros optional); a shorter or longer key shares the object of its k parts.

    Callers pass ints; `make_partition` is the checked entry, since parts are
    checked before the memo: 1.0 and True hash and compare equal to 1.
    """
    full = parts[:k] + (0,) * (k - len(parts))
    if full == parts:
        return BoxedPartition(parts, k, w)
    if any(p != 0 for p in parts[k:]):
        raise InputError("partition %r has more than %d nonzero parts" % (parts, k))
    return boxed(full, k, w)


def dual(lam: BoxedPartition) -> BoxedPartition:
    """The complementary partition (w - lam_k, ..., w - lam_1).

    An involution; |lam| + |dual(lam)| = k * w.
    """
    w = lam.box_w
    return boxed(tuple(w - p for p in reversed(lam.parts)), lam.box_k, w)


@lru_cache(maxsize=MEMO_CAP)
def _enumerate(k: int, m: int, cap: int) -> tuple[BoxedPartition, ...]:
    # All weakly decreasing k-tuples with entries <= cap summing to m,
    # first part descending (reverse-lexicographic order). The tuples grow one
    # row at a time: with rem left for the last `left` rows, a row takes from
    # min(the row above, rem) down to ceil(rem / left), so every partial
    # tuple completes, and no recursion bounds k.
    if m < 0 or m > k * cap:
        return ()
    fills = [((), m, cap)]
    for left in range(k, 0, -1):
        nxt = []
        for head, rem, top in fills:
            for p in range(min(top, rem), -(-rem // left) - 1, -1):
                nxt.append((head + (p,), rem - p, p))
        fills = nxt
    return tuple(boxed(head, k, cap) for head, _, _ in fills)


def enumerate_box(k: int, w: int, m: int) -> list[BoxedPartition]:
    """All partitions of m inside the k x w box, in reverse-lexicographic order.

    Out-of-range m yields an empty list. The count over all m telescopes to
    binomial(k + w, k).
    """
    if k < 1 or w < 1:
        raise InputError("box dimensions must be positive")
    return list(_enumerate(k, m, w))
