import itertools
import math
from functools import lru_cache

import pytest

from grasseff import partitions
from grasseff.partitions import BoxedPartition, dual, enumerate_box, make_partition


def test_enumerate_codim2_2x2():
    got = [p.trimmed() for p in enumerate_box(2, 2, 2)]
    assert got == [(2,), (1, 1)]


def test_enumerate_empty_partition():
    assert [p.trimmed() for p in enumerate_box(2, 2, 0)] == [()]


def test_enumerate_2x3():
    assert [p.trimmed() for p in enumerate_box(2, 3, 3)] == [(3,), (2, 1)]


def test_enumerate_out_of_range_is_empty():
    assert enumerate_box(2, 2, 5) == []
    assert enumerate_box(2, 2, -1) == []


def test_enumerate_reuses_its_partitions_in_a_fresh_list():
    first = enumerate_box(3, 3, 4)
    first.append(None)
    again = enumerate_box(3, 3, 4)
    assert again == first[:-1] and again is not first
    assert all(x is y for x, y in zip(again, first))


def test_enumerate_counts_telescope():
    for k, w in [(2, 2), (2, 3), (3, 3), (4, 2)]:
        total = sum(len(enumerate_box(k, w, m)) for m in range(k * w + 1))
        assert total == math.comb(k + w, k)


def test_enumerate_strictly_ordered_no_duplicates():
    for k, w in [(2, 3), (3, 3)]:
        for m in range(k * w + 1):
            parts = [p.parts for p in enumerate_box(k, w, m)]
            assert len(set(parts)) == len(parts)
            assert parts == sorted(parts, reverse=True)


def brute_force(k, w, m):
    return [p for p in itertools.product(range(w, -1, -1), repeat=k)
            if sum(p) == m and all(p[i] >= p[i + 1] for i in range(k - 1))]


def test_enumerate_matches_brute_force_with_one_memo_entry_per_box_and_size():
    # the tuples grow row by row with no subproblem of their own: one (k, m, cap) per query
    partitions._enumerate.cache_clear()
    for w in range(2, 12):
        for m in range(3 * w + 1):
            assert [p.parts for p in enumerate_box(3, w, m)] == brute_force(3, w, m), (w, m)
    assert partitions._enumerate.cache_info().currsize == sum(3 * w + 1 for w in range(2, 12))


def test_enumerate_matches_brute_force_while_the_table_evicts(monkeypatch):
    cap = 7
    for name in ("boxed", "_enumerate"):
        monkeypatch.setattr(partitions, name,
                            lru_cache(maxsize=cap)(getattr(partitions, name).__wrapped__))
    for k, w in [(3, 4), (4, 3), (2, 6)]:
        for m in range(k * w + 1):
            assert [p.parts for p in enumerate_box(k, w, m)] == brute_force(k, w, m), (k, w, m)
    assert partitions.boxed.cache_info().misses > 10 * cap


def test_enumerate_a_box_taller_than_the_recursion_limit():
    k = 1100
    assert [p.trimmed() for p in enumerate_box(k, k, 2)] == [(2,), (1, 1)]
    assert [p.parts for p in enumerate_box(k, k, k * k - 2)] == \
        [(k,) * (k - 1) + (k - 2,), (k,) * (k - 2) + (k - 1, k - 1)]


def test_dual_examples():
    assert dual(make_partition((2,), 2, 2)).trimmed() == (2,)
    assert dual(make_partition((1, 1), 2, 2)).trimmed() == (1, 1)
    assert dual(make_partition((2, 2), 2, 2)).trimmed() == ()


def test_dual_involution_all_small_boxes():
    for k in range(1, 5):
        for w in range(1, 5):
            if k * w > 16:
                continue
            for m in range(k * w + 1):
                for lam in enumerate_box(k, w, m):
                    d = dual(lam)
                    assert dual(d) == lam
                    assert lam.size + d.size == k * w


def test_invalid_partitions_rejected():
    with pytest.raises(ValueError):
        BoxedPartition((1, 2), 2, 2)  # not weakly decreasing
    with pytest.raises(ValueError):
        BoxedPartition((3, 0), 2, 2)  # exceeds box width
    with pytest.raises(ValueError):
        make_partition((1, 1, 1), 2, 2)  # too many nonzero parts
    for parts in ((1.5,), (1.0,), (True,), ("1",)):
        with pytest.raises(ValueError, match="integers"):
            make_partition(parts, 2, 2)


def test_make_partition_pads_and_trims():
    p = make_partition((2,), 3, 2)
    assert p.parts == (2, 0, 0)
    assert p.trimmed() == (2,)
    assert make_partition((2, 1, 0, 0), 3, 2).parts == (2, 1, 0)
