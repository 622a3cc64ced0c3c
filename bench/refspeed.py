"""Reference-speed scaling of measured times.

The machine this benchmark runs on changes interpreter speed within seconds
(other tenants, frequency changes), so raw times of the same code drift by
tens of percent between runs. Every reported time is therefore scaled to a
fixed reference speed: the operation list is cut into CHUNKS chunks of
consecutive operations, the reference loop below is timed between chunks,
and each chunk's time is multiplied by NOMINAL_S / (the mean of the
reference times before and after it).

The loop uses only the standard library (rational elimination and a dict,
the same kinds of work grasseff does), so no change to grasseff can move
it. NOMINAL_S is the loop's median time, between chunks, on the machine
that produced the reference figures in README.md; scaled times therefore
read as seconds on that machine at its typical speed.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = 0.00080
CHUNKS = 80

# All times are the interpreter thread's CPU time. The benchmark and
# grasseff are single-threaded and do no I/O while timed, so CPU time is the
# program's own work; wall time would add whatever slices the machine gives
# to other tenants meanwhile, which put a few random operations into the tail.
clock = time.thread_time


def reference_loop() -> int:
    """A fixed piece of stdlib work; its result only keeps it from being dead code.

    Exact elimination on a small Fraction matrix (the row operations of
    rank, rref and the simplex) and a tuple-keyed dict accumulation (the
    shape of a Pieri expansion). Of the loops tried, this one left the least
    spread in scaled times; loops on plain integers followed the speed of
    grasseff's Fraction work less closely.
    """
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(6)]
         for i in range(5)]
    rank = 0
    for c in range(6):
        piv = next((i for i in range(rank, 5) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(5):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    table: dict = {}
    for i in range(120):
        key = (i % 5, i % 3, (i * 7) % 4)
        table[key] = table.get(key, 0) + i * i
    return rank + len(table)


def reference_time() -> float:
    """Seconds one reference loop takes now: the median of three timings."""
    times = []
    for _ in range(3):
        start = clock()
        reference_loop()
        times.append(clock() - start)
    times.sort()
    return times[1]


def scale_factor(ref_before: float, ref_after: float) -> float:
    """Factor that turns a time measured between two reference timings into reference seconds."""
    return NOMINAL_S / ((ref_before + ref_after) / 2)
