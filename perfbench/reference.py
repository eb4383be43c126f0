"""A fixed slice of pure-Python work that measures how fast the machine runs now.

On a shared machine the speed of one core drifts by 20-40% over tens of
seconds as neighbours come and go, in CPU time as much as in wall time.
The benchmark times this slice next to every job and reports each job in
reference-speed time: its measured time scaled by ``REFERENCE_S`` over the
slice's local median.  On this benchmark's development machine (2 vCPU
x86-64 VM, CPython 3.11) the slice takes about 1 ms at median speed, so
reference-speed times there read close to wall time.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# The duration one reference slice stands for, by definition.
REFERENCE_S = 0.001


def reference_slice() -> int:
    """Bit tests, small lists, frozensets and a dict: the interpreter work ordtop does."""
    total = 0
    table = {}
    for mask in range(1 << 9):
        bits = [i for i in range(9) if mask >> i & 1]
        table[frozenset(bits)] = len(bits)
        total += mask & ~(mask >> 1)
    return total + len(table)


def time_reference() -> float:
    start = perf_counter()
    reference_slice()
    return perf_counter() - start


def scale(samples: list[float]) -> float:
    """Factor from measured time to reference-speed time, from nearby slice timings."""
    return REFERENCE_S / statistics.median(samples)
