"""A fixed piece of big-integer and interpreter work that tells how fast
the machine runs at the moment it is timed.

On a shared 2-CPU virtual machine the same Python loop can take anywhere
from 1.0 to 1.8 times its best time, over stretches from a tenth of a
second to minutes, so raw wall-clock metrics drift by 20-30 % between runs
of identical code.  The benchmark times this yardstick before and after
every operation, the second time for an eighth of the operation's own
length so that long operations are judged by the speed around them rather
than at one instant, and reports each latency scaled to a machine on which
the yardstick takes ``REFERENCE_S``.  The yardstick is benchmark code, so no
change to chebflag can move it.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.0015
_INTS = [3 ** (600 + 7 * i) for i in range(48)]


def _once() -> float:
    t0 = time.perf_counter()
    for _ in range(12):
        acc = 0
        for c in range(1, 13):
            for v in _INTS:
                acc -= c * v
            acc %= _INTS[-1]
        words = [str(i) for i in range(400)]
    del words
    return time.perf_counter() - t0


def measure(window: float = 0.0) -> float:
    """Mean seconds the yardstick takes now, over at least one run and at
    least ``window`` seconds."""
    runs = [_once()]
    while sum(runs) < window:
        runs.append(_once())
    return sum(runs) / len(runs)


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two yardstick readings, expressed at
    the reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2)
