"""Clocks, and the reference loop that tracks this machine's speed.

The CPU speed of a shared machine drifts by 10-30% over seconds and
flips within milliseconds.  Op and span times are therefore taken at
the reference speed: the measured time is scaled by NOMINAL_NS over the
mean time of the reference loop run alongside it.  The loop is plain Python float arithmetic and
never touches the library, so a library change moves the scaled times
exactly as it moves the raw ones.
"""

from __future__ import annotations

import math
import time

NOMINAL_NS = 850_000  # the reference loop's time at the reference speed (2 vCPU host it was set on)


def monotonic_ns() -> int:
    """CLOCK_MONOTONIC, which every process on the machine shares."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def reference_loop_ns() -> int:
    """Time of one run of the reference loop."""
    t0 = time.perf_counter_ns()
    x, s = 0.5, 0.0
    for i in range(1, 2001):
        x = math.sqrt(x * 1.0001 + 0.25)
        s += math.log(x + i) / i
    return time.perf_counter_ns() - t0


def speed_scale(samples) -> float:
    """Factor taking times measured alongside these reference-loop samples
    to the reference speed.  The speed flips between fast and slow
    within milliseconds, so the factor rests on the samples' mean."""
    return NOMINAL_NS * len(samples) / sum(samples)
