"""Host-speed calibration for wall times.

On a shared host the CPU speed available to one process drifts by a third
over seconds to minutes, with CPU time tracking wall time, so a slow stretch
looks exactly like slower code.  A short fixed workload that uses only the
standard library, and so no code of the program under test, is timed every
CAL_EVERY_S seconds next to the operations.  Dividing a wall time by the
host factor (calibration time / CAL_REF_S) gives the time the operation
would take on a host that runs the calibration workload in CAL_REF_S, which
is about what it takes on an uncontended 2.0 GHz Xeon vCPU.  Program
changes move the scaled times; host drift mostly cancels out.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

CAL_REF_S = 0.00125
CAL_EVERY_S = 0.05
NEIGHBOURS = 3  # samples taken on each side of a moment


def calibrate():
    """Seconds taken by fixed work mixing rational, integer and dict operations."""
    t0 = perf_counter()
    total, table = Fraction(0), {}
    for k in range(1, 250):
        total += Fraction(1, k) * Fraction(k + 1, k + 2)
        table[k % 97] = table.get(k % 97, 0) + k * k
    return perf_counter() - t0


class HostSpeed:
    """Calibration times and the moments they were taken."""

    def __init__(self):
        self.times = []
        self.durations = []

    def sample(self, count=1):
        for _ in range(count):
            self.times.append(perf_counter())
            self.durations.append(calibrate())

    def sample_if_due(self, now):
        if not self.times or now - self.times[-1] >= CAL_EVERY_S:
            self.sample()

    def factor(self, t):
        """Host slowdown at moment t, from the calibrations nearest to it."""
        k = bisect_left(self.times, t)
        near = self.durations[max(0, k - NEIGHBOURS):k + NEIGHBOURS]
        return statistics.median(near) / CAL_REF_S

    def scale(self, seconds, t):
        return seconds / self.factor(t)

    def median_ms(self):
        return statistics.median(self.durations) * 1e3
