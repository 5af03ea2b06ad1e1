"""Measure how fast the machine runs while the benchmark measures toric3.

The benchmark runs on shared machines whose speed changes by tens of percent
from one second to the next and drifts over minutes, for all work at once.
So the workload process times a small, fixed *unit* of reference work again
and again while each instance runs (``Sampler``, on a CPU-time timer), and
scales the instance's time by

    REFERENCE_S / (mean time of the unit during the instance)

A slow stretch slows the unit as much as the instance, and cancels out.  The
unit is integer arithmetic in the interpreter on a few objects: it does not
call toric3, and it takes the same time whatever the instance left in the
caches, so a change to the library cannot move it.
"""

from __future__ import annotations

import signal
import time

# The speed that scaled times refer to: a round figure near the median time
# of one unit on a shared 2-vCPU Intel Xeon (KVM) with Python 3.11.7.
REFERENCE_S = 0.001

# CPU seconds between samples taken while an instance runs.
SAMPLE_INTERVAL_S = 0.05


def unit() -> int:
    """The unit of reference work."""
    s = 0
    for i in range(12_000):
        s += i * i
    return s


def measure(units: int) -> float:
    """Mean wall seconds of one unit over ``units`` back-to-back units."""
    start = time.perf_counter()
    for _ in range(units):
        unit()
    return (time.perf_counter() - start) / units


class Sampler:
    """Times one unit every SAMPLE_INTERVAL_S of CPU time, from a SIGPROF handler.

    ``start`` and ``stop`` each take a sample too, outside the interval, so
    every interval has at least two.  ``stop`` returns the mean time of a unit
    and the time the samples inside the interval took, which the caller takes
    off the interval's wall time.
    """

    def __init__(self):
        self.times: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        unit()
        self.times.append(time.perf_counter() - start)

    def start(self) -> None:
        self.times = []
        signal.signal(signal.SIGPROF, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> tuple[float, float, int]:
        """(mean unit time, time of the samples between start and stop, samples)."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        between = sum(self.times[1:])
        self._sample()
        return sum(self.times) / len(self.times), between, len(self.times)
