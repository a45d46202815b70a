"""Host speed, so that times measured on a drifting host compare.

The virtual machine this benchmark was built on (2 vCPUs, Xeon) runs
the same pure-Python loop in two states, one about 1.6 times faster,
switching every few seconds to minutes as its neighbours come and go.
A fixed pure-Python probe, timed between operations, tracks the state.
Over the ten seeds in ``baseline.json``, which records every run's
figures both ways, the unscaled ones spread by up to 0.25 of their
median, the scaled ones by at most 0.10.

So every time the benchmark reports is a measured time multiplied by
``PROBE_REF_S / probe``, where probe is the mean of the probe just before
the operation and the probe just after it: the time the operation would
have taken with the host in its usual state.  Probes run between
operations, at most every ``PROBE_EVERY_S``, and their own time is never
counted.  The traced run reports the median probe as ``host.probe_ms``.
"""

from __future__ import annotations

import statistics
from time import perf_counter

PROBE_REF_S = 0.65e-3
"""The probe's time on that machine in its usual (slower) state."""

PROBE_EVERY_S = 0.05


def _probe_kernel() -> None:
    acc: dict = {}
    for i in range(3000):
        acc[i % 97] = acc.get(i % 97, 0) + i * i % 7


class HostSpeed:
    def __init__(self) -> None:
        self.probes: list[float] = []
        self._last = float("-inf")
        self.probe()

    def probe(self) -> None:
        """Time the kernel twice and keep the faster run, so that a probe
        the scheduler interrupted does not pass for a slow host."""
        times = []
        for _ in range(2):
            start = perf_counter()
            _probe_kernel()
            times.append(perf_counter() - start)
        self.probes.append(min(times))
        self._last = perf_counter()

    def mark(self) -> int:
        """Call before an operation: probes if the last probe is older than
        PROBE_EVERY_S, and returns the index of the probe before it."""
        if perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()
        return len(self.probes) - 1

    def scale(self, before: int) -> float:
        """Reference seconds per measured second for an operation between
        probe number before and the next probe, which must have been taken."""
        return 2 * PROBE_REF_S / (self.probes[before] + self.probes[before + 1])

    def median_probe(self) -> float:
        return statistics.median(self.probes)
