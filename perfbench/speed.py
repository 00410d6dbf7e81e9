"""Host speed, measured with a fixed stdlib loop, to express times in reference seconds.

On a shared cloud VM the speed of a core drifts with the load of other
tenants: on the 2-vCPU VM this benchmark was tuned on, one fixed Python loop
took anywhere from 26 to 45 ms within a single minute, so wall times of
identical work differ by tens of percent between runs.  The benchmark
therefore times a short probe loop before every operation and scales the
operation's wall time by ``PROBE_NOMINAL_S / median(nearby probes)``: a
reference second is a second of a host on which the probe takes
``PROBE_NOMINAL_S``.  The probe is the benchmark's own code, so no change to
slidecam can move it.
"""
from __future__ import annotations

import statistics
import time
from typing import List

PROBE_NOMINAL_S = 6.5e-4
WINDOW = 10          # probes on each side that set one operation's factor


def probe() -> float:
    """Seconds taken by a fixed loop of dict, set and tuple work."""
    t0 = time.perf_counter()
    counts, pairs = {}, set()
    for i in range(1500):
        k = (i * 7919) & 511
        counts[k] = counts.get(k, 0) + i
        pairs.add((k, i & 7))
    sorted(pairs)
    return time.perf_counter() - t0


class SpeedLog:
    """Probe times in the order they were taken."""

    def __init__(self):
        self.samples: List[float] = []

    def sample(self, count: int = 1) -> int:
        """Take ``count`` probes; returns the index of the first one."""
        first = len(self.samples)
        self.samples.extend(probe() for _ in range(count))
        return first

    def factor(self, lo: int, hi: int) -> float:
        """Reference seconds per wall second over the probes ``lo .. hi - 1``."""
        return PROBE_NOMINAL_S / statistics.median(self.samples[max(0, lo):hi])

    def factor_at(self, index: int) -> float:
        """Reference seconds per wall second around probe ``index``."""
        return self.factor(index - WINDOW, index + WINDOW + 1)
