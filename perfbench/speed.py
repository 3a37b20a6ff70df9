"""The machine's speed through a run, from a fixed reference computation.

The benchmark was written on a shared 2-vCPU VM whose speed drifts by up to
1.9x, for stretches of a few seconds to over a minute, with no CPU steal
reported: a fixed loop and the program slow down together.  A run of 30 s
can sit wholly inside a slow stretch, so neither the best nor the median of
a run's latencies is steady from run to run.

`Speed` times `reference()`, a fixed mix of Fraction arithmetic, dict work
and small dense linear algebra that shares no code with the package,
between ops about every SAMPLE_EVERY seconds.  `normalize` scales an op's
latency by REFERENCE_MS over the median reference time around the op: the
latency the op would have had while the reference took REFERENCE_MS, which
is about what it takes on that VM at its fast speed.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

import numpy as np

REFERENCE_MS = 1.5
SAMPLE_EVERY = 0.1  # seconds between reference samples, at least
WINDOW = 0.5  # seconds either side of an op whose samples set its scale
MIN_SAMPLES = 5

_rng = np.random.default_rng(20100209)
_M = _rng.normal(size=(16, 16)) + 1j * _rng.normal(size=(16, 16))
_H = _M + _M.conj().T


def reference():
    total, table = Fraction(0), {}
    for i in range(1, 600):
        total += Fraction(i % 7 + 1, i % 5 + 2)
        table[i % 61] = table.get(i % 61, 0) + i
    for _ in range(4):
        np.linalg.eigh(_H)
        np.linalg.solve(_H, _M @ _M)
    return total, table


class Speed:
    def __init__(self):
        self.times = []  # midpoints, perf_counter seconds
        self.durations = []
        self.last = float("-inf")

    def sample(self):
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)
        self.last = end

    def maybe_sample(self):
        """Sample if SAMPLE_EVERY seconds have passed since the last sample."""
        if time.perf_counter() - self.last >= SAMPLE_EVERY:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_MS over the median reference time in [start - WINDOW, end + WINDOW].

        With fewer than MIN_SAMPLES there, the MIN_SAMPLES nearest the op's
        middle stand in.
        """
        lo = bisect.bisect_left(self.times, start - WINDOW)
        hi = bisect.bisect_right(self.times, end + WINDOW)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return REFERENCE_MS / 1e3 / statistics.median(self.durations[lo:hi])

    def normalize(self, start: float, latency: float) -> float:
        return latency * self.scale(start, start + latency)
