"""Host-speed calibration, sampled between a workload's operations.

The benchmark runs on shared hosts whose speed drifts by 10-30% over
seconds to minutes: CPU time tracks wall time, so the program is not
preempted, it runs slower.  A fixed loop owned by the benchmark, timed
between the operations of a run, slows down with the host but never
with the program.  ``run.py`` divides a run's mean operation time by
the mean of these samples, which cancels most of the drift.  Each
workload's state owns one ``Calibration``; ``worker.py`` reports its
samples.

The loop mixes what the workloads spend their time on: small-array
NumPy calls from Python (polygon synthesis, per-fire bookkeeping), a
pure-Python loop, and a sort and a binary search over 100,000 floats
(joins).  Of the loops tried, this mix tracked the workloads' own
slow-downs best.  No program code runs in it, so no change to the
program moves it.
"""

from __future__ import annotations

import time

import numpy as np

_BIG = np.random.default_rng(12_345).random(100_000)
_SORTED_HALF = np.sort(_BIG[:50_000])


class Calibration:
    """The calibration loop's times during one run, in seconds."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, n: int = 1) -> None:
        """Time the calibration loop ``n`` times and keep the times."""
        for _ in range(n):
            t0 = time.perf_counter()
            rng = np.random.default_rng(7)
            acc = 0.0
            for _ in range(200):
                a = rng.standard_normal(24)
                b = np.maximum(1.0 + 0.45 * a, 0.25)
                c = np.column_stack([b * 0.5, b * 2.0])
                acc += float(c.sum()) + sum(k * k % 7 for k in range(40))
            np.sort(_BIG)
            np.searchsorted(_SORTED_HALF, _BIG)
            self.samples.append(time.perf_counter() - t0)
