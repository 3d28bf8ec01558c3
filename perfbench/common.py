"""Plumbing shared by ``run.py`` and its worker processes.

Stdlib only: ``run.py`` imports this module without importing the
program, so it can refuse to run (exit code 2) when the program's
source is missing.
"""

from __future__ import annotations

import math
import os
import resource
from pathlib import Path

#: The checkout root: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Workload seed used when ``--seed`` is not given.  It is the CLI's own
#: default universe seed, so ``reproduce_all`` on it renders exactly
#: what a bare ``repro all`` prints.
DEFAULT_SEED = 20_190_722

#: STATS counters whose per-operation deltas must repeat exactly when the
#: same inputs run again.  A mismatch is a failed check.
DETERMINISTIC_COUNTERS = (
    "index.pip_tests",
    "index.candidates",
    "index.dirty_buckets",
    "index.skipped_buckets",
    "raster.samples",
    "session.hits",
    "session.misses",
    "pool.tasks",
)


def usable_cores() -> int:
    """Cores this process may run on (its CPU affinity set)."""
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def counter_delta(before: dict, after: dict) -> dict[str, int]:
    """Counter increments between two ``STATS.snapshot()`` results."""
    b = before.get("counters", {})
    return {k: v - b.get(k, 0) for k, v in after.get("counters", {}).items()
            if v != b.get(k, 0)}


def deterministic_part(delta: dict[str, int]) -> dict[str, int]:
    return {k: delta.get(k, 0) for k in DETERMINISTIC_COUNTERS}
