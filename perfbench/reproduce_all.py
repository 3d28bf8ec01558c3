"""``reproduce_all``: one researcher's ``repro all`` at CLI defaults.

60,000 transceivers, a 0.1-degree WHP grid, serial, no disk cache, no
ledger.  Each repetition is a fresh process (see ``run.py``), because
users pay the universe synthesis on every run and in-process memos
would hide it.  This module runs inside that process: set-up is the
import plus building the CLI, the operation is ``repro.cli.main``.
"""

from __future__ import annotations

import hashlib
import io
import time

from calibration import Calibration
from common import (
    DEFAULT_SEED,
    counter_delta,
    deterministic_part,
    usable_cores,
)
from repro import cli
from repro.runtime import STATS

#: SHA-256 of the ``repro all`` text for the default seed at the
#: commit that defined this benchmark.  Any change to it is an output
#: change, which the ROADMAP requires a PR to name and pin.
DEFAULT_SEED_SHA256 = (
    "07cfe9948f26dd33450b46bee7423739784b09c122a694b30ea0992031901fb4")
#: Host-speed calibrations before and after the run, outside its timing.
CALIBRATIONS = 5


class Researcher:
    """Set-up state: the CLI, built once; the last run's digests."""

    def __init__(self, seed: int):
        self.seed = seed
        cli.build_parser()
        self.text_sha256 = ""
        self.counters: dict = {}
        self.calibration = Calibration()


def setup(seed: int) -> Researcher:
    return Researcher(seed)


def run_pass(researcher: Researcher, seconds: float) -> list[float]:
    """One ``repro all`` run (``run.py`` decides how many)."""
    out = io.StringIO()
    researcher.calibration.sample(CALIBRATIONS)
    before = STATS.snapshot()
    t0 = time.perf_counter()
    code = cli.main(["--seed", str(researcher.seed), "all"], stream=out)
    elapsed = time.perf_counter() - t0
    researcher.calibration.sample(CALIBRATIONS)
    if code != 0:
        raise RuntimeError(f"repro all exited {code}")
    researcher.text_sha256 = hashlib.sha256(
        out.getvalue().encode()).hexdigest()
    researcher.counters = deterministic_part(
        counter_delta(before, STATS.snapshot()))
    return [elapsed]


def check(researcher: Researcher) -> tuple[int, list[str]]:
    """Cross-repetition checks run in ``run.py``; this one pins the
    default seed's output."""
    if researcher.seed != DEFAULT_SEED:
        return 0, []
    if researcher.text_sha256 != DEFAULT_SEED_SHA256:
        return 1, [f"repro all output sha256 {researcher.text_sha256} "
                   f"!= pinned {DEFAULT_SEED_SHA256}"]
    return 1, []


def extras(researcher: Researcher) -> dict:
    return {"cores": usable_cores(), "eff_workers": 1,
            "text_sha256": researcher.text_sha256,
            "counters": researcher.counters}
