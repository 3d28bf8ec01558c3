"""``scenario_ensemble``: repeated what-if requests from a planner.

One operation is one request: generate ``MEMBERS`` independent seasons
of grid-ignited fires through ``GridIgnitedFireHazard.ensemble_member``
and join them against the universe with ``ensemble_impacts``.  Member
ids are fresh on every request, so nothing a request computes can be
reused by the next one.

This is the workload on which the runtime layer (persistent pool,
shared memory, dispatch) engages.  ``ensemble_impacts`` does not clamp
its worker request to the machine (it skips ``cpu_budget()``), so the
benchmark sizes it itself: ``min(usable cores, MEMBERS)``.
"""

from __future__ import annotations

import multiprocessing
import time

from calibration import Calibration
from common import counter_delta, deterministic_part, usable_cores
from repro.data import SyntheticUS, UniverseConfig
from repro.hazard import GridIgnitedFireHazard
# Called through the module so the traced pass sees its wrapper.
from repro.hazard import scenarios
from repro.runtime import (
    STATS,
    active_pools,
    active_segments,
    release_segments,
    shutdown_pools,
)
from repro.session import session_of

N_TRANSCEIVERS = 150_000
MEMBERS = 8
YEAR = 2019
HAZARD = GridIgnitedFireHazard(n_events=1500, total_acres=40e6)
#: A light hazard for the warm-up round that starts the pool.
WARMUP_HAZARD = GridIgnitedFireHazard(n_events=16)
#: Every ``CHECK_EVERY``-th request is re-joined serially after timing.
CHECK_EVERY = 4
MIN_REQUESTS = 3


class Planner:
    """Set-up state: universe, power grid and a warm worker pool."""

    def __init__(self, seed: int):
        self.universe = SyntheticUS(UniverseConfig(
            n_transceivers=N_TRANSCEIVERS, seed=seed,
            whp_resolution_deg=0.1))
        self.universe.cells  # built during set-up, not the first request
        session_of(self.universe).artifact("power_grid")
        self.cores = usable_cores()
        self.workers = min(self.cores, MEMBERS)
        warmup = [WARMUP_HAZARD.ensemble_member(self.universe, YEAR, m)
                  for m in range(self.workers)]
        scenarios.ensemble_impacts(self.universe, warmup, YEAR,
                                   workers=self.workers)
        self.next_request = 0
        #: (request id, pooled impacts) of the requests checked later.
        self.sampled: list[tuple[int, list[int]]] = []
        #: (request id, impacts, deterministic counters) of the first
        #: timed request, repeated after timing.
        self.first: tuple[int, list[int], dict] | None = None
        self.calibration = Calibration()

    def member(self, r: int, m: int) -> list:
        return HAZARD.ensemble_member(self.universe, YEAR, r * MEMBERS + m)

    def members(self, r: int) -> list[list]:
        return [self.member(r, m) for m in range(MEMBERS)]

    def join(self, members: list[list]) -> list[int]:
        return scenarios.ensemble_impacts(self.universe, members, YEAR,
                                          workers=self.workers)

    def request(self, r: int) -> list[int]:
        return self.join(self.members(r))


def setup(seed: int) -> Planner:
    return Planner(seed)


def run_pass(planner: Planner, seconds: float) -> list[float]:
    """Serve requests for ``seconds``; return the request latencies."""
    request_s: list[float] = []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(request_s) < MIN_REQUESTS):
        r = planner.next_request
        planner.next_request += 1
        before = STATS.snapshot()
        members = []
        elapsed = 0.0
        for m in range(MEMBERS):
            t0 = time.perf_counter()
            members.append(planner.member(r, m))
            elapsed += time.perf_counter() - t0
            # The pool workers are idle while members are generated, so
            # the calibration shares the host with nothing of the program.
            planner.calibration.sample()
        t0 = time.perf_counter()
        impacts = planner.join(members)
        request_s.append(elapsed + time.perf_counter() - t0)
        if len(request_s) == 1:
            planner.first = (r, impacts, deterministic_part(
                counter_delta(before, STATS.snapshot())))
        if r % CHECK_EVERY == 0:
            planner.sampled.append((r, impacts))
    return request_s


def check(planner: Planner) -> tuple[int, list[str]]:
    """Output and leak checks, run after timing."""
    failures = []
    checks = 0
    for r, impacts in planner.sampled:
        checks += 1
        serial = scenarios.ensemble_impacts(
            planner.universe, planner.members(r), YEAR, workers=1)
        if serial != impacts:
            failures.append(f"request {r}: pooled {impacts} != "
                            f"serial {serial}")
    r, impacts, counters = planner.first
    before = STATS.snapshot()
    again = planner.request(r)
    repeat = deterministic_part(counter_delta(before, STATS.snapshot()))
    if again != impacts or repeat != counters:
        failures.append(f"request {r} repeated: impacts {again} vs "
                        f"{impacts}, counters {repeat} vs {counters}")
    checks += 2
    shutdown_pools()
    release_segments()
    if (active_pools() or active_segments()
            or multiprocessing.active_children()):
        failures.append(f"leaked pools {active_pools()}, shared segments "
                        f"{active_segments()} or worker processes "
                        f"{multiprocessing.active_children()}")
    return checks, failures


def teardown(planner: Planner) -> None:
    shutdown_pools()
    release_segments()


def extras(planner: Planner) -> dict:
    return {"cores": planner.cores, "eff_workers": planner.workers}
