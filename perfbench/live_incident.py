"""``live_incident``: one feed consumer folding perimeter snapshots.

A closed loop: the consumer hands ``IncidentState.ingest`` the next
complete snapshot only after the previous ``TickEvent`` came back, as
when an archived feed is replayed or a consumer catches up after an
outage.  One operation is one tick.

The incident has ``N_FIRES`` fires, each a ``star_polygon`` centred on a
seed-drawn transceiver in an at-risk WHP class (3-5 from
``classify_cells``).  Fires ignite on a fixed schedule and grow
monotonically through ``interpolated_perimeter`` about their centre,
each on its own update period, so a tick carries a mix of ignitions,
growth and unchanged fronts.  The fire sizes and the schedule are the
same for every seed; the seed picks the universe, the centres and the
perimeter shapes, so different seeds do comparable work.

An episode replays the whole incident on a fresh ``IncidentState`` with
freshly built perimeter objects (a live feed never hands over the same
polygon object twice, and polygons cache their prepared form).
Episodes repeat until the run's time is up.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from calibration import Calibration
from common import counter_delta, deterministic_part, usable_cores
from repro.core.overlay import (
    classify_cells,
    overlay_fires,
    overlay_fires_bruteforce,
)
from repro.data import SyntheticUS, UniverseConfig
from repro.data.wildfires import (
    FirePerimeter,
    interpolated_perimeter,
    star_polygon,
)
from repro.runtime import STATS
from repro.stream import IncidentState

N_TRANSCEIVERS = 600_000
N_FIRES = 80
EPISODE_TICKS = 500
#: Enough ticks that the p99 tick latency has ten samples beyond it.
MIN_TICKS = 1_000
#: The host-speed calibration runs after every ``CALIBRATE_EVERY``-th
#: tick, outside the tick's timing.
CALIBRATE_EVERY = 25
YEAR = 2020
AT_RISK_MIN_CLASS = 3


class Incident:
    """Set-up state: the universe, its index, and the fire plan."""

    def __init__(self, seed: int):
        self.seed = seed
        universe = SyntheticUS(UniverseConfig(
            n_transceivers=N_TRANSCEIVERS, seed=seed,
            whp_resolution_deg=0.1))
        self.cells = universe.cells
        self.population = universe.population
        self.cells.index()
        self.classes = classify_cells(self.cells, universe.whp)
        self.workers = usable_cores()
        self.state = IncidentState(self.cells, YEAR,
                                   population=self.population,
                                   workers=self.workers)
        self._plan()
        self.episodes: list[dict] = []
        self.calibration = Calibration()

    def _plan(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        at_risk = np.flatnonzero(self.classes >= AT_RISK_MIN_CLASS)
        self.centres = rng.choice(at_risk, size=N_FIRES, replace=False)
        self.shape_seed = int(rng.integers(2**32))
        j = np.arange(N_FIRES)
        # 37 is prime to N_FIRES: sizes interleave along the schedule.
        self.acres = np.geomspace(5e3, 2.5e5, N_FIRES)[j * 37 % N_FIRES]
        self.ignite = j * (EPISODE_TICKS // 2) // N_FIRES
        self.grow = (EPISODE_TICKS // 4
                     + (j * 7 % N_FIRES) * (EPISODE_TICKS // 4) // N_FIRES)
        self.period = 1 + j % 3
        self.sample_tick = int(rng.integers(EPISODE_TICKS // 4,
                                            EPISODE_TICKS))

    def snapshots(self) -> list[list[FirePerimeter]]:
        """Every tick's snapshot of one episode, as fresh objects."""
        rng = np.random.default_rng(self.shape_seed)
        lons = self.cells.lons[self.centres]
        lats = self.cells.lats[self.centres]
        finals = [FirePerimeter(
            name=f"INCIDENT-{i:03d}", year=YEAR, start_doy=200,
            end_doy=260, acres=float(self.acres[i]),
            polygon=star_polygon(float(lons[i]), float(lats[i]),
                                 float(self.acres[i]), rng),
            agency="FEED", method="IR")
            for i in range(N_FIRES)]
        fronts: dict[tuple[int, float], FirePerimeter] = {}
        ticks = []
        for t in range(EPISODE_TICKS):
            snapshot = []
            for i in range(N_FIRES):
                if t < self.ignite[i]:
                    continue
                step = (t - self.ignite[i]) // self.period[i] \
                    * self.period[i]
                fraction = min(1.0, 0.1 + 0.9 * step / self.grow[i])
                front = fronts.get((i, fraction))
                if front is None:
                    front = fronts[(i, fraction)] = interpolated_perimeter(
                        finals[i], float(lons[i]), float(lats[i]),
                        fraction)
                snapshot.append(front)
            ticks.append(snapshot)
        return ticks


def setup(seed: int) -> Incident:
    return Incident(seed)


def run_pass(incident: Incident, seconds: float) -> list[float]:
    """Replay episodes for ``seconds``; return the tick latencies.

    Between episodes (untimed) only small summaries of each episode are
    kept, so memory does not grow with the number of episodes.
    """
    tick_s: list[float] = []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(tick_s) < MIN_TICKS):
        ticks = incident.snapshots()
        state = incident.state
        before = STATS.snapshot()
        clock = time.perf_counter
        for t, snapshot in enumerate(ticks):
            t0 = clock()
            state.ingest(snapshot)
            tick_s.append(clock() - t0)
            if t % CALIBRATE_EVERY == 0:
                incident.calibration.sample()
        cum = [e.cum_impacted for e in state.events]
        incident.episodes.append({
            "counters": deterministic_part(
                counter_delta(before, STATS.snapshot())),
            "monotone": all(a <= b for a, b in zip(cum, cum[1:])),
            "mask": _digest(state.result.in_perimeter_mask),
        })
        incident.state = IncidentState(incident.cells, YEAR,
                                       population=incident.population,
                                       workers=incident.workers)
    return tick_s


def _digest(mask: np.ndarray) -> str:
    return hashlib.sha256(np.packbits(mask).tobytes()).hexdigest()


def check(incident: Incident) -> tuple[int, list[str]]:
    """Output checks, run after timing; returns (checks, failures)."""
    failures = []
    # Every episode replays the same incident, so one from-scratch
    # overlay of the final perimeters is the reference for all of them.
    ticks = incident.snapshots()
    batch = _digest(overlay_fires(incident.cells, ticks[-1], YEAR,
                                  use_cache=False).in_perimeter_mask)
    first = incident.episodes[0]
    for n, episode in enumerate(incident.episodes):
        if not episode["monotone"]:
            failures.append(f"episode {n}: cum_impacted decreased")
        if episode["mask"] != batch:
            failures.append(f"episode {n}: final mask != overlay_fires")
        if episode["counters"] != first["counters"]:
            failures.append(f"episode {n}: counters {episode['counters']}"
                            f" != episode 0 {first['counters']}")

    # One sampled tick against the index-free reference join.
    state = IncidentState(incident.cells, YEAR, workers=1)
    for snapshot in ticks[:incident.sample_tick + 1]:
        state.ingest(snapshot)
    brute = overlay_fires_bruteforce(incident.cells,
                                     ticks[incident.sample_tick], YEAR)
    if not np.array_equal(brute.in_perimeter_mask,
                          state.result.in_perimeter_mask):
        failures.append(f"tick {incident.sample_tick}: mask != "
                        f"overlay_fires_bruteforce")
    return 3 * len(incident.episodes) + 1, failures


def extras(incident: Incident) -> dict:
    return {"cores": usable_cores(), "eff_workers": incident.workers}
