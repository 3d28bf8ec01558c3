"""Named what-if bundles: parameterized hazards run as ensembles.

A :class:`Scenario` is a named, fully-parameterized bundle — a hazard
variant (possibly compound: extra hazards' events ride along in every
member), a season year, and an ensemble size.  Running one draws N
independent members (:meth:`Hazard.ensemble_member`), joins each
member's event list against the transceiver universe, and summarizes
the impact distribution.  The ensemble fans out through the *existing*
pool/shm machinery: each member is exactly the fire-slice task shape
the batch overlay ships to workers, so members run concurrently on the
persistent universe pool with zero new worker code.

Scenarios are session artifacts (``session.artifact("scenario",
scenario=..., members=...)``) and a CLI stage (``repro scenario
NAME``), so every run lands in the run ledger with the scenario name
in its artifact label and manifest.

The catalog:

* ``grid-ignition-season`` — a season of utility-sparked fires along
  PSPS-candidate lines (the :class:`GridIgnitedFireHazard` default);
* ``2025-la-style`` — a compound wind-driven event: few, highly
  elongated grid-ignited fires *plus* severe-wind swaths in the same
  members (cf. the January 2025 LA firestorm's ignition inquiries);
* ``wui-expansion`` — the wildfire hazard with national burned
  acreage grown 60%, a what-if for WUI growth under climate change.

Core-engine imports stay inside functions: this module loads with the
hazard package, before :mod:`repro.core` exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs.trace import span as trace_span
from ..runtime.stats import STATS
from ..session import StageOption, artifact, register_stage
from .base import Hazard
from .grid_fire import GridIgnitedFireHazard
from .wildfire import WildfireHazard
from .wind import WindFootprintHazard

__all__ = ["Scenario", "MemberImpact", "ScenarioResult",
           "register_scenario", "get_scenario", "scenario_names",
           "run_scenario", "ensemble_impacts"]


@dataclass(frozen=True)
class Scenario:
    """One named bundle: hazard variant + year + ensemble size."""

    name: str
    help: str
    hazard: Hazard
    year: int
    members: int
    #: Hazards whose member events are appended to every member's list
    #: (compound events: a wind field arriving with the fires).
    extra_hazards: tuple = ()


@dataclass(frozen=True)
class MemberImpact:
    """One ensemble member's impact summary."""

    member: int
    n_events: int
    total_acres: float
    impacted: int


@dataclass
class ScenarioResult:
    """A finished scenario run: the member impact distribution."""

    name: str
    hazard: str
    year: int
    members: list[MemberImpact] = field(default_factory=list)

    @property
    def n_members(self) -> int:
        return len(self.members)

    @property
    def mean_impacted(self) -> float:
        if not self.members:
            return 0.0
        return float(np.mean([m.impacted for m in self.members]))

    @property
    def max_impacted(self) -> int:
        return max((m.impacted for m in self.members), default=0)

    @property
    def min_impacted(self) -> int:
        return min((m.impacted for m in self.members), default=0)


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------

_SCENARIOS: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    if scenario.name in _SCENARIOS:
        raise ValueError(
            f"scenario {scenario.name!r} registered twice")
    _SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    try:
        return _SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(_SCENARIOS))
        raise KeyError(
            f"unknown scenario {name!r} (known: {known})") from None


def scenario_names() -> tuple[str, ...]:
    return tuple(sorted(_SCENARIOS))


register_scenario(Scenario(
    name="grid-ignition-season",
    help="a season of utility-sparked fires on PSPS-candidate lines",
    hazard=GridIgnitedFireHazard(),
    year=2019,
    members=6))

register_scenario(Scenario(
    name="2025-la-style",
    help="compound wind-driven event: elongated grid fires + "
         "severe-wind swaths",
    hazard=GridIgnitedFireHazard(n_events=24, total_acres=900_000.0,
                                 elongation_range=(2.5, 4.0)),
    year=2025,
    members=4,
    extra_hazards=(WindFootprintHazard(n_events=12,
                                       total_acres=1_500_000.0),)))

register_scenario(Scenario(
    name="wui-expansion",
    help="wildfire season with national burned acreage grown 60%",
    hazard=WildfireHazard(acreage_multiplier=1.6),
    year=2019,
    members=5))


# ----------------------------------------------------------------------
# Ensemble runner
# ----------------------------------------------------------------------

def ensemble_impacts(universe, member_events: list[list], year: int, *,
                     workers: int | None = None) -> list[int]:
    """Unique-transceiver impact count per member event list.

    Members dispatch as whole tasks through the persistent universe
    pool — the exact task shape (a fire list in, per-fire counts plus
    global hit indices out) the batch overlay shards by fire slices —
    so an N-member ensemble costs one warm pool round-trip.  The pool
    never outnumbers the members or the CPU budget.  Pool failure falls
    back to the serial joins, bit-identically.
    """
    from ..core import overlay as ov
    from ..runtime import dispatch, get_config, run_tasks

    cells = universe.cells
    if workers is None:
        workers = get_config().workers
    eff_workers = max(1, min(workers, len(member_events),
                             dispatch.cpu_budget()))

    results = None
    if eff_workers > 1:
        initializer, initargs = ov._overlay_pool_init(cells)
        results = run_tasks(
            "overlay", eff_workers, cells.content_token(),
            ov._overlay_fires_task, member_events,
            initializer=initializer, initargs=initargs)
    if results is not None:
        impacts = []
        for _, hits, delta in results:
            STATS.merge(delta)
            impacts.append(int(np.unique(hits).size))
        return impacts
    return [ov._overlay_serial(cells, events, year).n_in_perimeter
            for events in member_events]


def run_scenario(universe, name: str, *, members: int | None = None,
                 workers: int | None = None) -> ScenarioResult:
    """Run a named scenario ensemble against a universe."""
    scenario = get_scenario(name)
    n_members = scenario.members if members is None else int(members)
    if n_members < 1:
        raise ValueError("a scenario needs at least one member")

    with trace_span("scenario", scenario=name, members=n_members):
        with STATS.timer("scenario"):
            member_events = []
            for m in range(n_members):
                events = list(scenario.hazard.ensemble_member(
                    universe, scenario.year, m))
                for extra in scenario.extra_hazards:
                    events.extend(extra.ensemble_member(
                        universe, scenario.year, m))
                member_events.append(events)
            impacts = ensemble_impacts(universe, member_events,
                                       scenario.year, workers=workers)

    result = ScenarioResult(name=name, hazard=scenario.hazard.name,
                            year=scenario.year)
    for m, (events, impacted) in enumerate(zip(member_events,
                                               impacts)):
        result.members.append(MemberImpact(
            member=m,
            n_events=len(events),
            total_acres=float(sum(getattr(e, "acres", 0.0)
                                  for e in events)),
            impacted=impacted))
    return result


# ----------------------------------------------------------------------
# Registrations
# ----------------------------------------------------------------------

@artifact("scenario",
          doc="named multi-hazard what-if ensemble (impact distribution)")
def _scenario_artifact(session, scenario: str = "grid-ignition-season",
                       members: int | None = None) -> ScenarioResult:
    return run_scenario(session.universe, scenario, members=members)


def _export_scenario(session, ctx) -> dict:
    result = session.artifact("scenario")
    return {"scenario": {
        "name": result.name,
        "hazard": result.hazard,
        "year": result.year,
        "members": [{
            "member": m.member,
            "n_events": m.n_events,
            "total_acres": round(m.total_acres, 1),
            "impacted": m.impacted,
        } for m in result.members],
        "mean_impacted": result.mean_impacted,
        "max_impacted": result.max_impacted,
    }}


register_stage("scenario",
               help="run a named what-if ensemble "
                    "(see docs/hazards.md for the catalog)",
               paper="§3.11", artifact="scenario",
               render="render_scenario", order=None,
               domain="hazards",
               options=(
                   StageOption("scenario", type=str,
                               default="grid-ignition-season",
                               choices=scenario_names(), nargs="?",
                               help="scenario name (default: "
                                    "grid-ignition-season)"),
                   StageOption("--members", type=int, default=None,
                               help="override the bundle's ensemble "
                                    "size"),
               ),
               params=("scenario", "members"),
               export=_export_scenario)
