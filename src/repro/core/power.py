"""Power-dependency risk analysis (§3.11 follow-on work).

The paper's strongest empirical finding is that power loss dominates
wildfire-related cell outages (>80% on the 2019 peak day), yet its WHP
analysis scores only the *direct* fire threat at each site.  This module
quantifies the indirect channel the authors left to future work: a cell
site goes dark when a fire damages its substation or forces a Public
Safety Power Shutoff on a line that feeds it — even when the site
itself is nowhere near the fire.

Two analyses:

* :func:`fire_power_impact` — for a fire season, compare sites affected
  *directly* (inside a perimeter) with sites affected *indirectly*
  (upstream substation in a perimeter or feeder line de-energized).
  The paper's §3.2 observation predicts indirect ≫ direct.
* :func:`psps_exposure` — which transmission lines cross high-WHP
  terrain (shutoff candidates), and how many sites/people hang off
  them; the planning quantity behind "providers could work with power
  utilities" (§3.10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.powergrid import PowerGrid, build_power_grid
from ..data.universe import SyntheticUS
from ..data.whp import WHPClass
from ..session import StageOption, artifact, register_stage, session_of

__all__ = ["PowerImpact", "fire_power_impact", "PspsExposure",
           "psps_exposure", "power_grid_for"]


def power_grid_for(universe: SyntheticUS,
                   n_substations: int = 400) -> PowerGrid:
    """Build (and memoize per-session) the synthetic power grid."""
    return session_of(universe).artifact("power_grid",
                                         n_substations=n_substations)


@dataclass
class PowerImpact:
    """Direct vs indirect outage exposure for one fire season."""

    year: int
    sites_direct: int          # sites inside a fire perimeter
    sites_indirect: int        # powered down but outside any perimeter
    sites_total_affected: int
    substations_hit: int
    lines_cut: int
    indirect_ratio: float      # indirect / direct (the §3.2 story)


def fire_power_impact(universe: SyntheticUS, year: int = 2019,
                      grid: PowerGrid | None = None) -> PowerImpact:
    """Quantify direct vs power-mediated site outages for a season.

    A substation inside any perimeter is destroyed; lines crossing the
    at-risk cells covered by fires are de-energized (PSPS during the
    event).  Sites inside perimeters are direct; sites outside that
    lose upstream power are indirect.
    """
    session = session_of(universe)
    if grid is None:
        return session.artifact("power_impact", year=year)
    return _compute_power_impact(session, year, grid)


def _compute_power_impact(session, year: int,
                          grid: PowerGrid) -> PowerImpact:
    universe = session.universe
    cells = universe.cells
    season = universe.fire_season(year)

    # Direct: sites with any transceiver inside a perimeter.
    fire_hits = cells.index().query_polygons(
        [fire.polygon for fire in season.fires])
    direct_tx = np.zeros(len(cells), dtype=bool)
    if fire_hits:
        direct_tx[np.concatenate(fire_hits)] = True
    dead_subs: set[int] = set()
    for fire in season.fires:
        dead_subs.update(
            int(s) for s in grid.substations_in_polygon(fire.polygon))
    direct_sites = set(np.unique(cells.site_ids[direct_tx]).tolist())

    # PSPS: de-energize lines crossing at-risk cells that burned.
    whp = universe.whp
    burned_at_risk = np.zeros(whp.grid.shape, dtype=bool)
    from ..geo.raster import rasterize_polygon
    for fire in season.fires:
        if fire.acres < 5_000:
            continue  # small fires do not trigger shutoffs
        burned_at_risk |= rasterize_polygon(whp.grid, fire.polygon)
    burned_at_risk &= whp.at_risk_mask()
    cut_lines = set(int(i) for i in
                    grid.lines_crossing_mask(whp, burned_at_risk))

    dead_sites = grid.dead_sites(dead_subs, cut_lines)
    # Distribution feeders crossing burned hazard cells also cut power
    # (the dominant §3.2 channel: sites far from the fire lose their
    # feed when it runs through de-energized or burned terrain).
    dead_sites |= grid.feeder_cut_sites(cells, whp, burned_at_risk)
    indirect_sites = dead_sites - direct_sites
    total = len(dead_sites | direct_sites)

    return PowerImpact(
        year=year,
        sites_direct=len(direct_sites),
        sites_indirect=len(indirect_sites),
        sites_total_affected=total,
        substations_hit=len(dead_subs),
        lines_cut=len(cut_lines),
        indirect_ratio=(len(indirect_sites) / len(direct_sites)
                        if direct_sites else float("inf")),
    )


@dataclass
class PspsExposure:
    """Standing PSPS exposure of the cell network."""

    n_lines_at_risk: int       # lines crossing high/very-high WHP
    n_lines_total: int
    sites_exposed: int         # sites whose substation feeds via them
    sites_total: int
    exposed_share: float


def psps_exposure(universe: SyntheticUS,
                  grid: PowerGrid | None = None,
                  hazard_floor: WHPClass = WHPClass.HIGH) -> PspsExposure:
    """How much of the network hangs off shutoff-candidate lines.

    A site is exposed when *every* path from its substation to the bulk
    grid traverses an at-risk line — i.e. de-energizing the candidate
    lines leaves it dark.
    """
    session = session_of(universe)
    if grid is None:
        return session.artifact("psps", hazard_floor=hazard_floor)
    return _compute_psps(session, grid, hazard_floor)


def _compute_psps(session, grid: PowerGrid,
                  hazard_floor: WHPClass) -> PspsExposure:
    universe = session.universe
    whp = universe.whp
    mask = whp.raster.data >= int(hazard_floor)
    candidates = set(int(i) for i in grid.lines_crossing_mask(whp, mask))
    dead = grid.dead_sites(set(), candidates)
    dead |= grid.feeder_cut_sites(universe.cells, whp, mask)
    n_sites = len(grid.site_substation)
    return PspsExposure(
        n_lines_at_risk=len(candidates),
        n_lines_total=grid.n_lines,
        sites_exposed=len(dead),
        sites_total=n_sites,
        exposed_share=len(dead) / max(n_sites, 1),
    )


# ----------------------------------------------------------------------
# Registrations
# ----------------------------------------------------------------------

@artifact("power_grid")
def _power_grid_artifact(session, n_substations: int = 400) -> PowerGrid:
    """Synthetic power grid shared by the S3.11 power analyses."""
    universe = session.universe
    return build_power_grid(
        universe.population, universe.cells,
        n_substations=n_substations,
        seed=universe.config.seed + 5)


@artifact("power_impact", deps=("power_grid",))
def _power_impact_artifact(session, year: int = 2019) -> PowerImpact:
    """Direct vs power-mediated site outages for one fire season."""
    return _compute_power_impact(session, year,
                                 session.artifact("power_grid"))


@artifact("psps", deps=("power_grid",))
def _psps_artifact(session,
                   hazard_floor: WHPClass = WHPClass.HIGH) -> PspsExposure:
    """Standing PSPS exposure of the network."""
    return _compute_psps(session, session.artifact("power_grid"),
                         hazard_floor)


register_stage("power", help="power dependency (S3.11)",
               paper="§3.11", artifact="power_impact",
               render="render_power", order=130, domain="infrastructure",
               options=(StageOption("--year", type=int, default=2019),),
               params=("year",))


register_stage("psps", help="PSPS shutoff exposure (S3.10-3.11)",
               paper="§3.10", artifact="psps", render="render_psps",
               domain="infrastructure")
