"""Coverage-loss analysis (§3.11 alternate approach).

The paper scopes itself to the *physical* threat and notes: "An
alternate approach could be to examine the wildfire threat to cellular
service coverage."  This module implements that approach: each cell
site covers a radius that shrinks with local site density (dense urban
grids are capacity-driven with small cells; rural sites reach tens of
kilometers), people are covered when any site reaches them, and losing
the at-risk sites removes coverage where no surviving neighbor
overlaps.

Outputs the quantities a regulator would ask for: population covered
before/after losing at-risk sites, and population whose *only* coverage
comes from at-risk sites (single-provider-path users — the 911 concern
of §3.10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.universe import SyntheticUS
from ..data.whp import WHPClass
from ..geo.projection import meters_per_degree
from ..session import artifact, register_stage, session_of

__all__ = ["CoverageResult", "coverage_loss_analysis",
           "estimate_site_radii_m"]


def estimate_site_radii_m(universe: SyntheticUS,
                          min_radius_m: float = 1_500.0,
                          max_radius_m: float = 40_000.0) -> np.ndarray:
    """Coverage radius per *site* from the local synthetic site density.

    Radius ~ 0.8x the local area-per-site square root, so coverage is
    scale-invariant: sites cover roughly their Voronoi neighborhoods at
    any ``n_transceivers``, with urban macro cells clamped near
    ``min_radius_m`` and remote sites reaching ``max_radius_m``.
    Returns radii aligned with ``np.unique(cells.site_ids)`` order.
    """
    return session_of(universe).artifact("site_radii",
                                         min_radius_m=min_radius_m,
                                         max_radius_m=max_radius_m)


def _compute_site_radii(session, min_radius_m: float,
                        max_radius_m: float) -> np.ndarray:
    from scipy import ndimage

    universe = session.universe
    cells = universe.cells
    site_ids, first = np.unique(cells.site_ids, return_index=True)
    lons = cells.lons[first]
    lats = cells.lats[first]
    pop = universe.population
    grid = pop.grid

    counts = np.zeros(grid.shape)
    rows, cols = grid.rowcol(lons, lats)
    ok = grid.inside(rows, cols)
    np.add.at(counts, (rows[ok], cols[ok]), 1.0)
    smoothed = ndimage.gaussian_filter(counts, sigma=2.0)

    density = smoothed[np.clip(rows, 0, grid.height - 1),
                       np.clip(cols, 0, grid.width - 1)]
    cell_area = grid.cell_area_sqm(grid.height // 2)
    area_per_site = cell_area / np.clip(density, 1e-3, None)
    radius = 0.8 * np.sqrt(area_per_site)
    return np.clip(radius, min_radius_m, max_radius_m)


@dataclass
class CoverageResult:
    """Coverage before/after losing the at-risk sites."""

    population_total: float
    population_covered_before: float
    population_covered_after: float
    population_lost: float
    population_only_at_risk: float  # same as lost; kept for clarity
    sites_total: int
    sites_lost: int

    @property
    def covered_share_before(self) -> float:
        return self.population_covered_before / self.population_total

    @property
    def lost_share(self) -> float:
        return self.population_lost / self.population_total


def coverage_loss_analysis(universe: SyntheticUS,
                           hazard_floor: WHPClass = WHPClass.MODERATE) \
        -> CoverageResult:
    """Population coverage impact of losing every at-risk site.

    Coverage is computed on the population grid: a cell is covered when
    some site's radius reaches its center.  Sites whose WHP class (max
    over their transceivers) is at or above ``hazard_floor`` are
    removed, and the newly-uncovered population counted.
    """
    return session_of(universe).artifact("coverage",
                                         hazard_floor=hazard_floor)


def _compute_coverage(session, hazard_floor: WHPClass) -> CoverageResult:
    universe = session.universe
    cells = universe.cells
    pop = universe.population
    classes = session.artifact("whp_classes")

    site_ids, first = np.unique(cells.site_ids, return_index=True)
    site_lons = cells.lons[first]
    site_lats = cells.lats[first]
    radii = session.artifact("site_radii")

    # Site hazard: max class over the site's transceivers.
    order = np.argsort(cells.site_ids, kind="stable")
    sid_sorted = cells.site_ids[order]
    cls_sorted = classes[order]
    starts = np.concatenate(([0], np.nonzero(np.diff(sid_sorted))[0] + 1))
    site_class = np.maximum.reduceat(cls_sorted, starts)
    at_risk_site = site_class >= int(hazard_floor)

    covered_before = _coverage_mask(pop, site_lons, site_lats, radii)
    covered_after = _coverage_mask(pop, site_lons[~at_risk_site],
                                   site_lats[~at_risk_site],
                                   radii[~at_risk_site])

    weights = pop.raster.data
    total = float(weights.sum())
    before = float(weights[covered_before].sum())
    after = float(weights[covered_after].sum())
    lost = float(weights[covered_before & ~covered_after].sum())

    return CoverageResult(
        population_total=total,
        population_covered_before=before,
        population_covered_after=after,
        population_lost=lost,
        population_only_at_risk=lost,
        sites_total=len(site_ids),
        sites_lost=int(at_risk_site.sum()),
    )


#: Upper bound on the padded ``(sites, rows, cols)`` window block one
#: stamping pass evaluates (float64 elements), so memory stays bounded
#: at paper scale whatever the site count.
_STAMP_BLOCK_ELEMENTS = 1 << 21


def _coverage_mask(pop, site_lons, site_lats, radii_m) -> np.ndarray:
    """Boolean population-grid mask of cells within any site's radius.

    Stamps an elliptical footprint per site (lon/lat anisotropy at the
    site's latitude).  Sites are evaluated in blocks: each block pads
    its sites' grid windows to a common ``(rows, cols)`` shape, runs the
    per-site ellipse test as one broadcast, and masks the padding out.
    Sites are sorted by window area first so a block's windows are
    alike and the padding stays small.
    """
    grid = pop.grid
    covered = np.zeros(grid.shape, dtype=bool)
    site_lons = np.asarray(site_lons, dtype=float)
    site_lats = np.asarray(site_lats, dtype=float)
    radii_m = np.asarray(radii_m, dtype=float)
    # Ellipse radii and clipped grid windows for every site at once.
    _, m_lat = meters_per_degree(0.0)
    m_lon = m_lat * np.cos(np.radians(site_lats))
    rlons = radii_m / m_lon
    rlats = radii_m / m_lat
    rows0, cols0 = grid.rowcol(site_lons - rlons, site_lats + rlats)
    rows1, cols1 = grid.rowcol(site_lons + rlons, site_lats - rlats)
    rows0 = np.maximum(rows0, 0)
    cols0 = np.maximum(cols0, 0)
    n_rows = np.minimum(rows1, grid.height - 1) - rows0 + 1
    n_cols = np.minimum(cols1, grid.width - 1) - cols0 + 1
    live = np.flatnonzero((n_rows > 0) & (n_cols > 0))
    order = live[np.argsort(n_rows[live] * n_cols[live], kind="stable")]

    start = 0
    while start < len(order):
        # Areas ascend through ``order``: size the block from its first
        # window, then shrink it until the padded block fits the budget.
        stop = start + max(1, _STAMP_BLOCK_ELEMENTS
                           // int(n_rows[order[start]]
                                  * n_cols[order[start]]))
        block = order[start:stop]
        height = int(n_rows[block].max())
        width = int(n_cols[block].max())
        if len(block) * height * width > _STAMP_BLOCK_ELEMENTS:
            block = block[:max(1, _STAMP_BLOCK_ELEMENTS
                               // (height * width))]
            height = int(n_rows[block].max())
            width = int(n_cols[block].max())
        start += len(block)

        # Per site the arithmetic is the scalar stamp's: the grid is
        # separable (lon depends on col only, lat on row only), so the
        # ellipse test is an outer sum of the 1-D window terms.  Padding
        # terms are +inf, which no ellipse test passes.
        row0 = rows0[block][:, None]
        col0 = cols0[block][:, None]
        row_off = np.arange(height)
        col_off = np.arange(width)
        clons, _ = grid.cell_center(0, col0 + col_off)
        _, clats = grid.cell_center(row0 + row_off, 0)
        u = ((clons - site_lons[block][:, None])
             / rlons[block][:, None]) ** 2
        v = ((clats - site_lats[block][:, None])
             / rlats[block][:, None]) ** 2
        u[col_off >= n_cols[block][:, None]] = np.inf
        v[row_off >= n_rows[block][:, None]] = np.inf
        site, rr, cc = np.nonzero(u[:, None, :] + v[:, :, None] <= 1.0)
        covered[row0[site, 0] + rr, col0[site, 0] + cc] = True
    return covered


# ----------------------------------------------------------------------
# Registrations
# ----------------------------------------------------------------------

@artifact("site_radii")
def _site_radii_artifact(session, min_radius_m: float = 1_500.0,
                         max_radius_m: float = 40_000.0) -> np.ndarray:
    """Per-site coverage radius from local site density."""
    return _compute_site_radii(session, min_radius_m, max_radius_m)


@artifact("coverage", deps=("whp_classes", "site_radii"))
def _coverage_artifact(
        session,
        hazard_floor: WHPClass = WHPClass.MODERATE) -> CoverageResult:
    """S3.11 population-coverage impact of losing at-risk sites."""
    return _compute_coverage(session, hazard_floor)


register_stage("coverage", help="coverage loss (S3.11)",
               paper="§3.11", artifact="coverage",
               render="render_coverage", order=140,
               domain="infrastructure")
