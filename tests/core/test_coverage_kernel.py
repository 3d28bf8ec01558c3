"""Differential tests: the blocked coverage stamp against its scalar loop.

``_coverage_loop`` is the per-site stamping loop the §3.11 coverage
analysis used before it moved onto padded ``(sites, rows, cols)``
blocks; it stays here as the oracle.  The two must agree bit for bit on
every grid, including windows clipped at each of the four grid edges,
windows that clip to nothing, and blocks split by the element budget.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import coverage
from repro.core.coverage import _coverage_mask
from repro.geo.geometry import BBox
from repro.geo.projection import meters_per_degree
from repro.geo.raster import GridSpec
from repro.session import session_of

GRID = GridSpec(BBox(-104.0, 36.0, -100.0, 39.0), 0.05)


def _coverage_loop(pop, site_lons, site_lats, radii_m) -> np.ndarray:
    """The retired scalar stamp: one window per site, in site order."""
    grid = pop.grid
    covered = np.zeros(grid.shape, dtype=bool)
    site_lons = np.asarray(site_lons, dtype=float)
    site_lats = np.asarray(site_lats, dtype=float)
    radii_m = np.asarray(radii_m, dtype=float)
    _, m_lat = meters_per_degree(0.0)
    m_lon = m_lat * np.cos(np.radians(site_lats))
    rlons = radii_m / m_lon
    rlats = radii_m / m_lat
    rows0, cols0 = grid.rowcol(site_lons - rlons, site_lats + rlats)
    rows1, cols1 = grid.rowcol(site_lons + rlons, site_lats - rlats)
    for lon, lat, rlon, rlat, row0, col0, row1, col1 in zip(
            site_lons.tolist(), site_lats.tolist(), rlons.tolist(),
            rlats.tolist(), rows0.tolist(), cols0.tolist(),
            rows1.tolist(), cols1.tolist()):
        row0 = max(row0, 0)
        col0 = max(col0, 0)
        row1 = min(row1, grid.height - 1)
        col1 = min(col1, grid.width - 1)
        if row0 > row1 or col0 > col1:
            continue
        rows = np.arange(row0, row1 + 1)
        cols = np.arange(col0, col1 + 1)
        clons, _ = grid.cell_center(0, cols)
        _, clats = grid.cell_center(rows, 0)
        u = ((clons - lon) / rlon) ** 2
        v = ((clats - lat) / rlat) ** 2
        inside = (u[None, :] + v[:, None]) <= 1.0
        covered[row0:row1 + 1, col0:col1 + 1] |= inside
    return covered


def _pop(grid=GRID):
    return SimpleNamespace(grid=grid)


def _columns(rows):
    """(lons, lats, radii) arrays from (lon, lat, radius) tuples."""
    arr = np.array(rows, dtype=float).reshape(-1, 3)
    return arr[:, 0], arr[:, 1], arr[:, 2]


# Sites anywhere from well outside the grid (windows that clip to
# nothing) across every edge into the interior.
sites = st.lists(
    st.tuples(st.floats(min_value=-106.0, max_value=-98.0),
              st.floats(min_value=34.0, max_value=41.0),
              st.floats(min_value=10.0, max_value=120_000.0)),
    min_size=0, max_size=60)


@given(sites)
@settings(max_examples=120, deadline=None)
def test_blocked_stamp_matches_scalar_loop(rows):
    lons, lats, radii = _columns(rows)
    np.testing.assert_array_equal(
        _coverage_mask(_pop(), lons, lats, radii),
        _coverage_loop(_pop(), lons, lats, radii))


@given(sites, st.integers(min_value=1, max_value=400))
@settings(max_examples=60, deadline=None)
def test_block_budget_does_not_change_the_mask(rows, budget):
    """Tiny budgets split blocks down to single sites; same mask."""
    lons, lats, radii = _columns(rows)
    saved = coverage._STAMP_BLOCK_ELEMENTS
    coverage._STAMP_BLOCK_ELEMENTS = budget
    try:
        blocked = _coverage_mask(_pop(), lons, lats, radii)
    finally:
        coverage._STAMP_BLOCK_ELEMENTS = saved
    np.testing.assert_array_equal(
        blocked, _coverage_loop(_pop(), lons, lats, radii))


def test_windows_clipped_at_each_edge():
    """Big footprints centred just past each of the four grid edges."""
    b = GRID.bbox
    lons = np.array([b.min_lon - 0.1, b.max_lon + 0.1,
                     (b.min_lon + b.max_lon) / 2] * 2 + [b.min_lon])
    lats = np.array([(b.min_lat + b.max_lat) / 2] * 2 + [b.max_lat + 0.1]
                    + [(b.min_lat + b.max_lat) / 2] * 2
                    + [b.min_lat - 0.1, b.min_lat])
    radii = np.full(len(lons), 60_000.0)
    mask = _coverage_mask(_pop(), lons, lats, radii)
    np.testing.assert_array_equal(
        mask, _coverage_loop(_pop(), lons, lats, radii))
    assert mask[0].any() and mask[-1].any()
    assert mask[:, 0].any() and mask[:, -1].any()


def test_all_windows_outside_is_empty():
    lons = np.array([-120.0, -80.0])
    lats = np.array([37.0, 37.0])
    radii = np.array([5_000.0, 5_000.0])
    assert not _coverage_mask(_pop(), lons, lats, radii).any()


def test_universe_sites_match_scalar_loop(universe):
    """The real site set on the real population grid."""
    cells = universe.cells
    _, first = np.unique(cells.site_ids, return_index=True)
    radii = session_of(universe).artifact("site_radii")
    pop = universe.population
    lons, lats = cells.lons[first], cells.lats[first]
    np.testing.assert_array_equal(
        _coverage_mask(pop, lons, lats, radii),
        _coverage_loop(pop, lons, lats, radii))
