"""Differential tests: the batched polygon query against the retired
per-polygon body.

``_query_polygon_oracle`` is the single-polygon query
:meth:`UniformGridIndex.query_polygons` replaced.  The batch must return
the oracle's hits for every polygon (values, order, dtype) and add the
same totals to every ``index.*`` counter, for any block budget.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.overlay import overlay_fires
from repro.data.cells import CellUniverse
from repro.data.wildfires import FirePerimeter, star_polygon
from repro.geo import index as index_mod
from repro.geo.geometry import MultiPolygon, Polygon
from repro.geo.index import UniformGridIndex
from repro.runtime import config as runtime_config
from repro.runtime import dispatch as runtime_dispatch
from repro.runtime import shutdown_pools
from repro.runtime.stats import STATS

COUNTERS = ("index.bbox_queries", "index.candidates", "index.hits",
            "index.polygon_queries", "index.pip_tests", "index.pip_hits")


def _query_polygon_oracle(index, polygon) -> np.ndarray:
    """The retired one-polygon query body."""
    STATS.count("index.bbox_queries")
    runs = index._candidate_runs(polygon.bbox)
    if runs is None:
        return np.empty(0, dtype=np.int64)
    starts, ends, _ = runs
    cand, clons, clats = index._bbox_filtered(polygon.bbox, starts, ends)
    if len(cand) == 0:
        return cand
    keep = polygon.contains_many(clons, clats)
    out = cand[keep]
    STATS.count("index.polygon_queries")
    STATS.count("index.pip_tests", len(cand))
    STATS.count("index.pip_hits", len(out))
    return out


def _counted(fn):
    """``(result, index.* counter deltas)`` of ``fn()``."""
    before = STATS.snapshot()
    result = fn()
    delta = STATS.delta_since(before)["counters"]
    return result, {k: v for k, v in delta.items() if k in COUNTERS}


def assert_batch_matches_oracle(index, polygons):
    got, got_counts = _counted(lambda: index.query_polygons(polygons))
    want, want_counts = _counted(
        lambda: [_query_polygon_oracle(index, p) for p in polygons])
    assert len(got) == len(want) == len(polygons)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int64
        assert np.array_equal(g, w)
    assert got_counts == want_counts
    return got


def _box(x0, y0, x1, y1) -> Polygon:
    return Polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


def _star(rng, lon, lat, acres) -> Polygon:
    return star_polygon(lon, lat, acres, rng)


# ----------------------------------------------------------------------
# Hypothesis: random universes, perimeters and block budgets
# ----------------------------------------------------------------------

polygon_specs = st.lists(
    st.tuples(st.sampled_from(["star", "box", "multi", "holed", "far"]),
              st.floats(min_value=-112.5, max_value=-103.5),
              st.floats(min_value=32.5, max_value=41.5),
              st.floats(min_value=100.0, max_value=3_000_000.0)),
    min_size=0, max_size=25)


def _polygons(specs, seed):
    rng = np.random.default_rng(seed)
    out = []
    for kind, lon, lat, acres in specs:
        if kind == "star":
            out.append(_star(rng, lon, lat, acres))
        elif kind == "box":
            half = 0.05 + (acres / 3e6)
            out.append(_box(lon - half, lat - half / 2, lon + half,
                            lat + half))
        elif kind == "multi":
            out.append(MultiPolygon([_star(rng, lon, lat, acres),
                                     _star(rng, lon + 0.6, lat - 0.4,
                                           acres / 3)]))
        elif kind == "holed":
            out.append(Polygon(
                [(lon - 0.5, lat - 0.5), (lon + 0.5, lat - 0.5),
                 (lon + 0.5, lat + 0.5), (lon - 0.5, lat + 0.5)],
                holes=[[(lon - 0.2, lat - 0.2), (lon + 0.2, lat - 0.2),
                        (lon + 0.2, lat + 0.2), (lon - 0.2, lat + 0.2)]]))
        else:
            out.append(_box(lon + 30.0, lat + 20.0, lon + 31.0,
                            lat + 21.0))
    return out


@settings(max_examples=60, deadline=None)
@given(polygon_specs,
       st.integers(min_value=0, max_value=3000),
       st.sampled_from([0.05, 0.25, 0.7]),
       st.sampled_from([1, 7, 100, 2_000_000]),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_query_polygons_match_per_polygon_oracle(specs, n_points, cell_deg,
                                                 budget, seed):
    rng = np.random.default_rng(seed)
    lons = rng.uniform(-112.0, -104.0, n_points)
    lats = rng.uniform(33.0, 41.0, n_points)
    index = UniformGridIndex(lons, lats, cell_deg=cell_deg)
    polygons = _polygons(specs, seed)
    orig = index_mod._QUERY_BLOCK_ELEMENTS
    index_mod._QUERY_BLOCK_ELEMENTS = budget
    try:
        assert_batch_matches_oracle(index, polygons)
    finally:
        index_mod._QUERY_BLOCK_ELEMENTS = orig


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=-1.0, max_value=1.0),
                          st.floats(min_value=-1.0, max_value=1.0),
                          st.floats(min_value=0.0, max_value=0.6),
                          st.floats(min_value=0.0, max_value=0.6)),
                min_size=1, max_size=20),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_boxes_on_bucket_edges(boxes, seed):
    """Quarter-degree coordinates put points and box edges exactly on
    bucket boundaries (where floor-division windows are most fragile)
    and points exactly on box edges (where the closed bbox filter
    decides the ``index.hits`` count)."""
    rng = np.random.default_rng(seed)
    lons = np.round(rng.uniform(-1.0, 1.0, 400) * 4) / 4
    lats = np.round(rng.uniform(-1.0, 1.0, 400) * 4) / 4
    index = UniformGridIndex(lons, lats, cell_deg=0.25)
    polygons = [_box(x, y, x + max(w, 1e-3), y + max(h, 1e-3))
                for x, y, w, h in boxes]
    polygons += [_box(*(np.round(np.array([x, y, x + w, y + h]) * 4) / 4
                        + [0, 0, 0.25, 0.25]))
                 for x, y, w, h in boxes]
    assert_batch_matches_oracle(index, polygons)


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------

@pytest.fixture()
def grid_index():
    rng = np.random.default_rng(5)
    lons = rng.uniform(-110.0, -106.0, 5000)
    lats = rng.uniform(35.0, 39.0, 5000)
    return UniformGridIndex(lons, lats, cell_deg=0.25)


def test_empty_polygon_list(grid_index):
    (got, counts) = _counted(lambda: grid_index.query_polygons([]))
    assert got == [] and counts == {}


def test_empty_index():
    index = UniformGridIndex(np.empty(0), np.empty(0))
    polys = [_box(-1, -1, 1, 1), _box(5, 5, 6, 6)]
    got = assert_batch_matches_oracle(index, polys)
    assert all(len(g) == 0 for g in got)


def test_polygons_outside_the_index_bbox(grid_index):
    polys = [_box(-130, 20, -125, 25), _box(-105.9, 35, -105, 36),
             _box(-110, 39.01, -109, 40)]
    got = assert_batch_matches_oracle(grid_index, polys)
    assert all(len(g) == 0 for g in got)


def test_bbox_in_the_spare_east_column_beyond_max_lon(grid_index):
    """``ncols`` keeps one spare bucket column east of the data; a box
    inside that column but east of ``max_lon`` has no candidates."""
    ib = grid_index.bbox
    col_end = ib.min_lon + grid_index._ncols * grid_index.cell_deg
    assert col_end > ib.max_lon
    x0 = ib.max_lon + (col_end - ib.max_lon) / 4
    polys = [_box(x0, 36.0, x0 + (col_end - ib.max_lon) / 4, 37.0),
             _box(ib.max_lon - 0.1, 36.0, col_end - 1e-9, 37.0)]
    got = assert_batch_matches_oracle(grid_index, polys)
    assert len(got[0]) == 0 and len(got[1]) > 0


def test_multipolygons(grid_index):
    rng = np.random.default_rng(11)
    polys = [MultiPolygon([_star(rng, -108.0, 37.0, 400_000),
                           _star(rng, -109.2, 38.1, 150_000)]),
             _star(rng, -107.0, 36.0, 80_000)]
    got = assert_batch_matches_oracle(grid_index, polys)
    assert len(got[0]) > 0


def test_block_budget_of_one(grid_index, monkeypatch):
    rng = np.random.default_rng(3)
    polys = [_star(rng, float(x), float(y), 300_000)
             for x, y in zip(rng.uniform(-110, -106, 12),
                             rng.uniform(35, 39, 12))]
    unbounded = grid_index.query_polygons(polys)
    monkeypatch.setattr(index_mod, "_QUERY_BLOCK_ELEMENTS", 1)
    got = assert_batch_matches_oracle(grid_index, polys)
    for g, u in zip(got, unbounded):
        assert np.array_equal(g, u)


def test_query_polygon_wraps_the_batch(grid_index):
    rng = np.random.default_rng(8)
    poly = _star(rng, -108.0, 37.0, 500_000)
    got, counts = _counted(lambda: grid_index.query_polygon(poly))
    want, want_counts = _counted(
        lambda: _query_polygon_oracle(grid_index, poly))
    assert np.array_equal(got, want) and counts == want_counts


def test_rebuilt_index_matches(grid_index):
    """The shared-memory snapshot path answers identically."""
    rebuilt = UniformGridIndex.from_arrays(grid_index.to_arrays())
    rng = np.random.default_rng(2)
    polys = [_star(rng, -108.5, 36.5, 900_000), _box(-109, 35, -107, 38)]
    for g, w in zip(rebuilt.query_polygons(polys),
                    grid_index.query_polygons(polys)):
        assert np.array_equal(g, w)


# ----------------------------------------------------------------------
# The pooled ensemble join runs the batch inside workers
# ----------------------------------------------------------------------

def test_pooled_overlay_matches_per_polygon_loop(monkeypatch):
    monkeypatch.setattr(runtime_config, "MIN_PARALLEL_POINTS", 64)
    monkeypatch.setattr(runtime_dispatch, "OVERLAY_WORK_FACTOR", 1)
    monkeypatch.setattr(runtime_dispatch, "CPU_COUNT_OVERRIDE", 4)
    rng = np.random.default_rng(17)
    n = 4000
    cells = CellUniverse(
        lons=rng.uniform(-112.0, -104.0, n),
        lats=rng.uniform(33.0, 41.0, n),
        site_ids=np.arange(n, dtype=np.int64),
        mcc=np.full(n, 310, dtype=np.int32),
        mnc=np.zeros(n, dtype=np.int32),
        provider_group=np.zeros(n, dtype=np.int8),
        radio=np.zeros(n, dtype=np.int8))
    fires = [FirePerimeter(name=f"F{i}", year=2018, start_doy=150,
                           end_doy=160, acres=3e5,
                           polygon=_star(rng, float(rng.uniform(-111, -105)),
                                         float(rng.uniform(34, 40)), 3e5))
             for i in range(24)]
    try:
        before = STATS.snapshot()
        got = overlay_fires(cells, fires, year=2018, workers=4,
                            use_cache=False, keep_hits=True)
        delta = STATS.delta_since(before)["counters"]
    finally:
        shutdown_pools()
    index = cells.index()
    want = [_query_polygon_oracle(index, f.polygon) for f in fires]
    mask = np.zeros(n, dtype=bool)
    for f, hits in zip(fires, want):
        assert np.array_equal(got.per_fire_hits[f.name], hits)
        assert got.per_fire_counts[f.name] == len(hits)
        mask[hits] = True
    assert np.array_equal(got.in_perimeter_mask, mask)
    if not delta.get("parallel.fallbacks"):
        assert delta.get("pool.tasks", 0) > 0
