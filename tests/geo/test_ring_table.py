"""Differential tests: the packed ring table's batched point-in-polygon
kernel against the per-polygon loop it replaced.

``_contains_oracle`` is the loop :meth:`UniformGridIndex.query_polygons`
ran before ring tables: one ``polygon.contains_many`` call per polygon
over that polygon's candidates.  :meth:`RingTable.contains` must give
every candidate the oracle's verdict, for any pair budget, and the
index query built on it must return the per-polygon oracle's hits with
the same ``index.*`` counter totals.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import rings as rings_mod
from repro.geo.geojson import geometry_from_geojson
from repro.geo.geometry import MultiPolygon, Polygon
from repro.geo.index import UniformGridIndex
from repro.geo.rings import RingTable
from tests.geo.test_query_polygons import assert_batch_matches_oracle


def _contains_oracle(polygons, cpoly, px, py) -> np.ndarray:
    """The retired loop: one ``contains_many`` call per polygon."""
    inside = np.zeros(len(cpoly), dtype=bool)
    for p in np.unique(cpoly).tolist():
        sel = np.flatnonzero(cpoly == p)
        inside[sel] = polygons[p].contains_many(px[sel], py[sel])
    return inside


def _ring(rng, n, cx, cy, radius, grid):
    """A star-shaped ring of ``n`` vertices, snapped to ``grid`` (if
    any) so edges run horizontal and vertices sit on exact values."""
    theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    r = radius * rng.uniform(0.3, 1.0, n)
    ring = np.column_stack([cx + r * np.cos(theta), cy + r * np.sin(theta)])
    if grid:
        ring = np.round(ring / grid) * grid
    return ring


def _closed(ring) -> list:
    """GeoJSON ring: closing vertex repeated."""
    return np.vstack([ring, ring[:1]]).tolist()


def _probe_points(rng, polygon, n_random):
    """Random points around the polygon, every vertex, every edge
    midpoint, and points level with every vertex."""
    parts = polygon.polygons if isinstance(polygon, MultiPolygon) \
        else (polygon,)
    rings = [r for p in parts for r in (p.exterior, *p.holes)]
    verts = np.concatenate(rings)
    mids = np.concatenate([(r + np.roll(r, -1, axis=0)) / 2.0
                           for r in rings])
    b = polygon.bbox
    pad = 0.1 * max(b.width, b.height, 1e-3)
    rand = np.column_stack([
        rng.uniform(b.min_lon - pad, b.max_lon + pad, n_random),
        rng.uniform(b.min_lat - pad, b.max_lat + pad, n_random)])
    level = np.column_stack([
        rng.uniform(b.min_lon - pad, b.max_lon + pad, len(verts)),
        verts[:, 1]])
    return np.concatenate([rand, verts, mids, level])


ring_sizes = st.one_of(st.integers(min_value=3, max_value=12),
                       st.sampled_from([24, 100, 500, 2000]))
grids = st.sampled_from([None, 1.0 / 16, 1.0 / 1024])


@st.composite
def polygon_lists(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    kinds = draw(st.lists(st.sampled_from(["plain", "holed", "multi"]),
                          min_size=1, max_size=6))
    polygons = []
    for kind in kinds:
        n = draw(ring_sizes)
        grid = draw(grids)
        cx, cy = rng.uniform(-110.0, -100.0), rng.uniform(30.0, 45.0)
        radius = rng.uniform(0.05, 2.0)
        ext = _ring(rng, n, cx, cy, radius, grid)
        try:
            if kind == "plain":
                polygons.append(Polygon(ext))
            elif kind == "holed":
                hole = _ring(rng, draw(ring_sizes), cx, cy, 0.25 * radius,
                             grid)
                polygons.append(geometry_from_geojson(
                    {"type": "Polygon",
                     "coordinates": [_closed(ext), _closed(hole)]}))
            else:
                other = _ring(rng, draw(ring_sizes), cx + 2.5 * radius,
                              cy, radius, grid)
                hole = _ring(rng, 5, cx + 2.5 * radius, cy,
                             0.2 * radius, grid)
                polygons.append(geometry_from_geojson(
                    {"type": "MultiPolygon",
                     "coordinates": [[_closed(ext)],
                                     [_closed(other), _closed(hole)]]}))
        except ValueError:
            continue  # snapping collapsed a ring below 3 vertices
    return seed, polygons


@settings(max_examples=60, deadline=None)
@given(polygon_lists(), st.sampled_from([1, 37, 262_144]),
       st.booleans())
def test_kernel_matches_per_polygon_oracle(case, budget, shuffle):
    seed, polygons = case
    rng = np.random.default_rng(seed)
    pts = [_probe_points(rng, p, 40) for p in polygons]
    cpoly = np.repeat(np.arange(len(polygons)), [len(p) for p in pts])
    xy = np.concatenate(pts) if pts else np.empty((0, 2))
    if shuffle:
        order = rng.permutation(len(cpoly))
        cpoly, xy = cpoly[order], xy[order]
    table = RingTable.of(polygons)
    orig = rings_mod._PIP_BLOCK_ELEMENTS
    rings_mod._PIP_BLOCK_ELEMENTS = budget
    try:
        got = table.contains(cpoly, xy[:, 0], xy[:, 1])
    finally:
        rings_mod._PIP_BLOCK_ELEMENTS = orig
    want = _contains_oracle(polygons, cpoly, xy[:, 0], xy[:, 1])
    assert got.dtype == bool
    assert np.array_equal(got, want)


@settings(max_examples=30, deadline=None)
@given(polygon_lists(), st.sampled_from([0.1, 0.5]))
def test_index_query_matches_oracle_with_counters(case, cell_deg):
    """Hits, order, dtype and every ``index.*`` counter total."""
    seed, polygons = case
    rng = np.random.default_rng(seed)
    pts = np.concatenate([_probe_points(rng, p, 200) for p in polygons]
                         + [rng.uniform((-112, 28), (-98, 47), (500, 2))])
    index = UniformGridIndex(pts[:, 0], pts[:, 1], cell_deg=cell_deg)
    want = assert_batch_matches_oracle(index, polygons)
    got = index.query_polygons(RingTable.of(polygons))
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------

def _square(x0, y0, x1, y1):
    return Polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


def test_empty_candidate_sets():
    table = RingTable.of([_square(0, 0, 1, 1)])
    none = np.empty(0)
    got = table.contains(np.empty(0, dtype=np.int64), none, none)
    assert got.dtype == bool and got.shape == (0,)
    empty = RingTable.of([])
    assert len(empty) == 0 and len(empty.bboxes) == 0
    got = empty.contains(np.empty(0, dtype=np.int64), none, none)
    assert got.shape == (0,)
    index = UniformGridIndex(np.array([5.0, 6.0]), np.array([5.0, 6.0]))
    assert index.query_polygons(empty) == []
    assert_batch_matches_oracle(index, [_square(0, 0, 1, 1)])


def test_near_closing_vertex_is_trimmed_like_prepared_rings():
    """A last vertex within ``np.allclose`` tolerance of the first is
    dropped by :class:`PreparedRing` even after the constructor trimmed
    an exact closing vertex; the kernel must drop it too."""
    ring = [(-100.0, 40.0), (-99.0, 40.0), (-99.0, 41.0), (-100.0, 41.0),
            (-100.0 + 1e-4, 40.0 + 0.0002), (-100.0, 40.0)]
    poly = Polygon(ring)
    assert len(poly.exterior) == 5
    assert len(poly.prepared.exterior.xs) == 4
    pts = np.array([(-100.0 + 5e-5, 40.0 + 0.0001),
                    (-100.0 + 2e-5, 40.0 + 0.00015), (-99.5, 40.5)])
    table = RingTable.of([poly])
    cpoly = np.zeros(len(pts), dtype=np.int64)
    assert np.array_equal(table.contains(cpoly, pts[:, 0], pts[:, 1]),
                          poly.contains_many(pts[:, 0], pts[:, 1]))


def test_ring_collapsed_by_the_trim_raises_only_when_tested():
    tri = Polygon.from_ccw_ring(np.array([(0.0, 0.0), (1.0, 0.0),
                                          (1e-9, 1e-9)]))
    with pytest.raises(ValueError):
        tri.contains_many(np.array([0.5]), np.array([0.0]))
    table = RingTable.of([_square(5, 5, 6, 6), tri])
    got = table.contains(np.array([0]), np.array([5.5]), np.array([5.5]))
    assert got.tolist() == [True]
    with pytest.raises(ValueError):
        table.contains(np.array([1]), np.array([0.5]), np.array([0.0]))


def test_pickle_round_trip():
    rng = np.random.default_rng(4)
    polygons = [
        _square(0, 0, 2, 2),
        Polygon(_ring(rng, 2000, 5.0, 5.0, 1.0, None)),
        geometry_from_geojson({"type": "Polygon", "coordinates": [
            _closed(_ring(rng, 30, 10, 10, 1.0, 1 / 16)),
            _closed(_ring(rng, 6, 10, 10, 0.2, 1 / 16))]}),
        MultiPolygon([_square(20, 20, 21, 21), _square(22, 20, 23, 21)]),
    ]
    table = RingTable.of(polygons)
    table.contains(np.array([0]), np.array([1.0]), np.array([1.0]))
    payload = pickle.dumps(table)
    back = pickle.loads(payload)
    for name in ("coords", "ring_ptr", "ring_poly", "ring_part",
                 "ring_hole"):
        a, b = getattr(table, name), getattr(back, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert len(back) == len(table) == 4
    assert np.array_equal(back.bboxes, table.bboxes)
    # The derived edge arrays stay behind: a few arrays travel.
    assert len(payload) < table.coords.nbytes + 4096
    pts = np.concatenate([_probe_points(rng, p, 50) for p in polygons])
    cpoly = np.repeat(np.arange(4), len(pts) // 4 + 1)[:len(pts)]
    assert np.array_equal(back.contains(cpoly, pts[:, 0], pts[:, 1]),
                          table.contains(cpoly, pts[:, 0], pts[:, 1]))
    for i, poly in enumerate(polygons):
        rebuilt = back.polygon(i)
        assert rebuilt.bbox == poly.bbox
        assert np.array_equal(rebuilt.contains_many(pts[:, 0], pts[:, 1]),
                              poly.contains_many(pts[:, 0], pts[:, 1]))
    assert back.polygon(2).holes[0].tolist() \
        == polygons[2].holes[0].tolist()


def test_kernel_temporaries_follow_the_pair_budget(monkeypatch):
    """Blocks hold whole candidates and at most the budget of pairs."""
    rng = np.random.default_rng(9)
    polygons = [Polygon(_ring(rng, 500, 0.0, 0.0, 1.0, None)),
                _square(-1, -1, 1, 1)]
    table = RingTable.of(polygons)
    pts = rng.uniform(-1, 1, (300, 2))
    cpoly = rng.integers(0, 2, 300)
    sizes = []
    block = RingTable._contains_block

    def spy(self, e, cp, px, py):
        sizes.append(int(e.poly_edges[cp].sum()))
        return block(self, e, cp, px, py)

    monkeypatch.setattr(RingTable, "_contains_block", spy)
    monkeypatch.setattr(rings_mod, "_PIP_BLOCK_ELEMENTS", 2000)
    got = table.contains(cpoly, pts[:, 0], pts[:, 1])
    assert len(sizes) > 1 and max(sizes) <= 2000
    assert np.array_equal(
        got, _contains_oracle(polygons, cpoly, pts[:, 0], pts[:, 1]))
