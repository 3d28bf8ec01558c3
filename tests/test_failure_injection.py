"""Failure-injection tests: malformed inputs and hostile edge cases.

A production library fails loudly and specifically on bad inputs rather
than producing silently-wrong geography.  These tests feed each loader
and pipeline deliberately broken data.
"""

import os
import sys
import threading

import numpy as np
import pytest

from repro.data.cells import CellUniverse
from repro.data.dirs import simulate_dirs
from repro.data.universe import SyntheticUS, UniverseConfig
from repro.geo.geojson import geometry_from_geojson, load_features
from repro.geo.geometry import BBox, LineString, Polygon
from repro.geo.raster import GridSpec
from repro.runtime import STATS, active_pools, run_tasks, shutdown_pools


class TestMalformedCsv:
    def test_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("radio,mcc\nLTE,310\n")
        with pytest.raises(KeyError):
            CellUniverse.from_csv(path)

    def test_non_numeric_coordinates(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("radio,mcc,net,area,cell,lon,lat\n"
                        "LTE,310,410,1,1,oops,34.0\n")
        with pytest.raises(ValueError):
            CellUniverse.from_csv(path)

    def test_unknown_radio_maps_to_gsm(self, tmp_path):
        """Unknown radio strings degrade gracefully (code 0 = GSM),
        mirroring how OpenCelliD rows with odd radios are ingested."""
        path = tmp_path / "odd.csv"
        path.write_text("radio,mcc,net,area,cell,lon,lat\n"
                        "WIMAX,310,410,1,1,-100.0,34.0\n")
        cells = CellUniverse.from_csv(path)
        assert cells.radio[0] == 0

    def test_unknown_plmn_becomes_others(self, tmp_path):
        path = tmp_path / "foreign.csv"
        path.write_text("radio,mcc,net,area,cell,lon,lat\n"
                        "LTE,208,1,1,1,-100.0,34.0\n")
        cells = CellUniverse.from_csv(path)
        from repro.data.cells import PROVIDER_GROUPS
        assert PROVIDER_GROUPS[cells.provider_group[0]] == "Others"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("radio,mcc,net,area,cell,lon,lat\n")
        cells = CellUniverse.from_csv(path)
        assert len(cells) == 0


class TestMalformedGeoJson:
    def test_not_a_collection(self, tmp_path):
        path = tmp_path / "bad.geojson"
        path.write_text('{"type": "Polygon", "coordinates": []}')
        with pytest.raises(ValueError):
            load_features(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.geojson"
        path.write_text("{not json")
        with pytest.raises(Exception):
            load_features(path)

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(ValueError):
            geometry_from_geojson({"type": "Polygon",
                                   "coordinates": [[[0, 0], [1, 1]]]})

    def test_geometry_collection_unsupported(self):
        with pytest.raises(ValueError):
            geometry_from_geojson({"type": "GeometryCollection",
                                   "geometries": []})


class TestDegenerateGeometry:
    def test_collinear_ring_degrades_gracefully(self):
        """A lon/lat-collinear ring never crashes and never claims
        points off its line.  (Its area is small but nonzero: straight
        lines in degree space are curves on the equal-area plane.)"""
        poly = Polygon([(0, 0), (1, 1), (2, 2)])
        assert not poly.contains(0.5, 0.7)
        assert not poly.contains(1.5, 0.5)
        # far smaller than a real triangle spanning the same bbox
        real = Polygon([(0, 0), (2, 0), (2, 2)])
        assert poly.area_sqm() < 0.05 * real.area_sqm()

    def test_self_closing_two_point_ring(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 1), (0, 0)])

    def test_linestring_single_point(self):
        with pytest.raises(ValueError):
            LineString([(0, 0)])

    def test_bbox_nan_behavior(self):
        box = BBox(0, 0, 1, 1)
        assert not box.contains(float("nan"), 0.5)

    def test_grid_negative_resolution(self):
        with pytest.raises(ValueError):
            GridSpec(BBox(0, 0, 1, 1), -0.1)


class TestHostileConfigs:
    def test_single_transceiver_universe(self):
        u = SyntheticUS(UniverseConfig(n_transceivers=1,
                                       whp_resolution_deg=0.25))
        assert len(u.cells) == 1

    def test_dirs_with_no_fires(self):
        from repro.data import small_universe
        u = small_universe()
        sim = simulate_dirs(u.cells, [], seed=1)
        assert all(r.sites_out_damage == 0 for r in sim.reports)

    def test_overlay_empty_universe(self):
        from repro.core.overlay import overlay_fires
        from repro.data import small_universe
        empty = CellUniverse(
            lons=np.empty(0), lats=np.empty(0),
            site_ids=np.empty(0, dtype=np.int64),
            mcc=np.empty(0, dtype=np.int32),
            mnc=np.empty(0, dtype=np.int32),
            provider_group=np.empty(0, dtype=np.int8),
            radio=np.empty(0, dtype=np.int8))
        fires = small_universe().fire_season(2010).fires[:5]
        result = overlay_fires(empty, fires)
        assert result.n_in_perimeter == 0


def _double(x):
    return 2 * x


def _exit_on_one(x):
    if x == 1:
        os._exit(3)
    return x


def _bounded(fn, timeout=60.0):
    """Run ``fn`` in a thread; fail (rather than hang) past ``timeout``."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"still running after {timeout}s"
    return out[0]


class TestDeadPoolWorker:
    """A worker that dies mid-map degrades to the serial path: the map
    returns ``None`` within the timeout, the pool is discarded and
    ``parallel.fallbacks`` counts it.  Two workers at most."""

    @pytest.fixture(autouse=True)
    def _clean_pools(self):
        shutdown_pools()
        yield
        shutdown_pools()

    def _fallbacks(self):
        return STATS.snapshot()["counters"].get("parallel.fallbacks", 0)

    def _assert_degrades(self, token, fn, tasks):
        before = self._fallbacks()
        assert _bounded(lambda: run_tasks("inject", 2, token, fn,
                                          tasks)) is None
        assert self._fallbacks() == before + 1
        assert not [k for k in active_pools() if k[0] == "inject"]
        # The next call starts a fresh pool and works.
        assert _bounded(lambda: run_tasks("inject", 2, token, _double,
                                          [1, 2])) == [2, 4]

    def test_worker_exits_mid_map(self):
        self._assert_degrades(b"exit", _exit_on_one, [0, 1, 2, 3])

    def test_task_function_unresolvable_in_the_worker(self):
        token = b"late"
        assert run_tasks("inject", 2, token, _double, [1]) == [2]

        # Bound on the module after the workers started: the parent
        # pickles it by name, the workers cannot find that name.
        def late(x):
            return x
        late.__qualname__ = late.__name__ = "_late_bound_task"
        module = sys.modules[__name__]
        module._late_bound_task = late
        try:
            self._assert_degrades(token, late, [1, 2, 3])
        finally:
            del module._late_bound_task
