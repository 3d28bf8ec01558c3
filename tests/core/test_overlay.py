"""Tests for repro.core.overlay."""

import numpy as np
import pytest

from repro.core.overlay import (
    classify_cells,
    overlay_fires,
    overlay_fires_bruteforce,
)
from repro.data.wildfires import star_polygon, FirePerimeter


@pytest.fixture(scope="module")
def season(universe):
    return universe.fire_season(2017)


@pytest.fixture(scope="session")
def universe():
    from repro.data import small_universe
    return small_universe()


class TestOverlay:
    def test_index_matches_bruteforce(self, universe, season):
        fast = overlay_fires(universe.cells, season.fires[:60])
        slow = overlay_fires_bruteforce(universe.cells, season.fires[:60])
        np.testing.assert_array_equal(fast.in_perimeter_mask,
                                      slow.in_perimeter_mask)
        assert fast.per_fire_counts == slow.per_fire_counts

    def test_empty_fire_list(self, universe):
        result = overlay_fires(universe.cells, [], year=2001)
        assert result.n_in_perimeter == 0
        assert result.year == 2001

    def test_year_from_fires(self, universe, season):
        result = overlay_fires(universe.cells, season.fires[:1])
        assert result.year == 2017

    def test_mask_length(self, universe, season):
        result = overlay_fires(universe.cells, season.fires)
        assert len(result.in_perimeter_mask) == len(universe.cells)

    def test_per_fire_counts_complete(self, universe, season):
        result = overlay_fires(universe.cells, season.fires)
        assert len(result.per_fire_counts) == len(season.fires)

    def test_scaled_count(self, universe, season):
        result = overlay_fires(universe.cells, season.fires)
        assert result.scaled_count(10.0) \
            == round(result.n_in_perimeter * 10)

    def test_fire_on_transceiver_cluster(self, universe, rng):
        """A fire drawn around a known transceiver must capture it."""
        cells = universe.cells
        lon, lat = float(cells.lons[0]), float(cells.lats[0])
        fire = FirePerimeter(
            name="test", year=2020, start_doy=200, end_doy=210,
            acres=50_000.0,
            polygon=star_polygon(lon, lat, 50_000.0, rng))
        result = overlay_fires(cells, [fire], year=2020)
        assert result.in_perimeter_mask[0]

    def test_union_semantics(self, universe, rng):
        """Two overlapping fires count a transceiver once in the mask."""
        cells = universe.cells
        lon, lat = float(cells.lons[0]), float(cells.lats[0])
        fires = [
            FirePerimeter("a", 2020, 200, 210, 30_000.0,
                          star_polygon(lon, lat, 30_000.0, rng)),
            FirePerimeter("b", 2020, 200, 210, 30_000.0,
                          star_polygon(lon, lat, 30_000.0, rng)),
        ]
        result = overlay_fires(cells, fires)
        assert result.per_fire_counts["a"] >= 1
        assert result.per_fire_counts["b"] >= 1
        # mask counts it once
        assert result.n_in_perimeter < (result.per_fire_counts["a"]
                                        + result.per_fire_counts["b"]) \
            or result.per_fire_counts["a"] == 0


class TestClassify:
    def test_classify_matches_whp(self, universe):
        classes = classify_cells(universe.cells, universe.whp)
        direct = universe.whp.classify(universe.cells.lons,
                                       universe.cells.lats)
        np.testing.assert_array_equal(classes, direct)

    def test_classify_dtype(self, universe):
        classes = classify_cells(universe.cells, universe.whp)
        assert classes.dtype == np.int8


class TestTaskPayloads:
    """Pool tasks carry packed ring tables, never event or polygon
    objects.  ``run_tasks`` is replaced by a recorder that refuses the
    pool, so every join below also takes the serial fallback."""

    @pytest.fixture()
    def recorded(self, monkeypatch):
        from repro.core import overlay
        from repro.runtime import config, dispatch

        tasks = []

        def record(name, workers, token, fn, batch, **kwargs):
            tasks.extend(batch)
            return None

        monkeypatch.setattr(overlay, "run_tasks", record)
        monkeypatch.setattr(config, "MIN_PARALLEL_POINTS", 64)
        monkeypatch.setattr(dispatch, "OVERLAY_WORK_FACTOR", 1)
        monkeypatch.setattr(dispatch, "DELTA_WORK_FACTOR", 1)
        monkeypatch.setattr(dispatch, "CPU_COUNT_OVERRIDE", 2)
        return tasks

    @staticmethod
    def _assert_arrays_only(task):
        import pickle

        payload = pickle.dumps(task)
        for name in (b"repro.geo.geometry", b"repro.data", b"repro.hazard",
                     b"Polygon", b"FirePerimeter"):
            assert name not in payload
        return payload

    def test_ensemble_member_ships_under_a_megabyte(self, universe,
                                                    recorded):
        from repro.geo.rings import RingTable
        from repro.hazard import GridIgnitedFireHazard
        from repro.hazard.scenarios import ensemble_impacts

        hazard = GridIgnitedFireHazard(n_events=1500,
                                       total_acres=40_000_000.0)
        members = [hazard.ensemble_member(universe, 2019, 0),
                   hazard.ensemble_member(universe, 2019, 1)[:40], []]
        pooled = ensemble_impacts(universe, members, 2019, workers=2)
        assert len(recorded) == 3
        assert all(isinstance(t, RingTable) for t in recorded)
        assert len(recorded[0]) == 1500
        assert len(self._assert_arrays_only(recorded[0])) < 1_000_000
        assert pooled == ensemble_impacts(universe, members, 2019,
                                          workers=1)
        assert pooled[2] == 0

    def test_overlay_and_delta_tasks(self, universe, season, recorded):
        import dataclasses

        from repro.core.overlay import FireDelta, update_overlay

        fires = season.fires[:30]
        result = overlay_fires(universe.cells, fires, workers=2,
                               use_cache=False, keep_hits=True)
        assert recorded
        for task in recorded:
            self._assert_arrays_only(task)
        recorded.clear()
        # Two unchanged fronts (answered footprints) and two ignitions.
        deltas = [FireDelta(f) for f in fires[:2]] + [
            FireDelta(dataclasses.replace(f, name=f.name + "-new"))
            for f in season.fires[30:32]]
        ticked = update_overlay(universe.cells, result, deltas, workers=2)
        want = overlay_fires(universe.cells,
                             fires + [d.fire for d in deltas[2:]],
                             use_cache=False)
        assert ticked.per_fire_counts == want.per_fire_counts
        assert np.array_equal(ticked.in_perimeter_mask,
                              want.in_perimeter_mask)
        assert recorded
        for task in recorded:
            self._assert_arrays_only(task)
