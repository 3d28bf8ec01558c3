"""The scenario library: named bundles end-to-end.

Covers the catalog surface (every registered bundle runs against the
shared universe and lands real impact numbers), determinism of the
ensemble, the session-artifact route the CLI stage uses, and the
ledger-compare labeling of cross-hazard runs as config changes.
"""

from __future__ import annotations

import pytest

from repro import runtime
from repro.core import report
from repro.hazard import (
    get_scenario,
    run_scenario,
    scenario_names,
)
from repro.hazard.scenarios import ensemble_impacts
from repro.obs.ledger import compare_runs
from repro.obs.manifest import RunManifest
from repro.runtime import STATS, dispatch
from repro.session import session_of


class TestCatalog:

    def test_the_shipped_bundles(self):
        assert set(scenario_names()) == {
            "2025-la-style", "grid-ignition-season", "wui-expansion"}

    def test_unknown_scenario_lists_known(self):
        with pytest.raises(KeyError, match="grid-ignition-season"):
            get_scenario("volcano-winter")

    @pytest.mark.parametrize("name", sorted(scenario_names()))
    def test_every_bundle_runs_end_to_end(self, universe, name):
        result = run_scenario(universe, name, members=2)
        assert result.name == name
        assert result.n_members == 2
        for m in result.members:
            assert m.n_events > 0
            assert m.total_acres > 0
            assert m.impacted >= 0
        text = report.render_scenario(result)
        assert name in text
        assert "mean" in text

    def test_compound_bundle_mixes_hazards(self, universe):
        """2025-la-style members carry grid fires AND wind swaths."""
        result = run_scenario(universe, "2025-la-style", members=1)
        scenario = get_scenario("2025-la-style")
        expected = scenario.hazard.n_events \
            + scenario.extra_hazards[0].n_events
        assert result.members[0].n_events == expected


class TestDeterminismAndPooling:

    def test_run_twice_identical(self, universe):
        a = run_scenario(universe, "grid-ignition-season", members=3)
        b = run_scenario(universe, "grid-ignition-season", members=3)
        assert [m.impacted for m in a.members] \
            == [m.impacted for m in b.members]

    def test_pooled_matches_serial(self, universe, monkeypatch):
        monkeypatch.setattr(dispatch, "CPU_COUNT_OVERRIDE", 2)
        scenario = get_scenario("grid-ignition-season")
        member_events = [
            scenario.hazard.ensemble_member(universe, scenario.year, m)
            for m in range(3)]
        serial = ensemble_impacts(universe, member_events,
                                  scenario.year, workers=1)
        pooled = ensemble_impacts(universe, member_events,
                                  scenario.year, workers=2)
        assert serial == pooled

    def test_pool_is_clamped_to_the_cpu_budget(self, universe,
                                               monkeypatch):
        """One usable core: ``workers=4`` creates no pool and equals
        the serial impacts."""
        scenario = get_scenario("grid-ignition-season")
        member_events = [
            scenario.hazard.ensemble_member(universe, scenario.year, m)
            for m in range(3)]
        serial = ensemble_impacts(universe, member_events,
                                  scenario.year, workers=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was requested on one core")

        monkeypatch.setattr(dispatch, "CPU_COUNT_OVERRIDE", 1)
        monkeypatch.setattr(runtime, "run_tasks", no_pool)
        created = STATS.snapshot()["counters"].get("pool.created", 0)
        clamped = ensemble_impacts(universe, member_events,
                                   scenario.year, workers=4)
        assert clamped == serial
        assert STATS.snapshot()["counters"].get("pool.created", 0) \
            == created

    def test_member_count_validation(self, universe):
        with pytest.raises(ValueError):
            run_scenario(universe, "grid-ignition-season", members=0)


class TestSessionArtifact:

    def test_scenario_is_memoized_per_parameterization(self, universe):
        session = session_of(universe)
        one = session.artifact("scenario",
                               scenario="grid-ignition-season",
                               members=2)
        again = session.artifact("scenario",
                                 scenario="grid-ignition-season",
                                 members=2)
        assert one is again
        other = session.artifact("scenario",
                                 scenario="grid-ignition-season",
                                 members=3)
        assert other is not one


def _manifest(run_id: str, universe_dict: dict,
              outputs: dict) -> RunManifest:
    return RunManifest(run_id=run_id, kind="cli", command="scenario",
                       started="2026-08-08T00:00:00+00:00",
                       duration_s=1.0, universe=universe_dict,
                       outputs=outputs)


class TestCompareLabelsCrossHazardRuns:

    def test_context_bucket_flags_hazard_change(self):
        a = _manifest("a" * 8, {"hazard": "wildfire", "seed": 42},
                      {"fig7": "aaa"})
        b = _manifest("b" * 8, {"hazard": "grid_fire", "seed": 42},
                      {"fig7": "bbb"})
        diff = compare_runs(a, b)
        assert ("hazard", "wildfire", "grid_fire") in diff["context"]
        text = report.render_compare(diff)
        assert "config changes:" in text
        assert "hazard: 'wildfire' -> 'grid_fire'" in text
        assert "drift (expected" in text

    def test_same_context_stays_plain_drift(self):
        a = _manifest("a" * 8, {"hazard": "wildfire"}, {"fig7": "aaa"})
        b = _manifest("b" * 8, {"hazard": "wildfire"}, {"fig7": "bbb"})
        diff = compare_runs(a, b)
        assert diff["context"] == []
        text = report.render_compare(diff)
        assert "config changes:" not in text
        assert "drift:" in text

    def test_old_manifests_without_keys_never_flag(self):
        a = _manifest("a" * 8, {"seed": 42}, {})
        b = _manifest("b" * 8, {"seed": 42, "hazard": None}, {})
        assert compare_runs(a, b)["context"] == []
