"""Differential pins: the wildfire path through the protocol is the
old path, byte for byte.

The refactor's acceptance bar is that extracting the Hazard protocol
changed *zero* wildfire output bytes.  These tests pin the mechanism
that guarantees it — object identity, not mere equality: the wildfire
instance hands the engine the very same season list and WHP raster the
pre-protocol code used, so every downstream memo key, cache token, and
golden number is untouched.
"""

from __future__ import annotations

import numpy as np

from repro.core.overlay import classify_cells, overlay_fires
from repro.data.wildfires import scripted_2019_fires
from repro.hazard import WildfireHazard, get_hazard
from repro.obs.manifest import fingerprint
from repro.session import session_of
from repro.stream.incident import run_scripted_incident


class TestObjectIdentity:

    def test_intensity_is_the_universe_whp(self, universe):
        assert WildfireHazard().intensity(universe) is universe.whp

    def test_event_set_is_the_memoized_season_list(self, universe):
        events = WildfireHazard().event_set(universe, 2019).events
        assert events is universe.fire_season(2019).fires

    def test_registry_default_is_plain_wildfire(self, universe):
        hz = get_hazard("wildfire")
        assert isinstance(hz, WildfireHazard)
        assert hz.event_set(universe, 2019).events \
            is universe.fire_season(2019).fires

    def test_acreage_multiplier_regenerates(self, universe):
        grown = WildfireHazard(acreage_multiplier=1.5)
        events = grown.event_set(universe, 2018).events
        base = universe.fire_season(2018).fires
        assert events is not base
        assert sum(e.acres for e in events) > sum(f.acres for f in base)


class TestArtifactEquivalence:

    def test_whp_classes_artifact_equals_direct_classify(self, universe):
        session = session_of(universe)
        via_artifact = session.artifact("whp_classes")
        direct = classify_cells(universe.cells, universe.whp)
        np.testing.assert_array_equal(via_artifact, direct)

    def test_season_overlay_artifact_equals_direct_join(self, universe):
        session = session_of(universe)
        via_artifact = session.artifact("season_overlay", year=2019)
        direct = overlay_fires(universe.cells,
                               universe.fire_season(2019).fires,
                               year=2019)
        assert via_artifact.n_in_perimeter == direct.n_in_perimeter
        assert via_artifact.per_fire_counts == direct.per_fire_counts
        np.testing.assert_array_equal(via_artifact.in_perimeter_mask,
                                      direct.in_perimeter_mask)

    def test_hazard_param_is_part_of_the_memo_key(self, universe):
        session = session_of(universe)
        wildfire = session.artifact("whp_classes", hazard="wildfire")
        wind = session.artifact("whp_classes", hazard="wind")
        assert wildfire is session.artifact("whp_classes")
        assert wind is not wildfire
        assert not np.array_equal(wind, wildfire)


class TestStreamEquivalence:

    def test_stream_final_matches_batch_overlay(self, universe):
        """The incident stream's folded final state equals one batch
        join over the final fronts — for the non-wildfire hazard too,
        proving the fold is hazard-agnostic."""
        hz = get_hazard("grid_fire")
        result = run_scripted_incident(universe, n_ticks=3,
                                       hazard="grid_fire")
        year, background, growth = hz.incident(universe, 3)
        batch = overlay_fires(universe.cells, background + growth[-1],
                              year=year)
        assert result.final.n_in_perimeter == batch.n_in_perimeter
        assert result.final.per_fire_counts == batch.per_fire_counts


def _perimeter_fingerprint(events) -> str:
    """Content fingerprint of events: attributes plus exact ring bytes."""
    return fingerprint([(e.name, e.year, e.start_doy, e.end_doy, e.acres,
                         e.polygon.exterior) for e in events])


class TestNonWildfirePins:
    """Byte pins for the perimeters the non-wildfire generators emit.

    Recorded before the star perimeters moved onto the batch
    ``star_rings`` kernel; any change to a draw's order or to the ring
    arithmetic moves these digests.
    """

    def test_grid_fire_member_zero(self, universe):
        events = get_hazard("grid_fire").ensemble_member(universe, 2019, 0)
        assert _perimeter_fingerprint(events) == (
            "8e507f776443edb69cf4b7652af7a97b"
            "07a4fe07c8e3e4316c00543d49fad949")

    def test_wind_member_zero(self, universe):
        events = get_hazard("wind").ensemble_member(universe, 2019, 0)
        assert _perimeter_fingerprint(events) == (
            "ac19b570a80a7db7c72d646c0b4ef828"
            "c18fa4edf1adc2dde96906b0429f8c04")

    def test_scripted_2019_fires(self):
        assert _perimeter_fingerprint(scripted_2019_fires()) == (
            "ff0bb2b6038be8caaf731ab66863927f"
            "b01ddcf1def4a2f9a11fdf790850e70b")
