"""Differential tests: the batched data-synthesis kernels against the
scalar loops they replaced.

Each retired loop lives here as the oracle for its kernel:

* ``_star_polygon_scalar`` / ``_fire_season_loop`` for
  :func:`repro.data.wildfires.star_rings` and the season generator;
* ``_trim_loop`` for :func:`repro.data.cells._trim_to_total`;
* ``_draw_plmns_lists`` / ``_draw_radio_types_strings`` for the cell
  categorical draws;
* ``_population_in_bbox_numpy`` / ``_build_counties_loop`` for the
  county tiling.

Kernels must reproduce their oracle bit for bit *and* leave the random
generator in the same state, so every later draw is unchanged too.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.data import cells as cells_mod
from repro.data.cells import PROVIDER_GROUPS, _draw_plmns, _trim_to_total
from repro.data.counties import (
    _VERY_DENSE_CUT,
    County,
    _named_counties,
    build_counties,
)
from repro.data.providers import MAJOR_PROVIDERS, provider_registry
from repro.data.radios import draw_radio_types, technology_mix
from repro.data.states import StateAssigner
from repro.data.wildfires import (
    _pareto_sizes,
    _star_trig,
    generate_fire_season,
    ring_polygons,
    star_polygon,
    star_rings,
)
from repro.geo.geometry import BBox, Polygon
from repro.geo.projection import acres_to_sqmeters, meters_per_degree

# ----------------------------------------------------------------------
# Star perimeters
# ----------------------------------------------------------------------


def _star_polygon_scalar(lon, lat, acres, rng, n_vertices=24,
                         roughness=0.45, elongation=1.0,
                         bearing_deg=0.0) -> Polygon:
    """The retired one-fire star polygon."""
    noise = rng.standard_normal(n_vertices)
    noise = ndimage.uniform_filter1d(noise, size=5, mode="wrap")
    noise = noise / max(np.abs(noise).max(), 1e-9)
    radii_rel = np.maximum(1.0 + roughness * noise, 0.25)
    cos_theta, sin_theta, sin_dtheta = _star_trig(n_vertices)
    radii_next = np.concatenate((radii_rel[1:], radii_rel[:1]))
    unit_area = 0.5 * float(np.sum(radii_rel * radii_next) * sin_dtheta)
    base_r = math.sqrt(acres_to_sqmeters(acres) / unit_area)
    x = base_r * radii_rel * cos_theta
    y = base_r * radii_rel * sin_theta
    if elongation > 1.0:
        stretch = math.sqrt(elongation)
        wind = math.radians(90.0 - bearing_deg)
        ca, sa = math.cos(wind), math.sin(wind)
        along = (x * ca + y * sa) * stretch
        across = (-x * sa + y * ca) / stretch
        x = along * ca - across * sa
        y = along * sa + across * ca
    mx, my = meters_per_degree(lat)
    lons = lon + x / mx
    lats = lat + y / my
    return Polygon.from_ccw_ring(np.column_stack([lons, lats]))


def _fire_season_loop(year, whp, seed, n_fires, total_acres,
                      elongation_range):
    """The retired per-fire season loop: ``(start, end, ring)`` rows."""
    rng = np.random.default_rng(seed)
    sizes = _pareto_sizes(n_fires, total_acres, rng)
    weights = whp.ignition_weights().ravel()
    prob = weights / weights.sum()
    cell_ids = rng.choice(len(prob), size=n_fires, p=prob)
    rows, cols = np.unravel_index(cell_ids, whp.grid.shape)
    lons, lats = whp.grid.cell_center(rows, cols)
    half = whp.grid.res / 2.0
    lons = lons + rng.uniform(-half, half, size=n_fires)
    lats = lats + rng.uniform(-half, half, size=n_fires)
    out = []
    for i in range(n_fires):
        start = int(min(max(rng.normal(225, 45), 32), 340))
        duration = int(min(max(2 + sizes[i] ** 0.33, 2), 90))
        elongation = float(rng.uniform(*elongation_range))
        poly = _star_polygon_scalar(float(lons[i]), float(lats[i]),
                                    float(sizes[i]), rng,
                                    elongation=elongation,
                                    bearing_deg=float(rng.uniform(0, 360)))
        out.append((start, min(start + duration, 364), poly))
    return out


fires = st.lists(
    st.tuples(st.floats(min_value=-124.0, max_value=-67.0),
              st.floats(min_value=25.0, max_value=49.0),
              st.floats(min_value=1.0, max_value=500_000.0),
              st.sampled_from([1.0, 1.0, 1.5, 3.0, 8.0]),
              st.floats(min_value=0.0, max_value=360.0)),
    min_size=1, max_size=12)


@given(fires, st.integers(min_value=3, max_value=40),
       st.sampled_from([0.15, 0.45, 0.9]),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_star_rings_match_scalar_polygons(rows, n_vertices, roughness,
                                          seed):
    """Batch rings == one scalar polygon per row, isotropic or not."""
    rng = np.random.default_rng(seed)
    expected = [_star_polygon_scalar(lon, lat, acres, rng, n_vertices,
                                     roughness, elong, bearing)
                for lon, lat, acres, elong, bearing in rows]
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((len(rows), n_vertices))
    lons, lats, acres, elong, bearing = (list(c) for c in zip(*rows))
    rings = star_rings(lons, lats, acres, noise, elong, bearing,
                       roughness=roughness)
    for ring, poly, got in zip(rings, expected, ring_polygons(rings)):
        np.testing.assert_array_equal(ring, poly.exterior)
        np.testing.assert_array_equal(got.exterior, poly.exterior)
        assert got.bbox == poly.bbox


@given(st.floats(min_value=-124.0, max_value=-67.0),
       st.floats(min_value=25.0, max_value=49.0),
       st.floats(min_value=1.0, max_value=500_000.0),
       st.floats(min_value=1.0, max_value=8.0),
       st.floats(min_value=0.0, max_value=360.0),
       st.integers(min_value=3, max_value=40),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_star_polygon_wrapper_matches_scalar(lon, lat, acres, elongation,
                                             bearing, n_vertices, seed):
    """The n=1 wrapper: same ring, same generator state afterwards."""
    a = np.random.default_rng(seed)
    b = np.random.default_rng(seed)
    want = _star_polygon_scalar(lon, lat, acres, a, n_vertices,
                                elongation=elongation, bearing_deg=bearing)
    got = star_polygon(lon, lat, acres, b, n_vertices,
                       elongation=elongation, bearing_deg=bearing)
    np.testing.assert_array_equal(got.exterior, want.exterior)
    assert got.bbox == want.bbox
    assert a.bit_generator.state == b.bit_generator.state


def test_star_rings_validate_inputs():
    noise = np.zeros((2, 24))
    with pytest.raises(ValueError):
        star_rings([0.0, 0.0], [40.0, 40.0], [1.0, 0.0], noise)
    with pytest.raises(ValueError):
        star_rings([0.0, 0.0], [40.0, 40.0], [1.0, 1.0], noise,
                   [1.0, 0.5], [0.0, 0.0])


@pytest.mark.parametrize("year,elongation_range",
                         [(2005, (1.0, 1.0)), (2017, (1.0, 1.0)),
                          (2019, (1.5, 3.5))])
def test_fire_season_matches_per_fire_loop(whp, year, elongation_range):
    """Whole seasons, isotropic and wind-stretched: same perimeters."""
    season = generate_fire_season(year, whp, seed=77 + year,
                                  n_perimeter_fires=300,
                                  total_acres=2e6,
                                  elongation_range=elongation_range)
    expected = _fire_season_loop(year, whp, 77 + year, 300, 2e6,
                                    elongation_range)
    assert len(season.fires) == len(expected)
    for fire, (start, end, poly) in zip(season.fires, expected):
        assert (fire.start_doy, fire.end_doy) == (start, end)
        np.testing.assert_array_equal(fire.polygon.exterior,
                                      poly.exterior)
        assert fire.polygon.bbox == poly.bbox


# ----------------------------------------------------------------------
# Cells: transceivers-per-site trim
# ----------------------------------------------------------------------


def _trim_loop(per_site, n_transceivers, rng) -> None:
    """The retired one-draw-per-step trim loop (in place)."""
    n_sites = len(per_site)
    total = int(per_site.sum())
    while total != n_transceivers:
        i = int(rng.integers(n_sites))
        if total < n_transceivers and per_site[i] < 12:
            per_site[i] += 1
            total += 1
        elif total > n_transceivers and per_site[i] > 1:
            per_site[i] -= 1
            total -= 1


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=3_000),
       st.floats(min_value=0.5, max_value=1.5))
@settings(max_examples=80, deadline=None)
def test_trim_matches_scalar_loop(seed, n_sites, target_ratio):
    """Deficits (ratio > 1) and surpluses (ratio < 1) alike."""
    rng = np.random.default_rng(seed)
    per_site = np.clip(rng.geometric(1.0 / 5.6, size=n_sites), 1, 12)
    # Keep the target reachable within the [1, 12] per-site bounds.
    target = int(min(max(per_site.sum() * target_ratio, n_sites),
                     12 * n_sites))
    a, b = per_site.copy(), per_site.copy()
    ra = np.random.default_rng(seed + 1)
    rb = np.random.default_rng(seed + 1)
    _trim_loop(a, target, ra)
    _trim_to_total(b, target, rb)
    np.testing.assert_array_equal(a, b)
    assert b.dtype == per_site.dtype
    assert ra.bit_generator.state == rb.bit_generator.state
    assert ra.random() == rb.random()


@pytest.mark.parametrize("n", [1, 2, 7, 2**31 - 1, 2**31 + 5, 2**33 + 3])
def test_batched_integers_consume_like_scalar_calls(n):
    """The stream property the trim kernel rests on."""
    a = np.random.default_rng(n)
    b = np.random.default_rng(n)
    scalar = [int(a.integers(n)) for _ in range(257)]
    assert b.integers(n, size=257).tolist() == scalar
    assert a.bit_generator.state == b.bit_generator.state


# ----------------------------------------------------------------------
# Cells: PLMN and radio draws
# ----------------------------------------------------------------------


def _draw_plmns_lists(groups, rng):
    """The retired PLMN draw: list comprehensions over each pick."""
    registry = provider_registry()
    mcc = np.empty(len(groups), dtype=np.int32)
    mnc = np.empty(len(groups), dtype=np.int32)
    for code, name in enumerate(PROVIDER_GROUPS):
        mask = groups == code
        count = int(mask.sum())
        if count == 0:
            continue
        if name == "Others":
            plmns = [p for prov in registry.values()
                     if prov.name not in MAJOR_PROVIDERS
                     for p in prov.plmns]
            weights = np.full(len(plmns), 1.0 / len(plmns))
        else:
            plmns = list(registry[name].plmns)
            weights = 1.0 / (np.arange(len(plmns)) + 1.0)
            weights /= weights.sum()
        pick = rng.choice(len(plmns), size=count, p=weights)
        mcc[mask] = np.array([plmns[i].mcc for i in pick], dtype=np.int32)
        mnc[mask] = np.array([plmns[i].mnc for i in pick], dtype=np.int32)
    return mcc, mnc


def _draw_radio_types_strings(groups, ruralness, rng):
    """The retired radio draw over a provider-name string array."""
    groups = np.asarray(groups)
    ruralness = np.clip(np.asarray(ruralness, dtype=float), 0.0, 1.0)
    n = len(groups)
    out = np.empty(n, dtype=np.int8)
    u = rng.random(n)
    for group in set(groups.tolist()):
        mask = groups == group
        base = np.array(technology_mix(group), dtype=float)
        probs = np.tile(base, (int(mask.sum()), 1))
        tilt = 0.10 * ruralness[mask]
        non_lte = probs[:, :3].sum(axis=1)
        scale = np.where(non_lte > 0,
                         (non_lte - tilt).clip(0.0) / np.where(
                             non_lte > 0, non_lte, 1.0),
                         0.0)
        probs[:, :3] *= scale[:, None]
        probs[:, 3] = 1.0 - probs[:, :3].sum(axis=1)
        cdf = np.cumsum(probs, axis=1)
        draws = (u[mask][:, None] > cdf).sum(axis=1)
        out[mask] = draws.astype(np.int8)
    return out


@pytest.mark.parametrize("n", [60_000, 480_000])
@pytest.mark.parametrize("seed", [0, 20_190_722])
def test_plmn_and_radio_draws_match_old_code(n, seed):
    make = np.random.default_rng(seed)
    # Skewed group mix with one group absent, like a small universe.
    groups = make.choice(len(PROVIDER_GROUPS) - 1, size=n,
                         p=[0.4, 0.3, 0.2, 0.1]).astype(np.int8)
    groups[make.random(n) < 0.05] = len(PROVIDER_GROUPS) - 1
    ruralness = make.random(n)

    a = np.random.default_rng(seed + 1)
    b = np.random.default_rng(seed + 1)
    for got, want in zip(_draw_plmns(groups, b),
                         _draw_plmns_lists(groups, a)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    want = _draw_radio_types_strings(np.array(PROVIDER_GROUPS)[groups],
                                     ruralness, a)
    got = draw_radio_types(groups, ruralness, b, names=PROVIDER_GROUPS)
    np.testing.assert_array_equal(got, want)
    assert a.bit_generator.state == b.bit_generator.state


def test_radio_draw_accepts_names_or_codes():
    rng = np.random.default_rng(3)
    codes = rng.integers(0, len(PROVIDER_GROUPS), size=5_000)
    ruralness = rng.random(5_000)
    by_name = draw_radio_types(np.array(PROVIDER_GROUPS)[codes],
                               ruralness, np.random.default_rng(9))
    by_code = draw_radio_types(codes, ruralness, np.random.default_rng(9),
                               names=PROVIDER_GROUPS)
    np.testing.assert_array_equal(by_name, by_code)


def test_generate_cells_uses_the_batched_draws(universe):
    """The stored universe columns equal a rebuild with the old draws."""
    pop = universe.population
    new = cells_mod.generate_cells(pop, 6_000, seed=5)
    saved = (cells_mod._trim_to_total, cells_mod._draw_plmns,
             cells_mod.draw_radio_types)
    try:
        cells_mod._trim_to_total = _trim_loop
        cells_mod._draw_plmns = _draw_plmns_lists
        cells_mod.draw_radio_types = (
            lambda groups, ruralness, rng, names:
            _draw_radio_types_strings(np.array(names)[groups], ruralness,
                                      rng))
        old = cells_mod.generate_cells(pop, 6_000, seed=5)
    finally:
        (cells_mod._trim_to_total, cells_mod._draw_plmns,
         cells_mod.draw_radio_types) = saved
    for column in ("lons", "lats", "site_ids", "mcc", "mnc",
                   "provider_group", "radio"):
        np.testing.assert_array_equal(getattr(new, column),
                                      getattr(old, column))


# ----------------------------------------------------------------------
# Counties
# ----------------------------------------------------------------------


def _population_in_bbox_numpy(pop, bbox) -> float:
    """The retired box sum through GridSpec.rowcol's 0-d arrays."""
    grid = pop.grid
    r0, c0 = grid.rowcol(bbox.min_lon, bbox.max_lat)
    r1, c1 = grid.rowcol(bbox.max_lon, bbox.min_lat)
    r0 = max(int(r0), 0)
    c0 = max(int(c0), 0)
    r1 = min(int(r1), grid.height - 1)
    c1 = min(int(c1), grid.width - 1)
    if r0 > r1 or c0 > c1:
        return 0.0
    return float(pop.raster.data[r0:r1 + 1, c0:c1 + 1].sum())


@given(st.floats(min_value=-130.0, max_value=-60.0),
       st.floats(min_value=20.0, max_value=52.0),
       st.floats(min_value=0.0, max_value=6.0),
       st.floats(min_value=0.0, max_value=6.0))
@settings(max_examples=150, deadline=None)
def test_population_in_bbox_matches_numpy_rowcol(universe, lon, lat,
                                                 width, height):
    pop = universe.population
    box = BBox(lon, lat, lon + width, lat + height)
    assert pop.population_in_bbox(box) \
        == _population_in_bbox_numpy(pop, box)


def _subdivide_loop(tile, pop, min_deg):
    population = int(round(_population_in_bbox_numpy(pop, tile)))
    if population <= _VERY_DENSE_CUT or tile.width / 2.0 < min_deg:
        return [(tile, population)]
    mid_lon = (tile.min_lon + tile.max_lon) / 2.0
    mid_lat = (tile.min_lat + tile.max_lat) / 2.0
    out = []
    for quad in (BBox(tile.min_lon, tile.min_lat, mid_lon, mid_lat),
                 BBox(mid_lon, tile.min_lat, tile.max_lon, mid_lat),
                 BBox(tile.min_lon, mid_lat, mid_lon, tile.max_lat),
                 BBox(mid_lon, mid_lat, tile.max_lon, tile.max_lat)):
        out.extend(_subdivide_loop(quad, pop, min_deg))
    return out


def _build_counties_loop(pop, tile_deg=0.35, min_subdivision_deg=0.17):
    """The retired per-tile county builder."""
    named = _named_counties()
    bbox = pop.grid.bbox
    n_cols = int(np.ceil(bbox.width / tile_deg))
    n_rows = int(np.ceil(bbox.height / tile_deg))
    tiles = []
    for row in range(n_rows):
        for col in range(n_cols):
            min_lon = bbox.min_lon + col * tile_deg
            min_lat = bbox.min_lat + row * tile_deg
            tiles.append(BBox(min_lon, min_lat, min_lon + tile_deg,
                              min_lat + tile_deg))
    centers_lon = np.array([t.center.lon for t in tiles])
    centers_lat = np.array([t.center.lat for t in tiles])
    abbrs = StateAssigner().assign_many(centers_lon, centers_lat)
    on_land = pop.density_at(centers_lon, centers_lat) > 0.0
    in_named = np.zeros(len(tiles), dtype=bool)
    for county in named:
        in_named |= county.bbox.contains_many(centers_lon, centers_lat)
    nb = np.array([[c.bbox.min_lon, c.bbox.min_lat,
                    c.bbox.max_lon, c.bbox.max_lat] for c in named])
    counties = list(named)
    for tile, abbr, land, covered in zip(tiles, abbrs, on_land, in_named):
        if not land or covered:
            continue
        for quad, population in _subdivide_loop(tile, pop,
                                                min_subdivision_deg):
            qc = quad.center
            if bool(((nb[:, 0] <= qc.lon) & (qc.lon <= nb[:, 2])
                     & (nb[:, 1] <= qc.lat)
                     & (qc.lat <= nb[:, 3])).any()):
                continue
            counties.append(County(name=f"{abbr}-{len(counties):04d}",
                                   state=str(abbr), bbox=quad,
                                   population=population))
    return counties


def test_build_counties_matches_per_tile_loop(universe):
    pop = universe.population
    layer = build_counties(pop)
    expected = _build_counties_loop(pop)
    assert layer.counties == expected
    # The tile lookup built from batched centers equals one keyed per
    # county, so point assignment is unchanged.
    by_tile: dict[int, list[int]] = {}
    for i, county in enumerate(expected[layer.n_named:],
                               start=layer.n_named):
        key = layer._tile_key(county.bbox.center.lon,
                              county.bbox.center.lat)
        by_tile.setdefault(int(key), []).append(i)
    assert layer._by_tile == by_tile
