"""Differential tests: the batched data-synthesis kernels against the
scalar loops they replaced.

Each retired loop lives here as the oracle for its kernel:

* ``_star_polygon_scalar`` / ``_fire_season_loop`` for
  :func:`repro.data.wildfires.star_rings` and the season generator;
* ``_trim_loop`` for :func:`repro.data.cells._trim_to_total`;
* ``_draw_plmns_lists`` / ``_draw_radio_types_strings`` for the cell
  categorical draws;
* ``_population_in_bbox_numpy`` / ``_build_counties_loop`` for the
  county tiling;
* ``_metro_density_full_grid`` for the windowed metro and
  wildland-front kernels of the population surface;
* ``_chunk_candidates_loop`` for the road-distance chunk bounds;
* ``_linspace_runs`` / ``_feeder_cut_sites_loop`` /
  ``_lines_crossing_mask_loop`` for the segmented line sampling;
* ``_propensity_field_listcomp`` for the WHP state lookup;
* ``rng.choice(p=…)`` for the memoized-CDF weighted draws.

Kernels must reproduce their oracle bit for bit *and* leave the random
generator in the same state, so every later draw is unchanged too.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.data import cells as cells_mod
from repro.data import fsim as fsim_mod
from repro.data import population as population_mod
from repro.data.cells import PROVIDER_GROUPS, _draw_plmns, _trim_to_total
from repro.data.cities import conus_cities
from repro.data.counties import (
    _VERY_DENSE_CUT,
    County,
    _named_counties,
    build_counties,
)
from repro.data.population import PopulationSurface, _metro_density
from repro.data.powergrid import _sample_runs
from repro.data.providers import MAJOR_PROVIDERS, provider_registry
from repro.data.radios import draw_radio_types, technology_mix
from repro.data.roads import (
    _chunk_candidates,
    _point_segment_distance_vec,
    distance_to_roads_deg,
    road_segments,
)
from repro.data.sampling import draw_from_cdf, weighted_cdf
from repro.data.states import StateAssigner
from repro.data.whp import _propensity_field
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
from repro.geo.raster import GridSpec, Raster
from repro.hazard import wind as wind_mod
from repro.hazard.wind import WindFootprintHazard


def assert_bits_equal(a, b):
    """Same shape, dtype and bytes (so -0.0 != 0.0 and NaNs compare)."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()

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


# ----------------------------------------------------------------------
# Population surface: windowed metro and wildland-front kernels
# ----------------------------------------------------------------------


def _metro_density_full_grid(grid, land):
    """The retired full-grid metro and wildland-front loop."""
    rows = np.arange(grid.height)
    cols = np.arange(grid.width)
    lon_axis, _ = grid.cell_center(0, cols)
    _, lat_axis = grid.cell_center(rows, 0)

    def kernel_d2(lon0, lat0):
        du2 = ((lon_axis - lon0) * np.cos(np.radians(lat0))) ** 2
        dv2 = (lat_axis - lat0) ** 2
        return (du2[None, :] + dv2[:, None]).ravel()

    density = np.zeros(land.shape)
    for city in conus_cities():
        sigma = 0.08 * (city.metro_pop / 1e5) ** 0.30
        d2 = kernel_d2(city.lon, city.lat)
        kernel = np.exp(-d2 / (2.0 * sigma * sigma)) * land
        total = kernel.sum()
        if total > 0:
            density += city.metro_pop * kernel / total
    for city in conus_cities():
        front = city.wildland_front
        if front is None:
            continue
        flon, flat, sigma, _boost = front
        d2 = kernel_d2(flon, flat)
        density *= 1.0 - 0.65 * np.exp(-d2 / (2.0 * sigma * sigma))
    return density


@pytest.mark.parametrize("bbox,res", [
    (None, 0.1), (None, 0.05),
    # Windows clipped at every edge of a small grid around Los Angeles
    # (metro kernels and the San Gabriel front cross its borders).
    (BBox(-119.0, 33.6, -117.4, 34.8), 0.013),
    # No metro anywhere near: every window is empty.
    (BBox(-160.0, 10.0, -150.0, 15.0), 0.5),
])
def test_metro_density_matches_full_grid_loop(universe, bbox, res):
    grid = GridSpec(bbox or universe.population.grid.bbox, res)
    rng = np.random.default_rng(int(res * 1000))
    land = (rng.random(grid.height * grid.width) < 0.8).astype(float)
    assert_bits_equal(_metro_density(grid, land),
                      _metro_density_full_grid(grid, land))


def test_metro_density_on_the_real_land_mask(universe):
    pop = universe.population
    grid = pop.grid
    rows, cols = np.meshgrid(np.arange(grid.height),
                             np.arange(grid.width), indexing="ij")
    lons, lats = grid.cell_center(rows.ravel(), cols.ravel())
    land = pop._land_mask(lons, lats)
    assert_bits_equal(_metro_density(grid, land),
                      _metro_density_full_grid(grid, land))


# ----------------------------------------------------------------------
# Road distance: per-chunk segment bounds
# ----------------------------------------------------------------------


def _segments():
    return np.array([(s.coords[0][0], s.coords[0][1],
                      s.coords[1][0], s.coords[1][1])
                     for s in road_segments()])


def _chunk_candidates_loop(lons, lats, starts, segs):
    """The retired per-chunk bbox, corner bound and lower bounds."""
    sx0 = np.minimum(segs[:, 0], segs[:, 2])
    sx1 = np.maximum(segs[:, 0], segs[:, 2])
    sy0 = np.minimum(segs[:, 1], segs[:, 3])
    sy1 = np.maximum(segs[:, 1], segs[:, 3])
    ends = list(starts[1:]) + [len(lons)]
    out = []
    for start, end in zip(starts, ends):
        px = lons[start:end]
        py = lats[start:end]
        bx0, bx1 = px.min(), px.max()
        by0, by1 = py.min(), py.max()
        dx = segs[:, 2] - segs[:, 0]
        dy = segs[:, 3] - segs[:, 1]
        seg_len2 = np.where(dx * dx + dy * dy == 0.0, 1.0,
                            dx * dx + dy * dy)
        corner_max = np.zeros(len(segs))
        for qx, qy in ((bx0, by0), (bx0, by1), (bx1, by0), (bx1, by1)):
            t = np.clip(((qx - segs[:, 0]) * dx + (qy - segs[:, 1]) * dy)
                        / seg_len2, 0.0, 1.0)
            d = np.hypot(qx - (segs[:, 0] + t * dx),
                         qy - (segs[:, 1] + t * dy))
            np.maximum(corner_max, d, out=corner_max)
        upper = float(corner_max.min()) + 1e-6
        lower = np.hypot(
            np.maximum(0.0, np.maximum(sx0 - bx1, bx0 - sx1)),
            np.maximum(0.0, np.maximum(sy0 - by1, by0 - sy1)))
        out.append(lower <= upper)
    return np.array(out)


@given(st.integers(min_value=1, max_value=3000),
       st.sampled_from([1, 7, 64, 512, 5000]),
       st.booleans(),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_chunk_candidates_match_per_chunk_loop(n, chunk, clustered, seed):
    rng = np.random.default_rng(seed)
    if clustered:
        lons = rng.normal(-100.0, 0.3, n)
        lats = rng.normal(38.0, 0.3, n)
    else:
        lons = rng.uniform(-126.0, -66.0, n)
        lats = rng.uniform(24.0, 50.0, n)
    segs = _segments()
    starts = np.arange(0, n, chunk)
    assert_bits_equal(_chunk_candidates(lons, lats, starts, segs),
                      _chunk_candidates_loop(lons, lats, starts, segs))


def test_chunk_candidates_keep_the_safety_margin():
    """A segment whose bbox lies 5e-7 beyond the nearest segment's
    distance is still tested: the bound carries a 1e-6 margin."""
    segs = np.array([[1.0, -1.0, 1.0, 1.0],            # distance 1
                     [-1.0, 1.0 + 5e-7, 1.0, 1.0 + 5e-7],
                     [-1.0, 1.0 + 2e-6, 1.0, 1.0 + 2e-6]])
    got = _chunk_candidates(np.zeros(1), np.zeros(1), np.zeros(1, int),
                            segs)
    np.testing.assert_array_equal(got, [[True, True, False]])
    assert_bits_equal(got, _chunk_candidates_loop(
        np.zeros(1), np.zeros(1), np.zeros(1, int), segs))


@given(st.integers(min_value=0, max_value=600),
       st.sampled_from([1, 33, 512]),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_distance_to_roads_matches_every_segment(n, chunk, seed):
    rng = np.random.default_rng(seed)
    lons = rng.uniform(-126.0, -66.0, n)
    lats = rng.uniform(24.0, 50.0, n)
    best = np.full(n, np.inf)
    for seg in road_segments():
        (x1, y1), (x2, y2) = seg.coords
        best = np.minimum(best, _point_segment_distance_vec(
            lons, lats, x1, y1, x2, y2))
    assert_bits_equal(distance_to_roads_deg(lons, lats, chunk=chunk), best)


# ----------------------------------------------------------------------
# Power grid: segmented line sampling
# ----------------------------------------------------------------------


def _linspace_runs(x1, y1, x2, y2, step_deg):
    """The retired per-run ``np.linspace`` sampling."""
    lons, lats, counts = [], [], []
    for a, b, c, d in zip(x1, y1, x2, y2):
        length = float(np.hypot(c - a, d - b))
        n = max(2, int(length / step_deg))
        ts = np.linspace(0.0, 1.0, n)
        lons.append(a + ts * (c - a))
        lats.append(b + ts * (d - b))
        counts.append(n)
    return (np.concatenate(lons), np.concatenate(lats),
            np.cumsum([0] + counts[:-1]))


@given(st.integers(min_value=1, max_value=60),
       st.sampled_from([0.04, 0.05, 0.013, 1.0]),
       st.floats(min_value=0.0, max_value=25.0),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sample_runs_match_per_run_linspace(n_runs, step, spread, seed):
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-125.0, -67.0, n_runs)
    y1 = rng.uniform(25.0, 49.0, n_runs)
    x2 = x1 + rng.uniform(-spread, spread, n_runs)
    y2 = y1 + rng.uniform(-spread, spread, n_runs)
    x2[::3] = x1[::3]           # zero-length runs still get 2 samples
    y2[::3] = y1[::3]
    lons, lats, offsets = _sample_runs(x1, y1, x2, y2, step)
    want_lons, want_lats, want_offsets = _linspace_runs(x1, y1, x2, y2,
                                                        step)
    assert_bits_equal(lons, want_lons)
    assert_bits_equal(lats, want_lats)
    np.testing.assert_array_equal(offsets, want_offsets)


def _lines_crossing_mask_loop(grid_, whp, mask, step_deg=0.05):
    """The retired per-line loop."""
    grid = whp.grid
    hits = []
    for i, (a, b) in enumerate(grid_.lines):
        x1, y1 = grid_.substation_lons[a], grid_.substation_lats[a]
        x2, y2 = grid_.substation_lons[b], grid_.substation_lats[b]
        length = float(np.hypot(x2 - x1, y2 - y1))
        n = max(2, int(length / step_deg))
        ts = np.linspace(0.0, 1.0, n)
        lons = x1 + ts * (x2 - x1)
        lats = y1 + ts * (y2 - y1)
        rows, cols = grid.rowcol(lons, lats)
        ok = grid.inside(rows, cols)
        if ok.any() and mask[rows[ok], cols[ok]].any():
            hits.append(i)
    return np.asarray(hits, dtype=np.int64)


def _feeder_cut_sites_loop(grid_, cells, whp, mask, step_deg=0.04):
    """The retired per-site loop."""
    grid = whp.grid
    site_ids, first = np.unique(cells.site_ids, return_index=True)
    site_lons = cells.lons[first]
    site_lats = cells.lats[first]
    cut = set()
    for sid, lon, lat in zip(site_ids.tolist(), site_lons, site_lats):
        sub = grid_.site_substation.get(int(sid))
        if sub is None:
            continue
        x2 = grid_.substation_lons[sub]
        y2 = grid_.substation_lats[sub]
        length = float(np.hypot(x2 - lon, y2 - lat))
        n = max(2, int(length / step_deg))
        ts = np.linspace(0.0, 1.0, n)
        rows, cols = grid.rowcol(lon + ts * (x2 - lon),
                                 lat + ts * (y2 - lat))
        ok = grid.inside(rows, cols)
        if mask[rows[ok], cols[ok]].any():
            cut.add(int(sid))
    return cut


@pytest.mark.parametrize("which", ["at_risk", "high", "random", "none"])
def test_power_grid_sampling_matches_retired_loops(universe, which):
    from repro.core.power import power_grid_for

    grid_ = power_grid_for(universe)
    whp = universe.whp
    mask = {"at_risk": whp.at_risk_mask(),
            "high": whp.raster.data >= 4,
            "random": np.random.default_rng(4).random(whp.grid.shape)
            < 0.01,
            "none": np.zeros(whp.grid.shape, dtype=bool)}[which]
    got_lines = grid_.lines_crossing_mask(whp, mask)
    assert got_lines.dtype == np.int64
    np.testing.assert_array_equal(
        got_lines, _lines_crossing_mask_loop(grid_, whp, mask))
    # A site missing from the substation map is skipped, as before.
    cells = universe.cells
    partial = dataclasses.replace(
        grid_, site_substation=dict(list(grid_.site_substation.items())
                                    [::2]))
    for g in (grid_, partial):
        assert g.feeder_cut_sites(cells, whp, mask) \
            == _feeder_cut_sites_loop(g, cells, whp, mask)


# ----------------------------------------------------------------------
# WHP: per-state propensity lookup
# ----------------------------------------------------------------------


def _propensity_field_listcomp(pop, grid, lons, lats, land):
    """The retired per-cell list-comprehension lookup."""
    assigner = StateAssigner()
    pgrid = pop.grid
    cmesh, rmesh = np.meshgrid(np.arange(pgrid.width),
                               np.arange(pgrid.height))
    plons, plats = pgrid.cell_center(rmesh.ravel(), cmesh.ravel())
    pland = pop.raster.data.ravel() > 0
    abbrs = assigner.assign_many(plons[pland], plats[pland])
    fields = []
    for attr in ("whp_propensity", "wui_intermix"):
        lut = {abbr: getattr(state, attr)
               for abbr, state in assigner.states.items()}
        vals = np.zeros(plons.shape)
        vals[pland] = np.array([lut[a] for a in abbrs])
        out = Raster(pgrid, vals.reshape(pgrid.shape)).sample(
            lons, lats).astype(float)
        missing = land & (out <= 0.0)
        if missing.any():
            positive = land & (out > 0)
            out[missing] = np.median(out[positive]) if positive.any() \
                else 0.1
        fields.append(out)
    return fields[0], fields[1]


@pytest.mark.parametrize("res", [0.1, 0.07])
def test_propensity_field_matches_list_comprehension(universe, res):
    pop = universe.population
    grid = GridSpec(pop.grid.bbox, res)
    cmesh, rmesh = np.meshgrid(np.arange(grid.width),
                               np.arange(grid.height))
    lons, lats = grid.cell_center(rmesh.ravel(), cmesh.ravel())
    land = pop.raster.sample(lons, lats) > 0.0
    got = _propensity_field(pop, grid, lons, lats, land)
    want = _propensity_field_listcomp(pop, grid, lons, lats, land)
    for g, w in zip(got, want):
        assert_bits_equal(g, w)


# ----------------------------------------------------------------------
# Weighted draws: memoized CDF + searchsorted == rng.choice(p=...)
# ----------------------------------------------------------------------


def _choice(cdf_or_weights, n, rng):
    """The retired call; ``weighted_cdf`` is patched to pass the raw
    weights through, so this sees exactly what the old code built."""
    w = cdf_or_weights
    return rng.choice(len(w), size=n, p=w / w.sum())


def _retire_cdf_helpers(monkeypatch, *modules):
    for mod in modules:
        monkeypatch.setattr(mod, "weighted_cdf", lambda w: w)
        monkeypatch.setattr(mod, "draw_from_cdf", _choice)


@given(st.lists(st.one_of(st.just(0.0),
                          st.floats(min_value=1e-300, max_value=1e6)),
                min_size=1, max_size=300),
       st.integers(min_value=0, max_value=500),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_cdf_draws_match_choice(weights, n, seed):
    w = np.array(weights)
    if not w.sum() > 0:
        w[0] = 1.0
    a = np.random.default_rng(seed)
    b = np.random.default_rng(seed)
    got = draw_from_cdf(weighted_cdf(w), n, a)
    want = b.choice(len(w), size=n, p=w / w.sum())
    assert_bits_equal(got, want)
    assert a.bit_generator.state == b.bit_generator.state
    assert a.random() == b.random()


class _ExactUniforms:
    """Stands in for a generator whose uniforms hit CDF values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size):
        assert size == len(self.values)
        return self.values


def test_draws_on_cdf_boundaries_skip_zero_weights():
    """``choice`` searches with ``side="right"``: a uniform equal to a
    CDF value moves past it, so zero-weight categories are never
    drawn, even on exact boundaries."""
    w = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 2.0])
    cdf = weighted_cdf(w)
    u = np.unique(cdf[cdf < 1.0])
    got = draw_from_cdf(cdf, len(u), _ExactUniforms(u))
    np.testing.assert_array_equal(got, [1, 3, 5])
    assert (w[got] > 0).all()


@pytest.mark.parametrize("weights", [
    [1.0, -0.5, 2.0], [-1.0, -2.0], [1.0, np.nan], [0.0, 0.0],
    [np.inf, 1.0], [1e308, 1e308]])
def test_weighted_cdf_rejects_bad_weights(weights):
    with pytest.raises(ValueError), np.errstate(over="ignore"):
        weighted_cdf(np.array(weights))


@pytest.mark.parametrize("exponent", [1.0, 0.85, 0.7, 0.5])
def test_sample_points_match_choice(universe, monkeypatch, exponent):
    pop = universe.population
    a = np.random.default_rng(31)
    got = [pop.sample_points(700, a, exponent=exponent) for _ in range(2)]
    fresh = PopulationSurface.__new__(PopulationSurface)
    fresh.__dict__.update(pop.__dict__, _sample_cdfs={})
    _retire_cdf_helpers(monkeypatch, population_mod)
    b = np.random.default_rng(31)
    want = [fresh.sample_points(700, b, exponent=exponent)
            for _ in range(2)]
    for (glon, glat), (wlon, wlat) in zip(got, want):
        assert_bits_equal(glon, wlon)
        assert_bits_equal(glat, wlat)
    assert a.bit_generator.state == b.bit_generator.state


def test_wind_member_matches_choice(universe, monkeypatch):
    got = WindFootprintHazard().ensemble_member(universe, 2019, 3)
    _retire_cdf_helpers(monkeypatch, wind_mod)
    want = WindFootprintHazard().ensemble_member(universe, 2019, 3)
    assert [e.name for e in got] == [e.name for e in want]
    for g, w in zip(got, want):
        assert_bits_equal(g.polygon.exterior, w.polygon.exterior)


def test_fsim_ignitions_match_choice(whp, monkeypatch):
    config = fsim_mod.FsimConfig(n_ignitions=40, max_steps=6, seed=12)
    got = fsim_mod.run_fsim(whp, config)
    _retire_cdf_helpers(monkeypatch, fsim_mod)
    want = fsim_mod.run_fsim(whp, config)
    assert_bits_equal(got.burn_counts.data, want.burn_counts.data)
    assert got.total_cells_burned == want.total_cells_burned


def test_ignition_cdf_is_memoized_choice_cdf(whp):
    cdf = whp.ignition_cdf()
    assert whp.ignition_cdf() is cdf
    w = whp.ignition_weights().ravel()
    p = w / w.sum()
    want = p.cumsum()
    want /= want[-1]
    assert_bits_equal(cdf, want)
