"""Synthetic wildfire perimeters (GeoMAC substitute).

GeoMAC provides dated perimeter polygons for the fires large enough to be
tracked.  The generator reproduces, per year:

* the national acreage exactly (Table 1's "acres burned" column is an
  input from :mod:`repro.data.historical_stats`),
* a heavy-tailed size distribution (truncated Pareto — most perimeter
  fires are small; a few megafires carry most acreage, §2.1),
* ignition locations drawn proportionally to WHP hazard (fires start
  where fuel is), and
* irregular star-shaped perimeters with noisy radii.

For 2019, four scripted fires reproduce the case-study geography the
validation of §3.4 depends on: a Kincade-like fire north of the Bay Area,
a small Getty-like fire inside west Los Angeles, and Saddle Ridge/Tick-
like fires straddling the urban fringe and highway corridor north of Los
Angeles — the two fires that account for most of the WHP misses in the
paper (288 of 354).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from ..geo.geometry import BBox, Polygon
from ..geo.projection import acres_to_sqmeters, meters_per_degree
from .cities import city_by_name
from .historical_stats import year_stats
from .sampling import draw_from_cdf
from .whp import WhpModel

__all__ = ["FirePerimeter", "FireSeason", "generate_fire_season",
           "scripted_2019_fires", "scripted_2019_growth",
           "interpolated_perimeter", "star_polygon", "star_rings",
           "ring_polygons",
           "SCRIPTED_LA_FIRES_2019"]

#: Names of the two scripted fires that reproduce the paper's §3.4
#: Los Angeles anomaly.
SCRIPTED_LA_FIRES_2019 = ("Saddle Ridge", "Tick")

#: Per-vertex-count cache of the deterministic star-polygon geometry
#: (theta grid, its cos/sin, and sin of the angular step).  Thousands of
#: perimeters share the same vertex count, so the trig is hoisted out of
#: the per-fire loop.
_STAR_TRIG: dict[int, tuple[np.ndarray, np.ndarray, float]] = {}


def _star_trig(n_vertices: int) -> tuple[np.ndarray, np.ndarray, float]:
    cached = _STAR_TRIG.get(n_vertices)
    if cached is None:
        theta = np.linspace(0.0, 2.0 * math.pi, n_vertices,
                            endpoint=False)
        cached = (np.cos(theta), np.sin(theta),
                  math.sin(2.0 * math.pi / n_vertices))
        _STAR_TRIG[n_vertices] = cached
    return cached


@dataclass(frozen=True)
class FirePerimeter:
    """One wildfire perimeter with GeoMAC-style attributes."""

    name: str
    year: int
    start_doy: int
    end_doy: int
    acres: float
    polygon: Polygon
    agency: str = "USFS"
    method: str = "Infrared"

    @property
    def duration_days(self) -> int:
        return max(1, self.end_doy - self.start_doy)


@dataclass
class FireSeason:
    """All perimeter fires of one year."""

    year: int
    fires: list[FirePerimeter]

    def __len__(self) -> int:
        return len(self.fires)

    def total_acres(self) -> float:
        return sum(f.acres for f in self.fires)


def star_rings(lons, lats, acres, noise, elongation=None,
               bearing_deg=None, roughness: float = 0.45) -> np.ndarray:
    """Batch kernel: ``(fires, vertices, 2)`` open CCW star rings.

    Row ``i`` is the ring :func:`star_polygon` builds for fire ``i``
    from ``noise[i]`` (its ``standard_normal(n_vertices)`` draw), bit
    for bit: every step is the scalar path's elementwise expression
    applied row-wise, and the per-fire libm calls (``meters_per_degree``
    and the elongation ``cos``/``sin``) stay scalar ``math`` calls.
    ``elongation``/``bearing_deg`` (one per fire, as in
    :func:`star_polygon`) default to isotropic fires.
    """
    noise = np.asarray(noise, dtype=float)
    n_fires, n_vertices = noise.shape
    lons = np.asarray(lons, dtype=float)
    lats = np.asarray(lats, dtype=float)
    acres = np.asarray(acres, dtype=float)
    elongation = (np.ones(n_fires) if elongation is None
                  else np.asarray(elongation, dtype=float))
    bearing_deg = (np.zeros(n_fires) if bearing_deg is None
                   else np.asarray(bearing_deg, dtype=float))
    if (acres <= 0).any():
        raise ValueError("fire area must be positive")
    if (elongation < 1.0).any():
        raise ValueError("elongation must be >= 1")
    # Circular smoothing keeps the outline coherent rather than spiky.
    noise = ndimage.uniform_filter1d(noise, size=5, mode="wrap", axis=1)
    noise = noise / np.maximum(np.abs(noise).max(axis=1), 1e-9)[:, None]
    # Same values as np.clip(..., 0.25, None) without the clip wrapper.
    radii_rel = np.maximum(1.0 + roughness * noise, 0.25)

    cos_theta, sin_theta, sin_dtheta = _star_trig(n_vertices)
    # Polygon area for radial function r(θ): A = 1/2 Σ r_i r_{i+1} sin Δθ.
    radii_next = np.concatenate((radii_rel[:, 1:], radii_rel[:, :1]),
                                axis=1)
    unit_area = 0.5 * (np.sum(radii_rel * radii_next, axis=1)
                       * sin_dtheta)
    base_r = np.sqrt(acres_to_sqmeters(acres) / unit_area)[:, None]

    x = base_r * radii_rel * cos_theta
    y = base_r * radii_rel * sin_theta
    windy = np.flatnonzero(elongation > 1.0)
    if len(windy):
        # Area-preserving anisotropic scaling along the wind bearing.
        stretch = np.sqrt(elongation[windy])[:, None]
        # bearing (clockwise from north) -> math angle, per fire in libm
        wind = [math.radians(90.0 - b) for b in bearing_deg[windy].tolist()]
        ca = np.array([math.cos(w) for w in wind])[:, None]
        sa = np.array([math.sin(w) for w in wind])[:, None]
        xw, yw = x[windy], y[windy]
        along = (xw * ca + yw * sa) * stretch
        across = (-xw * sa + yw * ca) / stretch
        x[windy] = along * ca - across * sa
        y[windy] = along * sa + across * ca

    scale = np.array([meters_per_degree(lat) for lat in lats.tolist()]
                     ).reshape(n_fires, 2)
    rings = np.empty((n_fires, n_vertices, 2))
    rings[:, :, 0] = lons[:, None] + x / scale[:, :1]
    rings[:, :, 1] = lats[:, None] + y / scale[:, 1:]
    return rings


def ring_polygons(rings: np.ndarray) -> list[Polygon]:
    """Polygons over the rows of a :func:`star_rings` batch.

    The rings are CCW by construction (theta increases counter-clockwise,
    radii are positive) and open, so the trusted constructor applies;
    bounding boxes come from one vectorized min/max pass.
    """
    lo = rings.min(axis=1).tolist()
    hi = rings.max(axis=1).tolist()
    return [Polygon.from_ccw_ring(ring, BBox(*a, *b))
            for ring, a, b in zip(rings, lo, hi)]


def star_polygon(lon: float, lat: float, acres: float,
                 rng: np.random.Generator, n_vertices: int = 24,
                 roughness: float = 0.45, elongation: float = 1.0,
                 bearing_deg: float = 0.0) -> Polygon:
    """An irregular star-convex polygon of the given area.

    Radii are 1 + roughness * smoothed noise around a base radius chosen
    so the polygon's true (equal-area-projected) area equals ``acres``.

    ``elongation`` > 1 stretches the shape along ``bearing_deg``
    (clockwise from north) and compresses it across, preserving area —
    the footprint of a wind-driven fire (Santa Ana events stretch
    perimeters 2-4x along the wind).  One-fire wrapper around
    :func:`star_rings`; generators that emit many perimeters draw the
    noise rows themselves and call the kernel once.
    """
    if acres <= 0:
        raise ValueError("fire area must be positive")
    if elongation < 1.0:
        raise ValueError("elongation must be >= 1")
    noise = rng.standard_normal(n_vertices)
    rings = star_rings([lon], [lat], [acres], noise[None, :],
                       [elongation], [bearing_deg], roughness=roughness)
    return ring_polygons(rings)[0]


def _pareto_sizes(n: int, total_acres: float, rng: np.random.Generator,
                  alpha: float = 0.55, min_acres: float = 80.0,
                  max_acres: float = 450_000.0) -> np.ndarray:
    """Truncated-Pareto fire sizes rescaled to sum to ``total_acres``."""
    u = rng.random(n)
    sizes = min_acres * np.power(1.0 - u, -1.0 / alpha)
    sizes = np.clip(sizes, min_acres, max_acres)
    return sizes * (total_acres / sizes.sum())


def generate_fire_season(year: int, whp: WhpModel, seed: int | None = None,
                         n_perimeter_fires: int | None = None,
                         total_acres: float | None = None,
                         elongation_range: tuple[float, float]
                         = (1.0, 1.0)) -> FireSeason:
    """Generate one year's perimeter fires.

    ``total_acres`` defaults to the year's historical record; the number
    of tracked perimeters defaults to a size-dependent few hundred.
    ``elongation_range`` samples a wind-driven stretch factor per fire
    (default isotropic); see :func:`star_polygon`.
    """
    stats = year_stats(year)
    if total_acres is None:
        total_acres = stats.acres_burned * 1e6
    rng = np.random.default_rng(seed if seed is not None
                                else 1_000_000 + year)
    if n_perimeter_fires is None:
        # GeoMAC tracks the escaped fires: a few hundred per season,
        # scaling weakly with national acreage.
        n_perimeter_fires = int(180 + 40.0 * stats.acres_burned)

    sizes = _pareto_sizes(n_perimeter_fires, total_acres, rng)

    cell_ids = draw_from_cdf(whp.ignition_cdf(), n_perimeter_fires, rng)
    rows, cols = np.unravel_index(cell_ids, whp.grid.shape)
    lons, lats = whp.grid.cell_center(rows, cols)
    half = whp.grid.res / 2.0
    lons = lons + rng.uniform(-half, half, size=n_perimeter_fires)
    lats = lats + rng.uniform(-half, half, size=n_perimeter_fires)

    # Per-fire draws in the scalar generator's order (start day,
    # elongation, bearing, then the perimeter's 24 noise values); the
    # perimeters themselves are one star_rings batch.
    starts = []
    elongations = []
    bearings = []
    noise = np.empty((n_perimeter_fires, 24))
    for i in range(n_perimeter_fires):
        # Scalar min/max equals np.clip on floats, minus ~8us of ufunc
        # dispatch per call — this loop runs tens of thousands of times.
        starts.append(int(min(max(rng.normal(225, 45), 32), 340)))
        elongations.append(float(rng.uniform(*elongation_range)))
        bearings.append(float(rng.uniform(0, 360)))
        rng.standard_normal(out=noise[i])
    polygons = ring_polygons(star_rings(lons, lats, sizes, noise,
                                        elongations, bearings))

    fires = []
    for i, (start, poly) in enumerate(zip(starts, polygons)):
        duration = int(min(max(2 + sizes[i] ** 0.33, 2), 90))
        fires.append(FirePerimeter(
            name=f"FIRE-{year}-{i:04d}",
            year=year,
            start_doy=start,
            end_doy=min(start + duration, 364),
            acres=float(sizes[i]),
            polygon=poly,
        ))
    return FireSeason(year=year, fires=fires)


#: The four scripted 2019 case-study fires as
#: ``(name, agency, anchor_city, dlon, dlat, acres, start_doy, end_doy)``
#: rows.  Row order is the rng-consumption order of
#: :func:`scripted_2019_fires` and must not change — the perimeters are
#: pinned bit-for-bit by golden tests.
_SCRIPTED_2019 = (
    ("Kincade", "CAL FIRE", "San Francisco", -0.35, 0.95,
     77_758.0, 296, 310),
    ("Getty", "LAFD", "Los Angeles", -0.24, 0.05, 745.0, 301, 309),
    ("Saddle Ridge", "LAFD", "Los Angeles", 0.04, 0.13,
     8_799.0, 283, 304),
    ("Tick", "CAL FIRE", "Los Angeles", 0.12, 0.20, 4_615.0, 297, 305),
)

#: A perimeter enters the stream at this fraction of its final linear
#: extent the tick it ignites (a point ignition would be a degenerate
#: polygon).
_IGNITION_FRACTION = 0.2


def _scripted_centers() -> list[tuple[float, float]]:
    """Generation centers of the scripted fires (table order)."""
    return [(city_by_name(anchor).lon + dlon,
             city_by_name(anchor).lat + dlat)
            for _, _, anchor, dlon, dlat, _, _, _ in _SCRIPTED_2019]


def scripted_2019_fires(seed: int = 2019) -> list[FirePerimeter]:
    """The four scripted California fires of the 2019 case study.

    Positions are relative to the synthetic city anchors so they land on
    the same features as the real fires: Kincade in the wildlands north
    of the Bay Area, Getty inside west LA, and Saddle Ridge/Tick on the
    urban fringe and highway corridor north of LA.
    """
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((len(_SCRIPTED_2019), 24))
    centers = _scripted_centers()
    polygons = ring_polygons(star_rings(
        [lon for lon, _ in centers], [lat for _, lat in centers],
        [row[5] for row in _SCRIPTED_2019], noise))
    return [FirePerimeter(name=name, year=2019, start_doy=start,
                          end_doy=end, acres=acres, polygon=poly,
                          agency=agency)
            for (name, agency, _, _, _, acres, start, end), poly
            in zip(_SCRIPTED_2019, polygons)]


def interpolated_perimeter(fire: FirePerimeter, center_lon: float,
                           center_lat: float,
                           fraction: float) -> FirePerimeter:
    """The fire's front part-way through its growth.

    The exterior ring is scaled about the fire's generation center by
    ``fraction`` of its final *linear* extent (area scales with the
    square).  Star polygons are star-shaped about that center, so the
    interpolated family is monotone: ``fraction1 <= fraction2`` implies
    the smaller perimeter is contained in the larger — the invariant
    the delta-overlay engine's bucket skipping rests on.

    ``fraction == 1.0`` returns the *original object*, not a rescaled
    copy: float scaling does not round-trip bit-exactly, and the stream
    goldens pin the final tick to the static perimeter.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if fraction == 1.0:
        return fire
    ring = fire.polygon.exterior
    lons = center_lon + fraction * (ring[:, 0] - center_lon)
    lats = center_lat + fraction * (ring[:, 1] - center_lat)
    return FirePerimeter(
        name=fire.name, year=fire.year,
        start_doy=fire.start_doy, end_doy=fire.end_doy,
        acres=fire.acres * fraction * fraction,
        polygon=Polygon.from_ccw_ring(np.column_stack([lons, lats])),
        agency=fire.agency, method=fire.method)


def scripted_2019_growth(n_ticks: int = 8, seed: int = 2019) \
        -> list[list[FirePerimeter]]:
    """Deterministic per-tick front snapshots of the scripted fires.

    Tick ``t`` maps linearly onto the scripted fires' shared calendar
    window (day-of-year 283-310); each snapshot holds the fires already
    ignited by that day, grown to the fraction of their span elapsed
    (from :data:`_IGNITION_FRACTION` at ignition to 1.0 at
    containment).  Growth is monotone per fire across ticks, a fire
    that finishes growing is thereafter the *identical* static object,
    and the final tick is bit-identical to
    :func:`scripted_2019_fires` — so folding the stream reproduces the
    batch season exactly.
    """
    if n_ticks < 2:
        raise ValueError("a growth series needs at least 2 ticks")
    fires = scripted_2019_fires(seed)
    centers = _scripted_centers()
    first = min(f.start_doy for f in fires)
    last = max(f.end_doy for f in fires)
    ticks = []
    for t in range(n_ticks):
        doy = first + (last - first) * t / (n_ticks - 1)
        snapshot = []
        for fire, (clon, clat) in zip(fires, centers):
            if doy < fire.start_doy:
                continue
            if t == n_ticks - 1 or doy >= fire.end_doy:
                snapshot.append(fire)
                continue
            elapsed = (doy - fire.start_doy) \
                / (fire.end_doy - fire.start_doy)
            fraction = _IGNITION_FRACTION \
                + (1.0 - _IGNITION_FRACTION) * elapsed
            snapshot.append(interpolated_perimeter(fire, clon, clat,
                                                   fraction))
        ticks.append(snapshot)
    return ticks


def generate_2019_season(whp: WhpModel, seed: int = 42) -> FireSeason:
    """The 2019 validation season: scripted fires + background season.

    Background acreage is reduced by the scripted fires' acreage so the
    national total still matches the 2019 record.
    """
    scripted = scripted_2019_fires()
    scripted_acres = sum(f.acres for f in scripted)
    total = year_stats(2019).acres_burned * 1e6 - scripted_acres
    background = generate_fire_season(2019, whp, seed=seed,
                                      total_acres=total)
    return FireSeason(year=2019, fires=scripted + background.fires)
