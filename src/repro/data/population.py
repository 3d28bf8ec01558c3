"""Population density surface for the synthetic US.

One raster drives three things, keeping them mutually consistent exactly
as in the real world:

* transceiver placement density (OpenCelliD density tracks population),
* county populations (integrated surface over county tiles), and
* the urbanization term of the WHP fuel model (urban cores are
  non-burnable; hazard peaks at the wildland-urban interface).

The surface is a sum of Gaussian metro kernels (weight = metro population,
scale grows sublinearly with population), a road-corridor ridge, and a
small rural floor, all clipped to the state polygons (no population in the
ocean / Great Lakes).
"""

from __future__ import annotations

import math

import numpy as np

from ..geo.geometry import BBox
from ..geo.raster import GridSpec, Raster
from .cities import conus_cities
from .roads import distance_to_roads_deg, road_segments
from .sampling import draw_from_cdf, weighted_cdf
from .states import StateAssigner, conus_bbox

__all__ = ["PopulationSurface", "CONUS_POPULATION"]

#: 2018 conterminous-US population (Census estimate, AK/HI excluded).
CONUS_POPULATION = 325_300_000


def _kernel_window(lon_axis: np.ndarray, lat_axis: np.ndarray,
                   lon0: float, lat0: float, sigma: float):
    """``(window, kernel)``: ``exp(-d2 / (2 sigma^2))`` over its window.

    The grid is separable (lon depends on col only, lat on row only), so
    the squared distance is an outer sum of two 1-D terms, bit-identical
    to the full-grid expression.  The window is the rows and columns
    where the 1-D term ``exp(-du2 / (2 sigma^2))`` (resp. ``dv2``) is
    nonzero: ``d2 >= du2`` and every step is monotone, so outside it the
    full-grid ``exp`` underflows to exactly 0.0.  ``(None, None)`` when
    the window is empty.
    """
    two_s2 = 2.0 * sigma * sigma
    du2 = ((lon_axis - lon0) * np.cos(np.radians(lat0))) ** 2
    dv2 = (lat_axis - lat0) ** 2
    c = np.flatnonzero(np.exp(-du2 / two_s2))
    r = np.flatnonzero(np.exp(-dv2 / two_s2))
    if len(c) == 0 or len(r) == 0:
        return None, None
    win = (slice(r[0], r[-1] + 1), slice(c[0], c[-1] + 1))
    d2 = du2[None, win[1]] + dv2[win[0], None]
    return win, np.exp(-d2 / two_s2)


def _metro_density(grid: GridSpec, land: np.ndarray) -> np.ndarray:
    """Metro kernels minus wildland-front voids, raveled like ``land``.

    Every kernel is evaluated only inside its :func:`_kernel_window`;
    outside it the full-grid kernel is exactly 0.0, where adding 0.0
    (metros) or multiplying by ``1.0 - 0.0`` (fronts) leaves the density
    unchanged, so the result is bit-identical to full-grid evaluation.
    """
    rows = np.arange(grid.height)
    cols = np.arange(grid.width)
    lon_axis, _ = grid.cell_center(0, cols)
    _, lat_axis = grid.cell_center(rows, 0)
    density = np.zeros(land.shape)
    density2d = density.reshape(grid.shape)
    land2d = land.reshape(grid.shape)
    # The normalizing total sums the kernel at its full-grid position in
    # a zero buffer, so NumPy's pairwise summation order is unchanged.
    scratch = np.zeros(land.shape)
    scratch2d = scratch.reshape(grid.shape)

    # Metro kernels, each normalized to integrate to its metro
    # population so large metros do not grab a disproportionate share.
    for city in conus_cities():
        # Kernel scale (degrees) grows sublinearly with metro size:
        # ~0.13 deg for a 0.5M metro, ~0.35 deg for a 13M metro.
        # Kept tight so county tiles away from the anchor stay under
        # the 1.5M "very dense" cut (the paper has 23 such counties).
        sigma = 0.08 * (city.metro_pop / 1e5) ** 0.30
        win, kernel = _kernel_window(lon_axis, lat_axis, city.lon,
                                     city.lat, sigma)
        if win is None:
            continue
        kernel = kernel * land2d[win]
        scratch2d[win] = kernel
        total = scratch.sum()
        scratch2d[win] = 0.0
        if total > 0:
            density2d[win] += city.metro_pop * kernel / total

    # Wildland-front voids: the terrain features adjacent to metros
    # (San Gabriel mountains, Wasatch front, Everglades) hold almost
    # no people, even though the metro kernels overlap them.
    for city in conus_cities():
        front = city.wildland_front
        if front is None:
            continue
        flon, flat, sigma, _boost = front
        win, kernel = _kernel_window(lon_axis, lat_axis, flon, flat, sigma)
        if win is not None:
            density2d[win] *= 1.0 - 0.65 * kernel
    return density


class PopulationSurface:
    """A population-density raster over the CONUS.

    Parameters
    ----------
    resolution_deg:
        Cell size in degrees (default 0.1 ~ 10 km, enough structure for the
        analyses while staying laptop-fast).
    total_population:
        The surface is normalized so its cells sum to this.
    """

    def __init__(self, resolution_deg: float = 0.1,
                 total_population: int = CONUS_POPULATION,
                 bbox: BBox | None = None,
                 corridor_share: float = 0.88,
                 corridor_halfwidth_deg: float = 0.08):
        self.grid = GridSpec(bbox or conus_bbox(), resolution_deg)
        self.total_population = int(total_population)
        self.corridor_share = float(corridor_share)
        self.corridor_halfwidth_deg = float(corridor_halfwidth_deg)
        self._assigner = StateAssigner()
        self.road_distance: Raster | None = None
        self.raster = self._build()
        #: Placement CDF per ``sample_points`` exponent.
        self._sample_cdfs: dict[float, np.ndarray] = {}

    def _build(self) -> Raster:
        grid = self.grid
        rows = np.arange(grid.height)
        cols = np.arange(grid.width)
        col_mesh, row_mesh = np.meshgrid(cols, rows)
        lons, lats = grid.cell_center(row_mesh.ravel(), col_mesh.ravel())

        land = self._land_mask(lons, lats)

        density = _metro_density(grid, land)

        # Remaining population: road-corridor towns plus a rural floor.
        road_d = distance_to_roads_deg(lons, lats)
        self.road_distance = Raster(grid, road_d.reshape(grid.shape))
        remaining = max(self.total_population - density.sum(), 0.0)

        # The corridor population lives mostly in discrete towns along
        # the highways (real small-town America is clustered, which is
        # why a wildfire crossing a highway usually misses the towns),
        # with a thin roadside ribbon for the continuum of exits,
        # truck stops and roadside cell sites.
        corridor_budget = remaining * self.corridor_share
        density += self._town_kernels(lons, lats, land,
                                      0.95 * corridor_budget)
        ribbon = np.exp(-(road_d / self.corridor_halfwidth_deg) ** 2) \
            * land
        if ribbon.sum() > 0:
            density += 0.05 * corridor_budget * ribbon / ribbon.sum()
        floor = land.astype(float)
        if floor.sum() > 0:
            density += (remaining * (1.0 - self.corridor_share)
                        * floor / floor.sum())

        density = density.reshape(grid.shape)
        density *= self.total_population / density.sum()
        return Raster(grid, density)

    def _town_kernels(self, lons: np.ndarray, lats: np.ndarray,
                      land: np.ndarray, budget: float,
                      spacing_deg: float = 0.8,
                      sigma_deg: float = 0.06) -> np.ndarray:
        """Town population kernels spaced along the highway graph.

        Towns are placed deterministically (seeded by segment order)
        every ~``spacing_deg`` along each highway edge with lognormal
        sizes, then normalized so they sum to ``budget``.
        """
        rng = np.random.default_rng(709)
        town_lon, town_lat, town_size = [], [], []
        for seg in road_segments():
            (x1, y1), (x2, y2) = seg.coords
            length = float(np.hypot((x2 - x1)
                                    * np.cos(np.radians((y1 + y2) / 2)),
                                    y2 - y1))
            n_towns = max(1, int(length / spacing_deg))
            for k in range(n_towns):
                t = (k + 0.5) / n_towns + rng.uniform(-0.2, 0.2) / n_towns
                town_lon.append(x1 + t * (x2 - x1))
                town_lat.append(y1 + t * (y2 - y1))
                town_size.append(rng.lognormal(0.0, 0.8))
        sizes = np.asarray(town_size)
        sizes *= budget / sizes.sum()
        out = np.zeros(lons.shape)
        grid = self.grid
        for lon, lat, size in zip(town_lon, town_lat, sizes):
            # Local window of +-4 sigma to keep this O(towns).
            row0, col0 = grid.rowcol(lon - 4 * sigma_deg,
                                     lat + 4 * sigma_deg)
            row1, col1 = grid.rowcol(lon + 4 * sigma_deg,
                                     lat - 4 * sigma_deg)
            row0 = max(int(row0), 0)
            col0 = max(int(col0), 0)
            row1 = min(int(row1), grid.height - 1)
            col1 = min(int(col1), grid.width - 1)
            if row0 > row1 or col0 > col1:
                continue
            rows = np.arange(row0, row1 + 1)
            cols = np.arange(col0, col1 + 1)
            cmesh, rmesh = np.meshgrid(cols, rows)
            flat = (rmesh * grid.width + cmesh).ravel()
            clons, clats = grid.cell_center(rmesh.ravel(), cmesh.ravel())
            d2 = ((clons - lon) * np.cos(np.radians(lat))) ** 2 \
                + (clats - lat) ** 2
            kernel = np.exp(-d2 / (2.0 * sigma_deg ** 2)) * land[flat]
            ksum = kernel.sum()
            if ksum > 0:
                out[flat] += size * kernel / ksum
        return out

    def _land_mask(self, lons: np.ndarray, lats: np.ndarray) -> np.ndarray:
        """1.0 where the cell center lies inside some state polygon."""
        mask = np.zeros(lons.shape)
        for st in self._assigner.states.values():
            idx = np.nonzero(mask == 0.0)[0]
            if len(idx) == 0:
                break
            hit = st.geometry.contains_many(lons[idx], lats[idx])
            mask[idx[hit]] = 1.0
        return mask

    def density_at(self, lons, lats) -> np.ndarray:
        """Population per cell at the given points (0 outside CONUS)."""
        return self.raster.sample(lons, lats)

    def population_in_bbox(self, bbox: BBox) -> float:
        """Total population inside a lon/lat box (cell-center rule)."""
        grid = self.grid
        # GridSpec.rowcol's arithmetic on Python floats: the county
        # builder calls this thousands of times, and numpy's 0-d array
        # round trips would cost more than the window sum.
        origin = grid.bbox
        r0 = max(math.floor((origin.max_lat - bbox.max_lat) / grid.res), 0)
        c0 = max(math.floor((bbox.min_lon - origin.min_lon) / grid.res), 0)
        r1 = min(math.floor((origin.max_lat - bbox.min_lat) / grid.res),
                 grid.height - 1)
        c1 = min(math.floor((bbox.max_lon - origin.min_lon) / grid.res),
                 grid.width - 1)
        if r0 > r1 or c0 > c1:
            return 0.0
        return float(self.raster.data[r0:r1 + 1, c0:c1 + 1].sum())

    def population_in_polygon(self, polygon) -> float:
        """Total population inside a polygon (cell-center rule).

        A raster cell counts iff its *center* falls inside the polygon —
        the same rule :meth:`population_in_bbox` applies to boxes, so the
        two agree on polygons that happen to be rectangles.
        """
        bbox = polygon.bbox
        grid = self.grid
        r0, c0 = grid.rowcol(bbox.min_lon, bbox.max_lat)
        r1, c1 = grid.rowcol(bbox.max_lon, bbox.min_lat)
        r0 = max(int(r0), 0)
        c0 = max(int(c0), 0)
        r1 = min(int(r1), grid.height - 1)
        c1 = min(int(c1), grid.width - 1)
        if r0 > r1 or c0 > c1:
            return 0.0
        rows = np.arange(r0, r1 + 1)
        cols = np.arange(c0, c1 + 1)
        cmesh, rmesh = np.meshgrid(cols, rows)
        clons, clats = grid.cell_center(rmesh.ravel(), cmesh.ravel())
        inside = polygon.contains_many(clons, clats)
        window = self.raster.data[r0:r1 + 1, c0:c1 + 1].ravel()
        return float(window[inside].sum())

    def sample_points(self, n: int, rng: np.random.Generator,
                      exponent: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """Draw n points with probability ∝ density**exponent.

        Points are uniformly jittered within their cell.  ``exponent`` < 1
        flattens the distribution (more rural coverage), matching how cell
        sites are somewhat less concentrated than people.
        """
        cdf = self._sample_cdfs.get(exponent)
        if cdf is None:
            cdf = self._sample_cdfs[exponent] = weighted_cdf(
                np.power(self.raster.data.ravel(), exponent))
        cells = draw_from_cdf(cdf, n, rng)
        rows, cols = np.unravel_index(cells, self.grid.shape)
        lons, lats = self.grid.cell_center(rows, cols)
        half = self.grid.res / 2.0
        lons = lons + rng.uniform(-half, half, size=n)
        lats = lats + rng.uniform(-half, half, size=n)
        return lons, lats
