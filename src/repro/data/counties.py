"""Synthetic county layer.

The paper's impact analysis (§3.6) needs county polygons with populations
so transceivers can be bucketed into the three density categories:

* ``POP_M``  — moderately dense, 200k–500k people,
* ``POP_H``  — dense, 500k–1.5M people,
* ``POP_VH`` — very dense, >1.5M people.

We tile each state with ~0.35° square "counties" whose populations are
integrated from the population surface.  Like real counties — which are
small where people are dense — tiles holding more than 1.5M people are
recursively subdivided into quadrants (down to ~0.175°), so the
"very dense" category is not inflated by coarse aggregation.

The tile containing a metro anchor is then renamed to that metro's real
county and given the county's real 2018 population, so the paper's "23
most populous counties" (Los Angeles, Cook, Harris, Maricopa, San Diego,
...) exist by name with the right populations and category memberships.
Nearby anchors can fall in one tile (e.g. San Francisco/Oakland); the
largest county wins and the others merge into it — a documented
simplification of Bay-Area geography.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from ..geo.geometry import BBox
from .cities import conus_cities
from .population import PopulationSurface
from .states import StateAssigner

__all__ = ["PopCategory", "County", "build_counties", "CountyLayer",
           "POP_CATEGORY_NAMES", "categorize_population"]

#: County population above which a tile is considered "very dense" and
#: above which unanchored tiles are subdivided.
_VERY_DENSE_CUT = 1_500_000


class PopCategory(IntEnum):
    """County population-density categories from §3.6."""

    RURAL = 0        # < 200k (not part of the paper's three categories)
    POP_M = 1        # 200k - 500k
    POP_H = 2        # 500k - 1.5M
    POP_VH = 3       # > 1.5M


POP_CATEGORY_NAMES = {
    PopCategory.RURAL: "Rural (<200k)",
    PopCategory.POP_M: "Mod Dense (200k-500k)",
    PopCategory.POP_H: "Dense (500k-1.5M)",
    PopCategory.POP_VH: "Very Dense (>1.5M)",
}


def categorize_population(population: float) -> PopCategory:
    """Map a county population to its density category."""
    if population > _VERY_DENSE_CUT:
        return PopCategory.POP_VH
    if population > 500_000:
        return PopCategory.POP_H
    if population > 200_000:
        return PopCategory.POP_M
    return PopCategory.RURAL


@dataclass
class County:
    """A county tile (possibly a subdivided quadrant)."""

    name: str
    state: str
    bbox: BBox
    population: int
    anchor_city: str | None = None

    @property
    def category(self) -> PopCategory:
        return categorize_population(self.population)


class CountyLayer:
    """All counties plus fast point-to-county assignment.

    Named (metro) counties carry realistic extents and take priority;
    the remaining area is covered by grid tiles, so assignment is a
    vectorized pass over ~90 named boxes plus O(1) tile arithmetic.
    """

    def __init__(self, counties: list[County], tile_deg: float, bbox: BBox,
                 n_named: int = 0):
        self.counties = counties
        self.tile_deg = tile_deg
        self.bbox = bbox
        self.n_named = n_named
        self._ncols = int(np.ceil(bbox.width / tile_deg))
        # base tile key -> list of county indices inside that tile
        self._by_tile: dict[int, list[int]] = {}
        boxes = _bbox_array(counties[n_named:])
        keys = self._tile_key((boxes[:, 0] + boxes[:, 2]) / 2.0,
                              (boxes[:, 1] + boxes[:, 3]) / 2.0)
        for i, key in enumerate(keys.tolist(), start=n_named):
            self._by_tile.setdefault(key, []).append(i)

    def _tile_key(self, lon, lat):
        col = np.floor((np.asarray(lon) - self.bbox.min_lon)
                       / self.tile_deg).astype(np.int64)
        row = np.floor((np.asarray(lat) - self.bbox.min_lat)
                       / self.tile_deg).astype(np.int64)
        return row * self._ncols + col

    def assign(self, lon: float, lat: float) -> int:
        """County index for one point; -1 if no county covers it."""
        for i in range(self.n_named):
            if self.counties[i].bbox.contains(lon, lat):
                return i
        entries = self._by_tile.get(int(self._tile_key(lon, lat)), [])
        if len(entries) == 1:
            return entries[0]
        for i in entries:
            if self.counties[i].bbox.contains(lon, lat):
                return i
        return -1

    def assign_many(self, lons, lats) -> np.ndarray:
        """County index per point; -1 where no county covers the point."""
        lons = np.atleast_1d(np.asarray(lons, dtype=float))
        lats = np.atleast_1d(np.asarray(lats, dtype=float))
        out = np.full(len(lons), -1, dtype=np.int64)
        # Named counties first (priority), vectorized per box.
        for i in range(self.n_named):
            box = self.counties[i].bbox
            hit = (out < 0) & box.contains_many(lons, lats)
            out[hit] = i
        # Remaining points fall into grid tiles.
        rest = np.nonzero(out < 0)[0]
        keys = np.atleast_1d(self._tile_key(lons[rest], lats[rest]))
        for j, key in zip(rest.tolist(), keys.tolist()):
            entries = self._by_tile.get(key)
            if not entries:
                continue
            if len(entries) == 1:
                out[j] = entries[0]
                continue
            for i in entries:
                if self.counties[i].bbox.contains(lons[j], lats[j]):
                    out[j] = i
                    break
        return out

    def categories(self) -> np.ndarray:
        """(n_counties,) array of PopCategory codes."""
        return np.array([int(c.category) for c in self.counties],
                        dtype=np.int8)

    def populations(self) -> np.ndarray:
        return np.array([c.population for c in self.counties],
                        dtype=np.int64)

    def by_name(self, name: str) -> County:
        for c in self.counties:
            if c.name == name:
                return c
        raise KeyError(f"unknown county: {name!r}")

    def very_dense(self) -> list[County]:
        """Counties in the >1.5M category (the paper's 23)."""
        return [c for c in self.counties
                if c.category == PopCategory.POP_VH]


def _bbox_array(counties: list[County]) -> np.ndarray:
    """``(n, 4)`` min_lon/min_lat/max_lon/max_lat rows of the boxes.

    Centers taken as ``(rows[:, 0] + rows[:, 2]) / 2.0`` are
    :attr:`BBox.center` elementwise.
    """
    return np.array([(c.bbox.min_lon, c.bbox.min_lat, c.bbox.max_lon,
                      c.bbox.max_lat) for c in counties],
                    dtype=float).reshape(-1, 4)


def _subdivide(tile: BBox, pop: PopulationSurface, min_deg: float) \
        -> list[tuple[BBox, int]]:
    """Recursively split a tile into quadrants while it is very dense."""
    population = int(round(pop.population_in_bbox(tile)))
    if population <= _VERY_DENSE_CUT or tile.width / 2.0 < min_deg:
        return [(tile, population)]
    mid_lon = (tile.min_lon + tile.max_lon) / 2.0
    mid_lat = (tile.min_lat + tile.max_lat) / 2.0
    quads = [
        BBox(tile.min_lon, tile.min_lat, mid_lon, mid_lat),
        BBox(mid_lon, tile.min_lat, tile.max_lon, mid_lat),
        BBox(tile.min_lon, mid_lat, mid_lon, tile.max_lat),
        BBox(mid_lon, mid_lat, tile.max_lon, tile.max_lat),
    ]
    out: list[tuple[BBox, int]] = []
    for quad in quads:
        out.extend(_subdivide(quad, pop, min_deg))
    return out


def _named_counties() -> list[County]:
    """Metro counties with realistic extents, most populous first.

    Descending population order means that where two real county boxes
    overlap slightly (hand-approximated extents), the larger county wins
    point assignment.
    """
    named: list[County] = []
    seen: set[str] = set()
    for city in sorted(conus_cities(), key=lambda c: -c.county_pop):
        if city.county_name in seen:
            continue
        box = city.county_bbox
        if box is None:
            continue
        seen.add(city.county_name)
        named.append(County(
            name=city.county_name,
            state=city.state,
            bbox=BBox(*box),
            population=city.county_pop,
            anchor_city=city.name,
        ))
    return named


def _in_any(boxes: np.ndarray, lons: np.ndarray,
            lats: np.ndarray) -> np.ndarray:
    """Per point: inside (edges included) any of the ``(n, 4)`` boxes."""
    inside = np.zeros(len(lons), dtype=bool)
    for min_lon, min_lat, max_lon, max_lat in boxes.tolist():
        inside |= ((min_lon <= lons) & (lons <= max_lon)
                   & (min_lat <= lats) & (lats <= max_lat))
    return inside


def build_counties(pop: PopulationSurface, tile_deg: float = 0.35,
                   min_subdivision_deg: float = 0.17) -> CountyLayer:
    """Build the county layer: named metro counties + grid tiles.

    Named counties (realistic extents, real populations) come first and
    take assignment priority.  The rest of CONUS is covered by tiles
    whose populations integrate the surface; unanchored very-dense tiles
    are quadrant-subdivided like real counties are smaller where people
    are dense.  Tile populations are *not* reduced by named-county
    overlap (the named population is authoritative; the slight double
    count at box edges is a documented approximation).
    """
    named = _named_counties()
    bbox = pop.grid.bbox

    assigner = StateAssigner()
    n_cols = int(np.ceil(bbox.width / tile_deg))
    n_rows = int(np.ceil(bbox.height / tile_deg))

    # Tile corners in row-major order, with the float ops a per-tile
    # ``BBox(min_lon, min_lat, min_lon + tile_deg, min_lat + tile_deg)``
    # and its center would do.
    min_lons = np.tile(bbox.min_lon + np.arange(n_cols) * tile_deg, n_rows)
    min_lats = np.repeat(bbox.min_lat + np.arange(n_rows) * tile_deg,
                         n_cols)
    max_lons = min_lons + tile_deg
    max_lats = min_lats + tile_deg
    centers_lon = (min_lons + max_lons) / 2.0
    centers_lat = (min_lats + max_lats) / 2.0
    abbrs = assigner.assign_many(centers_lon, centers_lat)
    # assign_many is total (nearest-centroid fallback), so re-check which
    # tile centers are actually on land via the population surface.
    on_land = pop.density_at(centers_lon, centers_lat) > 0.0
    named_boxes = _bbox_array(named)
    in_named = _in_any(named_boxes, centers_lon, centers_lat)

    quads: list[tuple[BBox, int, str]] = []
    for i in np.flatnonzero(on_land & ~in_named).tolist():
        tile = BBox(float(min_lons[i]), float(min_lats[i]),
                    float(max_lons[i]), float(max_lats[i]))
        abbr = str(abbrs[i])
        quads.extend((quad, population, abbr) for quad, population
                     in _subdivide(tile, pop, min_subdivision_deg))
    # Quads whose center a named county already covers are dropped.
    qboxes = np.array([(q.min_lon, q.min_lat, q.max_lon, q.max_lat)
                       for q, _, _ in quads], dtype=float).reshape(-1, 4)
    shadowed = _in_any(named_boxes,
                       (qboxes[:, 0] + qboxes[:, 2]) / 2.0,
                       (qboxes[:, 1] + qboxes[:, 3]) / 2.0)

    counties: list[County] = list(named)
    for (quad, population, abbr), drop in zip(quads, shadowed.tolist()):
        if drop:
            continue
        counties.append(County(name=f"{abbr}-{len(counties):04d}",
                               state=abbr, bbox=quad,
                               population=population))

    return CountyLayer(counties, tile_deg, bbox, n_named=len(named))
