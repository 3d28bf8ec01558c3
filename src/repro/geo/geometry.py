"""Vector geometry types.

A deliberately small, immutable geometry model covering what the paper's
analyses need: points, bounding boxes, polylines, and (multi)polygons with
holes.  Coordinates are lon/lat degrees throughout the package; areas are
computed on the CONUS Albers equal-area plane so they are true areas.

The types interoperate with GeoJSON via :mod:`repro.geo.geojson`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .predicates import (
    _validated_ring,
    is_ccw,
    point_in_ring,
    points_in_ring,
    point_segment_distance,
    prepare_ring,
    ring_area_signed,
)
from .projection import CONUS_ALBERS, sqmeters_to_acres

__all__ = [
    "Point",
    "BBox",
    "LineString",
    "Polygon",
    "PreparedPolygon",
    "MultiPolygon",
    "simplify_ring",
]


@dataclass(frozen=True)
class Point:
    """A lon/lat point."""

    lon: float
    lat: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.lon, self.lat)


@dataclass(frozen=True)
class BBox:
    """An axis-aligned lon/lat bounding box."""

    min_lon: float
    min_lat: float
    max_lon: float
    max_lat: float

    def __post_init__(self):
        if self.min_lon > self.max_lon or self.min_lat > self.max_lat:
            raise ValueError(f"inverted bbox: {self}")

    @classmethod
    def of_coords(cls, lons, lats) -> "BBox":
        lons = np.asarray(lons, dtype=float)
        lats = np.asarray(lats, dtype=float)
        if lons.size == 0:
            raise ValueError("cannot take bbox of empty coordinates")
        return cls(float(lons.min()), float(lats.min()),
                   float(lons.max()), float(lats.max()))

    @property
    def width(self) -> float:
        return self.max_lon - self.min_lon

    @property
    def height(self) -> float:
        return self.max_lat - self.min_lat

    @property
    def center(self) -> Point:
        return Point((self.min_lon + self.max_lon) / 2.0,
                     (self.min_lat + self.max_lat) / 2.0)

    def contains(self, lon: float, lat: float) -> bool:
        return (self.min_lon <= lon <= self.max_lon
                and self.min_lat <= lat <= self.max_lat)

    def contains_many(self, lons, lats) -> np.ndarray:
        lons = np.asarray(lons, dtype=float)
        lats = np.asarray(lats, dtype=float)
        return ((lons >= self.min_lon) & (lons <= self.max_lon)
                & (lats >= self.min_lat) & (lats <= self.max_lat))

    def intersects(self, other: "BBox") -> bool:
        return not (other.min_lon > self.max_lon
                    or other.max_lon < self.min_lon
                    or other.min_lat > self.max_lat
                    or other.max_lat < self.min_lat)

    def expand(self, dlon: float, dlat: float | None = None) -> "BBox":
        """Grow the box by ``dlon`` degrees (and ``dlat``, default same)."""
        if dlat is None:
            dlat = dlon
        return BBox(self.min_lon - dlon, self.min_lat - dlat,
                    self.max_lon + dlon, self.max_lat + dlat)

    def union(self, other: "BBox") -> "BBox":
        return BBox(min(self.min_lon, other.min_lon),
                    min(self.min_lat, other.min_lat),
                    max(self.max_lon, other.max_lon),
                    max(self.max_lat, other.max_lat))


class LineString:
    """An open polyline in lon/lat degrees."""

    def __init__(self, coords: Sequence[Sequence[float]]):
        arr = np.asarray(coords, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) < 2:
            raise ValueError("LineString needs an (N>=2, 2) coordinate array")
        self.coords = arr
        self.coords.setflags(write=False)

    def __len__(self) -> int:
        return len(self.coords)

    def __repr__(self) -> str:
        return f"LineString({len(self.coords)} vertices)"

    @property
    def bbox(self) -> BBox:
        return BBox.of_coords(self.coords[:, 0], self.coords[:, 1])

    def distance_to(self, lon, lat) -> np.ndarray | float:
        """Min distance in degrees from point(s) to the polyline."""
        lon = np.asarray(lon, dtype=float)
        best = np.full(lon.shape, np.inf)
        for (x1, y1), (x2, y2) in zip(self.coords[:-1], self.coords[1:]):
            d = point_segment_distance(lon, lat, x1, y1, x2, y2)
            best = np.minimum(best, d)
        if best.ndim == 0:
            return float(best)
        return best


def _frozen_ring(ring) -> np.ndarray:
    arr = np.ascontiguousarray(ring, dtype=float)
    arr.setflags(write=False)
    return arr


class Polygon:
    """A polygon with an exterior ring and optional interior rings (holes).

    The exterior ring is normalized to counter-clockwise winding and holes
    to clockwise, matching GeoJSON conventions.
    """

    def __init__(self, exterior: Sequence[Sequence[float]],
                 holes: Iterable[Sequence[Sequence[float]]] = ()):
        self.exterior = self._normalize(exterior, ccw=True)
        self.holes = tuple(self._normalize(h, ccw=False) for h in holes)
        self._bbox = BBox.of_coords(self.exterior[:, 0], self.exterior[:, 1])
        self._prepared: PreparedPolygon | None = None

    @classmethod
    def from_ccw_ring(cls, exterior, bbox: BBox | None = None,
                      holes: Iterable = ()) -> "Polygon":
        """Trusted fast constructor: an open CCW exterior (and CW holes).

        Skips ring validation and winding normalization, so the caller
        must guarantee (N>=3, 2) float rings, the exterior
        counter-clockwise and the holes clockwise, with no duplicated
        closing vertex.  Produces a polygon bit-identical to
        ``Polygon(exterior, holes)`` for such input; generators that
        emit thousands of perimeters (see
        :func:`repro.data.wildfires.star_rings`) use it to stay off
        the per-ring shoelace/closure checks, and may pass the ring's
        exact min/max ``bbox`` when they computed it in a batch.
        :meth:`repro.geo.rings.RingTable.polygon` rebuilds packed
        polygons through it.
        """
        poly = cls.__new__(cls)
        arr = _frozen_ring(exterior)
        poly.exterior = arr
        poly.holes = tuple(_frozen_ring(h) for h in holes) if holes else ()
        poly._bbox = bbox if bbox is not None \
            else BBox.of_coords(arr[:, 0], arr[:, 1])
        poly._prepared = None
        return poly

    @staticmethod
    def _normalize(ring, ccw: bool) -> np.ndarray:
        arr = _validated_ring(ring)
        if is_ccw(arr) != ccw:
            arr = arr[::-1]
        return _frozen_ring(arr)

    def __repr__(self) -> str:
        return (f"Polygon({len(self.exterior)} vertices, "
                f"{len(self.holes)} holes)")

    def __getstate__(self):
        # Prepared edge arrays are cheap to rebuild and only bloat pickles
        # shipped to worker processes; drop them.
        return {"exterior": self.exterior, "holes": self.holes,
                "_bbox": self._bbox}

    def __setstate__(self, state):
        self.exterior = state["exterior"]
        self.holes = state["holes"]
        self._bbox = state["_bbox"]
        self._prepared = None

    @property
    def bbox(self) -> BBox:
        return self._bbox

    @property
    def prepared(self) -> "PreparedPolygon":
        """Prepared form of this polygon, built lazily and cached."""
        if self._prepared is None:
            self._prepared = PreparedPolygon(self.exterior, self.holes,
                                             bbox=self._bbox)
        return self._prepared

    def contains(self, lon: float, lat: float) -> bool:
        """True if the point is inside the polygon (and not in a hole)."""
        return self.prepared.contains(lon, lat)

    def contains_many(self, lons, lats) -> np.ndarray:
        """Vectorized containment test for arrays of points."""
        return self.prepared.contains_many(lons, lats)

    def area_sqm(self) -> float:
        """True (equal-area-projected) polygon area in square meters."""
        total = self._ring_area_sqm(self.exterior)
        for hole in self.holes:
            total -= self._ring_area_sqm(hole)
        return total

    @staticmethod
    def _ring_area_sqm(ring: np.ndarray) -> float:
        x, y = CONUS_ALBERS.forward(ring[:, 0], ring[:, 1])
        return abs(ring_area_signed(np.column_stack([x, y])))

    def area_acres(self) -> float:
        """Polygon area in acres (the unit the paper reports)."""
        return sqmeters_to_acres(self.area_sqm())

    def centroid(self) -> Point:
        """Area-weighted centroid of the exterior ring (lon/lat degrees)."""
        ring = self.prepared.exterior
        xs, ys = ring.xs, ring.ys
        x_next, y_next = ring.x_next, ring.y_next
        cross = xs * y_next - x_next * ys
        area2 = cross.sum()
        if abs(area2) < 1e-15:
            return Point(float(xs.mean()), float(ys.mean()))
        cx = float(((xs + x_next) * cross).sum() / (3.0 * area2))
        cy = float(((ys + y_next) * cross).sum() / (3.0 * area2))
        return Point(cx, cy)

    def simplified(self, tolerance_deg: float) -> "Polygon":
        """Douglas-Peucker simplification of all rings."""
        ext = simplify_ring(self.exterior, tolerance_deg)
        holes = [simplify_ring(h, tolerance_deg) for h in self.holes]
        holes = [h for h in holes if len(h) >= 3]
        return Polygon(ext, holes)


class PreparedPolygon:
    """A polygon with every per-query array precomputed.

    The spatial join tests each fire perimeter against thousands of
    candidate chunks; preparing the rings once (edge arrays, closure trim,
    bbox) turns the per-query cost into pure vectorized arithmetic.
    Results are bit-identical to the unprepared path — preparation caches
    arrays, it never changes an expression.

    Satisfies the same query protocol the spatial indexes rely on
    (``bbox``, ``contains``, ``contains_many``), so a ``PreparedPolygon``
    can be passed anywhere a :class:`Polygon` is queried.
    """

    __slots__ = ("exterior", "holes", "bbox")

    def __init__(self, exterior, holes: Iterable = (),
                 bbox: BBox | None = None):
        self.exterior = prepare_ring(exterior)
        self.holes = tuple(prepare_ring(h) for h in holes)
        if bbox is None:
            bbox = BBox.of_coords(self.exterior.xs, self.exterior.ys)
        self.bbox = bbox

    @classmethod
    def of(cls, polygon: "Polygon") -> "PreparedPolygon":
        return polygon.prepared

    def __repr__(self) -> str:
        return (f"PreparedPolygon({self.exterior.n} vertices, "
                f"{len(self.holes)} holes)")

    def contains(self, lon: float, lat: float) -> bool:
        """True if the point is inside the polygon (and not in a hole)."""
        if not self.bbox.contains(lon, lat):
            return False
        if not point_in_ring(lon, lat, self.exterior):
            return False
        return not any(point_in_ring(lon, lat, h) for h in self.holes)

    def contains_many(self, lons, lats) -> np.ndarray:
        """Vectorized containment test for arrays of points."""
        lons = np.asarray(lons, dtype=float)
        lats = np.asarray(lats, dtype=float)
        result = self.bbox.contains_many(lons, lats)
        if not result.any():
            return result
        idx = np.nonzero(result)[0]
        inside = points_in_ring(lons[idx], lats[idx], self.exterior)
        for hole in self.holes:
            in_hole = points_in_ring(lons[idx], lats[idx], hole)
            inside &= ~in_hole
        result[:] = False
        result[idx[inside]] = True
        return result


class MultiPolygon:
    """An ordered collection of polygons treated as one geometry."""

    def __init__(self, polygons: Iterable[Polygon]):
        self.polygons = tuple(polygons)
        if not self.polygons:
            raise ValueError("MultiPolygon needs at least one polygon")
        bbox = self.polygons[0].bbox
        for p in self.polygons[1:]:
            bbox = bbox.union(p.bbox)
        self._bbox = bbox

    def __len__(self) -> int:
        return len(self.polygons)

    def __iter__(self):
        return iter(self.polygons)

    def __repr__(self) -> str:
        return f"MultiPolygon({len(self.polygons)} polygons)"

    @property
    def bbox(self) -> BBox:
        return self._bbox

    def contains(self, lon: float, lat: float) -> bool:
        return any(p.contains(lon, lat) for p in self.polygons)

    def contains_many(self, lons, lats) -> np.ndarray:
        lons = np.asarray(lons, dtype=float)
        lats = np.asarray(lats, dtype=float)
        result = np.zeros(lons.shape, dtype=bool)
        for p in self.polygons:
            result |= p.contains_many(lons, lats)
        return result

    def area_sqm(self) -> float:
        return sum(p.area_sqm() for p in self.polygons)

    def area_acres(self) -> float:
        return sqmeters_to_acres(self.area_sqm())


def _dp_keep(coords: np.ndarray, tol: float, first: int, last: int,
             keep: np.ndarray) -> None:
    """Recursive Douglas-Peucker marking pass."""
    if last <= first + 1:
        return
    x1, y1 = coords[first]
    x2, y2 = coords[last]
    seg = coords[first + 1:last]
    d = point_segment_distance(seg[:, 0], seg[:, 1], x1, y1, x2, y2)
    i = int(np.argmax(d))
    if d[i] > tol:
        split = first + 1 + i
        keep[split] = True
        _dp_keep(coords, tol, first, split, keep)
        _dp_keep(coords, tol, split, last, keep)


def simplify_ring(ring, tolerance: float) -> np.ndarray:
    """Douglas-Peucker simplification of a closed ring.

    Keeps at least 4 vertices so the result remains a valid ring.  The
    tolerance is in the ring's own coordinate units (degrees here).
    """
    coords = np.asarray(ring, dtype=float)
    if len(coords) >= 2 and np.allclose(coords[0], coords[-1]):
        coords = coords[:-1]
    n = len(coords)
    if n <= 4 or tolerance <= 0:
        return coords.copy()
    # Split the ring at its two extreme vertices so DP has open polylines.
    anchor = 0
    far = int(np.argmax(np.hypot(coords[:, 0] - coords[anchor, 0],
                                 coords[:, 1] - coords[anchor, 1])))
    keep = np.zeros(n, dtype=bool)
    keep[anchor] = keep[far] = True
    lo, hi = sorted((anchor, far))
    _dp_keep(coords, tolerance, lo, hi, keep)
    # Second half wraps around; rotate so it is contiguous.
    rotated = np.roll(coords, -hi, axis=0)
    keep_rot = np.zeros(n, dtype=bool)
    keep_rot[0] = keep_rot[(lo - hi) % n] = True
    _dp_keep(rotated, tolerance, 0, (lo - hi) % n, keep_rot)
    keep |= np.roll(keep_rot, hi)
    out = coords[keep]
    if len(out) < 4:
        # Fall back to quartile vertices to preserve a valid ring.
        idx = np.unique(np.linspace(0, n - 1, 4).astype(int))
        out = coords[idx]
    return out
