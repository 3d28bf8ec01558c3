"""Packed ring tables: a list of polygons as a few flat arrays.

A :class:`RingTable` holds every ring of a polygon list back to back in
one ``(V, 2)`` coordinate array, with CSR ring offsets and per-ring
polygon, part and hole ids.  It is what the perimeter joins compute on
and what they ship to worker processes: a 1,500-fire season pickles as
a handful of arrays instead of thousands of ``Polygon`` objects.

:meth:`RingTable.contains` is the batched point-in-polygon kernel
behind :meth:`repro.geo.index.UniformGridIndex.query_polygons`.  It
tests many (point, polygon) candidates in one crossing-number pass over
(candidate, edge) pairs, in blocks of at most
:data:`_PIP_BLOCK_ELEMENTS` pairs.  Every candidate gets exactly the
verdict ``polygon.contains_many`` gives it, bit for bit:

* the same part-bbox prefilter (:meth:`BBox.contains_many`'s four
  comparisons);
* the same ring preparation (one closing vertex within
  ``np.allclose`` tolerance of the first is dropped, as
  :class:`~repro.geo.predicates.PreparedRing` does);
* the same crossing test per edge, ``(y1 > py) != (y2 > py)`` and then
  ``px < (x2 - x1) * (py - y1) / (y2 - y1) + x1``;
* the same combination: inside the exterior and in no hole of some
  part.

Crossing parity is a count mod 2, so the order in which edges are
visited does not matter.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .geometry import BBox, MultiPolygon, Polygon
from .predicates import _CLOSE_ATOL, _CLOSE_RTOL

__all__ = ["RingTable"]

#: (candidate, edge) pairs one :meth:`RingTable.contains` block
#: materializes at most (a candidate whose polygon has more edges forms
#: a block of its own).  A pair costs about 60 bytes of temporaries, so
#: a block stays near 16 MB.
_PIP_BLOCK_ELEMENTS = 262_144


def _seg_arange(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[i], starts[i] + lens[i])``."""
    total = int(lens.sum())
    offsets = np.cumsum(lens) - lens
    return np.repeat(starts - offsets, lens) \
        + np.arange(total, dtype=np.int64)


class _Derived:
    """Per-table arrays derived from the packed rings.

    Built once per table on first use and never pickled.
    """

    __slots__ = ("part_bbox", "bbox", "part_first", "part_count",
                 "part_ring_first", "part_ring_count", "edge_ptr",
                 "edge_len", "poly_edges", "x1", "y1", "x2", "y2",
                 "bad_poly", "one_part", "one_ring")

    def __init__(self, table: "RingTable"):
        ring_ptr = table.ring_ptr
        starts = ring_ptr[:-1]
        xy = table.coords
        ext = ~table.ring_hole
        n_rings = len(ext)
        part_ring_ptr = np.append(np.flatnonzero(ext), n_rings)
        n_parts = len(part_ring_ptr) - 1
        self.one_part = n_parts == table.n_polygons
        self.one_ring = n_rings == n_parts
        self.part_ring_first = part_ring_ptr[:-1]
        self.part_ring_count = np.diff(part_ring_ptr)
        poly_part_ptr = np.arange(n_parts + 1) if self.one_part \
            else np.searchsorted(table.ring_poly[self.part_ring_first],
                                 np.arange(table.n_polygons + 1))
        self.part_first = poly_part_ptr[:-1]
        self.part_count = np.diff(poly_part_ptr)
        # A part's bbox is its exterior's exact min/max (Polygon.bbox);
        # a polygon's is the union of its parts' (MultiPolygon.bbox).
        if n_rings:
            box = np.column_stack([np.minimum.reduceat(xy[:, 0], starts),
                                   np.minimum.reduceat(xy[:, 1], starts),
                                   np.maximum.reduceat(xy[:, 0], starts),
                                   np.maximum.reduceat(xy[:, 1], starts)])
            self.part_bbox = box if self.one_ring else box[ext]
        else:
            self.part_bbox = np.empty((0, 4), dtype=float)
        if self.one_part:
            self.bbox = self.part_bbox
        else:
            self.bbox = np.hstack([
                np.minimum.reduceat(self.part_bbox[:, :2], self.part_first),
                np.maximum.reduceat(self.part_bbox[:, 2:], self.part_first)])

        # PreparedRing's closure trim: drop a last vertex within
        # np.allclose tolerance of the first (_coords_close, elementwise).
        last = xy[ring_ptr[1:] - 1]
        close = np.abs(xy[starts] - last) \
            <= _CLOSE_ATOL + _CLOSE_RTOL * np.abs(last)
        edge_len = np.diff(ring_ptr) - (close[:, 0] & close[:, 1])
        # A ring left with fewer than 3 vertices cannot be prepared; the
        # kernel raises as PreparedRing would if such a polygon is tested.
        bad = edge_len < 3
        self.bad_poly = np.unique(table.ring_poly[bad]) if bad.any() \
            else None
        self.edge_len = edge_len
        self.edge_ptr = np.append(0, np.cumsum(edge_len))
        self.poly_edges = edge_len if self.one_ring and self.one_part \
            else np.bincount(table.ring_poly, weights=edge_len,
                             minlength=table.n_polygons).astype(np.int64)
        # Edge e runs from vertex (x1, y1)[e] to the next vertex of its
        # ring, (x2, y2)[e].
        v = _seg_arange(starts, edge_len)
        nxt = v + 1
        nxt[self.edge_ptr[1:] - 1] = starts
        x, y = xy[:, 0], xy[:, 1]
        self.x1, self.y1, self.x2, self.y2 = x[v], y[v], x[nxt], y[nxt]


class RingTable:
    """Every ring of a polygon list, packed into flat arrays.

    Attributes
    ----------
    coords:
        ``(V, 2)`` float64 vertices of every ring, rings back to back,
        each exactly as its ``Polygon`` stores it.
    ring_ptr:
        ``(R + 1,)`` int64; ring ``r`` is
        ``coords[ring_ptr[r]:ring_ptr[r + 1]]``.
    ring_poly:
        ``(R,)`` int64 input polygon of each ring.
    ring_part:
        ``(R,)`` int64 part of each ring (a ``Polygon`` is one part, a
        ``MultiPolygon`` one per member); a part's exterior comes
        first, then its holes.
    ring_hole:
        ``(R,)`` bool, True for interior rings.
    n_polygons:
        Number of input polygons.

    Part and polygon bboxes (:attr:`bboxes`) and the kernel's edge
    arrays are derived from these on first use.
    """

    __slots__ = ("coords", "ring_ptr", "ring_poly", "ring_part",
                 "ring_hole", "n_polygons", "_derived")

    def __init__(self, coords, ring_ptr, ring_poly, ring_part, ring_hole,
                 n_polygons: int):
        self.coords = coords
        self.ring_ptr = ring_ptr
        self.ring_poly = ring_poly
        self.ring_part = ring_part
        self.ring_hole = ring_hole
        self.n_polygons = int(n_polygons)
        self._derived: _Derived | None = None

    @classmethod
    def of(cls, polygons: Sequence[Polygon | MultiPolygon]) -> "RingTable":
        """Pack ``Polygon``/``MultiPolygon`` objects (holes included)."""
        polygons = list(polygons)
        rings: list[np.ndarray] = []
        part_poly: list[int] = []
        part_rings: list[int] = []
        for i, geom in enumerate(polygons):
            parts = geom.polygons if isinstance(geom, MultiPolygon) \
                else (geom,)
            for part in parts:
                rings.append(part.exterior)
                if part.holes:
                    rings.extend(part.holes)
                part_poly.append(i)
                part_rings.append(1 + len(part.holes))
        part_rings_arr = np.array(part_rings, dtype=np.int64)
        ring_part = np.repeat(np.arange(len(part_rings), dtype=np.int64),
                              part_rings_arr)
        ring_hole = np.ones(len(rings), dtype=bool)
        ring_hole[np.cumsum(part_rings_arr) - part_rings_arr] = False
        lens = np.fromiter((len(r) for r in rings), dtype=np.int64,
                           count=len(rings))
        return cls(
            coords=(np.concatenate(rings) if rings
                    else np.empty((0, 2), dtype=float)),
            ring_ptr=np.append(0, np.cumsum(lens)),
            ring_poly=np.array(part_poly, dtype=np.int64)[ring_part],
            ring_part=ring_part,
            ring_hole=ring_hole,
            n_polygons=len(polygons))

    def __len__(self) -> int:
        return self.n_polygons

    def __getstate__(self):
        # Only the packed arrays travel; the kernel's derived edge
        # arrays are rebuilt on first use.
        return (self.coords, self.ring_ptr, self.ring_poly, self.ring_part,
                self.ring_hole, self.n_polygons)

    def __setstate__(self, state):
        (self.coords, self.ring_ptr, self.ring_poly, self.ring_part,
         self.ring_hole, self.n_polygons) = state
        self._derived = None

    @property
    def derived(self) -> _Derived:
        """The arrays derived from the table, built on first use."""
        if self._derived is None:
            self._derived = _Derived(self)
        return self._derived

    @property
    def bboxes(self) -> np.ndarray:
        """``(n_polygons, 4)`` bbox of each polygon, as ``polygon.bbox``."""
        return self.derived.bbox

    def polygon(self, i: int) -> Polygon | MultiPolygon:
        """Rebuild input polygon ``i`` (same ring arrays and bbox)."""
        d = self.derived
        parts = []
        for k in range(d.part_first[i], d.part_first[i] + d.part_count[i]):
            r0 = d.part_ring_first[k]
            exterior, *holes = [
                self.coords[self.ring_ptr[r]:self.ring_ptr[r + 1]]
                for r in range(r0, r0 + d.part_ring_count[k])]
            parts.append(Polygon.from_ccw_ring(
                exterior, BBox(*d.part_bbox[k].tolist()), holes=holes))
        return parts[0] if len(parts) == 1 else MultiPolygon(parts)

    def contains(self, cpoly: np.ndarray, px: np.ndarray,
                 py: np.ndarray) -> np.ndarray:
        """Whether point ``(px[i], py[i])`` is inside polygon ``cpoly[i]``.

        Bit-identical to ``polygon.contains_many`` per candidate (see
        the module docstring).  Runs in blocks of whole candidates
        holding at most :data:`_PIP_BLOCK_ELEMENTS` (candidate, edge)
        pairs.
        """
        cpoly = np.asarray(cpoly, dtype=np.int64)
        px = np.asarray(px, dtype=float)
        py = np.asarray(py, dtype=float)
        inside = np.zeros(len(cpoly), dtype=bool)
        if len(cpoly) == 0:
            return inside
        e = self.derived
        if e.bad_poly is not None and np.isin(cpoly, e.bad_poly).any():
            raise ValueError("ring needs at least 3 distinct vertices")
        cum = np.cumsum(e.poly_edges[cpoly])
        lo = 0
        while lo < len(cpoly):
            done = cum[lo - 1] if lo else 0
            hi = max(int(np.searchsorted(cum, done + _PIP_BLOCK_ELEMENTS,
                                         side="right")), lo + 1)
            inside[lo:hi] = self._contains_block(
                e, cpoly[lo:hi], px[lo:hi], py[lo:hi])
            lo = hi
        return inside

    def _contains_block(self, e: _Derived, cpoly, px, py) -> np.ndarray:
        n = len(cpoly)
        # (candidate, part) pairs, kept where the part's bbox holds the
        # candidate (PreparedPolygon.contains_many's prefilter).
        if e.one_part:
            q_part, qx, qy = cpoly, px, py
        else:
            counts = e.part_count[cpoly]
            q_cand = np.repeat(np.arange(n, dtype=np.int64), counts)
            q_part = _seg_arange(e.part_first[cpoly], counts)
            qx, qy = px[q_cand], py[q_cand]
        box = e.part_bbox[q_part]
        keep = np.flatnonzero((qx >= box[:, 0]) & (qx <= box[:, 2])
                              & (qy >= box[:, 1]) & (qy <= box[:, 3]))
        q_cand = keep if e.one_part else q_cand[keep]
        q_part, qx, qy = q_part[keep], qx[keep], qy[keep]
        # (candidate, ring) segments: each kept part's exterior, then
        # its holes.
        if e.one_ring:
            s_ring, sx, sy = e.part_ring_first[q_part], qx, qy
        else:
            counts = e.part_ring_count[q_part]
            s_q = np.repeat(np.arange(len(q_part), dtype=np.int64), counts)
            s_ring = _seg_arange(e.part_ring_first[q_part], counts)
            sx, sy = qx[s_q], qy[s_q]
        s_len = e.edge_len[s_ring]
        # (segment, edge) pairs: the straddle test on every pair, the
        # crossing abscissa only where an edge straddles the point.
        pair_edge = _seg_arange(e.edge_ptr[s_ring], s_len)
        pair_py = np.repeat(sy, s_len)
        y1 = e.y1[pair_edge]
        y2 = e.y2[pair_edge]
        straddle = np.flatnonzero((y1 > pair_py) != (y2 > pair_py))
        seg = np.searchsorted(np.cumsum(s_len), straddle, side="right")
        edge = pair_edge[straddle]
        x1 = e.x1[edge]
        y1 = y1[straddle]
        with np.errstate(divide="ignore", invalid="ignore"):
            x_cross = (e.x2[edge] - x1) * (pair_py[straddle] - y1) \
                / (y2[straddle] - y1) + x1
        crossed = sx[seg] < x_cross
        odd = np.bincount(seg[crossed], minlength=len(s_ring)) % 2 == 1
        # Inside a part: odd exterior parity and even parity in every
        # hole; inside the polygon: inside any part.
        if e.one_ring:
            part_in = odd
        else:
            hole = self.ring_hole[s_ring]
            in_hole = np.bincount(s_q[hole & odd],
                                  minlength=len(q_part)) > 0
            part_in = odd[~hole] & ~in_hole
        inside = np.zeros(n, dtype=bool)
        inside[q_cand[part_in]] = True
        return inside
