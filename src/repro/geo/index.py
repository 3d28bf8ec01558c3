"""Spatial indexes.

Two classic structures back the spatial-join engine:

* :class:`UniformGridIndex` — buckets millions of points into a uniform
  lon/lat grid so a polygon query touches only candidate buckets.  This is
  the workhorse for "which transceivers fall inside this fire perimeter".
* :class:`STRTree` — a packed (Sort-Tile-Recursive) R-tree over geometry
  bounding boxes, used when the query side is also geometric (e.g. which
  counties intersect a metro window).

Both are static (bulk-loaded) indexes, matching the batch nature of the
paper's analysis, and both store their structure as flat numpy arrays:

* the grid keeps its bucket table in CSR form — sorted unique bucket keys
  plus a prefix-pointer array into the bucket-sorted point order — so a
  query is two ``np.searchsorted`` calls per candidate row instead of a
  Python dict probe per candidate bucket;
* the tree keeps node bboxes as one ``(T, 4)`` float array with implicit
  child ranges, so descending a node tests all its children in one
  vectorized comparison.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..runtime.stats import STATS
from .geometry import BBox, MultiPolygon, Polygon

__all__ = ["UniformGridIndex", "STRTree"]

#: Candidates one :meth:`UniformGridIndex.query_polygons` block
#: materializes at most (whole polygons per block; a polygon with more
#: candidates forms a block of its own).  A candidate costs about 100
#: bytes of temporaries, so a block stays near 100 MB.
_QUERY_BLOCK_ELEMENTS = 1_000_000


class UniformGridIndex:
    """A bulk-loaded uniform grid over 2-D points.

    Points are sorted by bucket id once at build time.  Because the sort
    key is ``row * ncols + col``, every bucket — and every *run of
    consecutive buckets within a row* — occupies one contiguous slice of
    the sorted order.  A bbox query therefore gathers, per candidate row,
    a single contiguous slice located with two binary searches over the
    unique-key array (CSR layout), instead of probing a hash table per
    bucket.  Query results are indices into the original point arrays.
    """

    def __init__(self, lons, lats, cell_deg: float = 0.25):
        self.lons = np.ascontiguousarray(lons, dtype=float)
        self.lats = np.ascontiguousarray(lats, dtype=float)
        if self.lons.shape != self.lats.shape or self.lons.ndim != 1:
            raise ValueError("lons/lats must be equal-length 1-D arrays")
        if cell_deg <= 0:
            raise ValueError("cell size must be positive")
        self.cell_deg = float(cell_deg)
        n = len(self.lons)
        self._rank_arr: np.ndarray | None = None
        if n == 0:
            self._order = np.empty(0, dtype=np.int64)
            self._uniq_keys = np.empty(0, dtype=np.int64)
            self._bucket_ptr = np.zeros(1, dtype=np.int64)
            self._ncols = 0
            self._nrows = 0
            self.bbox = None
            self._slons = self.lons
            self._slats = self.lats
            return
        self.bbox = BBox.of_coords(self.lons, self.lats)
        self._ncols = max(1, int(np.ceil(self.bbox.width / cell_deg)) + 1)
        cols = ((self.lons - self.bbox.min_lon) // cell_deg).astype(np.int64)
        rows = ((self.lats - self.bbox.min_lat) // cell_deg).astype(np.int64)
        self._nrows = int(rows.max()) + 1
        keys = rows * self._ncols + cols
        self._order = np.argsort(keys, kind="stable")
        sorted_keys = keys[self._order]
        # CSR bucket table: points of bucket _uniq_keys[i] are
        # _order[_bucket_ptr[i]:_bucket_ptr[i + 1]].
        uniq, starts = np.unique(sorted_keys, return_index=True)
        self._uniq_keys = uniq
        self._bucket_ptr = np.append(starts, n).astype(np.int64)
        # Coordinates in bucket-sorted order: a candidate run is then a
        # contiguous memcpy of these instead of a scattered gather over
        # the original (universe-ordered) arrays.
        self._slons = self.lons[self._order]
        self._slats = self.lats[self._order]

    def __len__(self) -> int:
        return len(self.lons)

    # ------------------------------------------------------------------
    # Flat-array snapshot: everything a worker needs to reconstruct the
    # built index without re-sorting, suitable for zero-copy transport
    # through multiprocessing.shared_memory (see repro.runtime.shm).
    # ------------------------------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flat-array snapshot of the built index structure.

        Returns a dict of contiguous numpy arrays (plus a small float
        ``meta`` header) from which :meth:`from_arrays` reconstructs the
        index without paying the build-time argsort.
        """
        if self.bbox is None:
            raise ValueError("cannot snapshot an empty index")
        meta = np.array([self.cell_deg, self._ncols, self._nrows,
                         self.bbox.min_lon, self.bbox.min_lat,
                         self.bbox.max_lon, self.bbox.max_lat],
                        dtype=np.float64)
        return {
            "meta": meta,
            "lons": self.lons, "lats": self.lats,
            "order": self._order, "uniq_keys": self._uniq_keys,
            "bucket_ptr": self._bucket_ptr,
            "slons": self._slons, "slats": self._slats,
        }

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) \
            -> "UniformGridIndex":
        """Rebuild an index from a :meth:`to_arrays` snapshot.

        The arrays are adopted as-is (they may be views into a shared
        memory segment); queries on the rebuilt index are bit-identical
        to queries on the original.
        """
        self = cls.__new__(cls)
        meta = np.asarray(arrays["meta"], dtype=np.float64)
        self.cell_deg = float(meta[0])
        self._ncols = int(meta[1])
        self._nrows = int(meta[2])
        self.bbox = BBox(float(meta[3]), float(meta[4]),
                         float(meta[5]), float(meta[6]))
        self.lons = arrays["lons"]
        self.lats = arrays["lats"]
        self._order = arrays["order"]
        self._uniq_keys = arrays["uniq_keys"]
        self._bucket_ptr = arrays["bucket_ptr"]
        self._slons = arrays["slons"]
        self._slats = arrays["slats"]
        self._rank_arr = None
        return self

    @property
    def _rank(self) -> np.ndarray:
        """Inverse of ``_order``: original index -> bucket-sorted position.

        Built lazily (one scatter) the first time a delta query needs to
        map previously-answered hits back onto CSR positions, then
        reused for the life of the index.
        """
        rank = self._rank_arr
        if rank is None:
            n = len(self._order)
            rank = np.empty(n, dtype=np.int64)
            rank[self._order] = np.arange(n, dtype=np.int64)
            self._rank_arr = rank
        return rank

    def _bucket_range(self, bbox: BBox):
        """(c0, c1, r0, r1) bucket window, clamped to the grid extent."""
        c0 = int((bbox.min_lon - self.bbox.min_lon) // self.cell_deg)
        c1 = int((bbox.max_lon - self.bbox.min_lon) // self.cell_deg)
        r0 = int((bbox.min_lat - self.bbox.min_lat) // self.cell_deg)
        r1 = int((bbox.max_lat - self.bbox.min_lat) // self.cell_deg)
        return (max(c0, 0), min(c1, self._ncols - 1),
                max(r0, 0), min(r1, self._nrows - 1))

    def _candidate_runs(self, bbox: BBox):
        """``(starts, ends, nbuckets)`` CSR candidate runs, or None.

        Each ``[starts[i], ends[i])`` is one contiguous run of the
        bucket-sorted order covering the candidate buckets of one grid
        row inside ``bbox``; ``nbuckets[i]`` is the number of occupied
        buckets the run spans (the unit the delta path's dirty/skipped
        counters are denominated in).
        """
        if self.bbox is None or not self.bbox.intersects(bbox):
            return None
        c0, c1, r0, r1 = self._bucket_range(bbox)
        if c1 < c0 or r1 < r0:
            return None
        # Buckets [base + c0, base + c1] of one row are consecutive keys,
        # hence one contiguous slice of the sorted order.
        bases = np.arange(r0, r1 + 1, dtype=np.int64) * self._ncols
        lo = np.searchsorted(self._uniq_keys, bases + c0, side="left")
        hi = np.searchsorted(self._uniq_keys, bases + c1, side="right")
        starts = self._bucket_ptr[lo]
        ends = self._bucket_ptr[hi]
        occupied = starts < ends
        if not occupied.any():
            return None
        return starts[occupied], ends[occupied], (hi - lo)[occupied]

    @staticmethod
    def _gather_runs(arr: np.ndarray, starts, ends) -> np.ndarray:
        """Concatenate ``arr[s:e]`` for each CSR run (contiguous copies)."""
        runs = [arr[s:e] for s, e in zip(starts.tolist(), ends.tolist())]
        return runs[0] if len(runs) == 1 else np.concatenate(runs)

    def _bbox_filtered(self, bbox: BBox, starts, ends):
        """``(indices, lons, lats)`` of run candidates inside ``bbox``.

        Candidate coordinates come straight out of the presorted CSR
        runs (contiguous slices, no scattered gather); the value stream
        and the ``index.candidates`` / ``index.hits`` counters are
        identical to the historical per-candidate gather.
        """
        clons = self._gather_runs(self._slons, starts, ends)
        clats = self._gather_runs(self._slats, starts, ends)
        keep = bbox.contains_many(clons, clats)
        cand = self._gather_runs(self._order, starts, ends)
        out = cand[keep]
        STATS.count("index.candidates", len(cand))
        STATS.count("index.hits", len(out))
        return out, clons[keep], clats[keep]

    def query_bbox(self, bbox: BBox) -> np.ndarray:
        """Indices of points inside ``bbox``."""
        STATS.count("index.bbox_queries")
        runs = self._candidate_runs(bbox)
        if runs is None:
            return np.empty(0, dtype=np.int64)
        starts, ends, _ = runs
        out, _, _ = self._bbox_filtered(bbox, starts, ends)
        return out

    def query_polygon(self, polygon: Polygon | MultiPolygon) -> np.ndarray:
        """Indices of points inside the polygon (exact, holes respected).

        The one-polygon case of :meth:`query_polygons`.
        """
        return self.query_polygons((polygon,))[0]

    def query_polygons(self, polygons: Sequence[Polygon | MultiPolygon]) \
            -> list[np.ndarray]:
        """Indices of points inside each polygon, in input order.

        One vectorized candidate pass over the whole batch: bucket
        windows come from one bbox array, every (polygon, row) run is
        located by one ``searchsorted`` pair, candidates are gathered
        from the bucket-sorted coordinates in one ranged gather and
        bbox-filtered in one comparison, and the point-in-polygon
        kernel runs only for polygons that keep at least one candidate.

        Each result is bit-identical (values, order, dtype) to a
        single-polygon query, and the ``index.*`` counter totals equal
        those of one query per polygon.  Candidates are materialized in
        blocks of whole polygons holding at most
        :data:`_QUERY_BLOCK_ELEMENTS` candidates (a larger polygon gets
        a block of its own), so memory stays bounded at paper scale.
        """
        polygons = list(polygons)
        n = len(polygons)
        out = [np.empty(0, dtype=np.int64) for _ in range(n)]
        if n == 0:
            return out
        STATS.count("index.bbox_queries", n)
        runs = self._batch_runs(polygons)
        if runs is None:
            return out
        run_poly, starts, ends, boxes = runs
        # Per-run candidate counts summed per polygon, then split into
        # blocks of consecutive polygons under the element budget.
        run_len = ends - starts
        bounds = np.flatnonzero(np.diff(run_poly)) + 1
        first_run = np.concatenate(([0], bounds))
        poly_cand = np.add.reduceat(run_len, first_run)
        cum = np.cumsum(poly_cand)
        n_bbox_hits = 0
        n_pip = n_pip_tests = n_pip_hits = 0
        lo = 0
        while lo < len(first_run):
            done = cum[lo - 1] if lo else 0
            hi = max(int(np.searchsorted(cum, done + _QUERY_BLOCK_ELEMENTS,
                                         side="right")), lo + 1)
            r_hi = first_run[hi] if hi < len(first_run) else len(run_poly)
            cand, clons, clats, cpoly = self._gather_block(
                run_poly[first_run[lo]:r_hi], starts[first_run[lo]:r_hi],
                ends[first_run[lo]:r_hi], boxes)
            n_bbox_hits += len(cand)
            if len(cand):
                # cpoly is sorted: one slice of candidates per polygon.
                polys, first, counts = np.unique(
                    cpoly, return_index=True, return_counts=True)
                for p, a, c in zip(polys.tolist(), first.tolist(),
                                   counts.tolist()):
                    keep = polygons[p].contains_many(clons[a:a + c],
                                                     clats[a:a + c])
                    out[p] = cand[a:a + c][keep]
                    n_pip_hits += len(out[p])
                n_pip += len(polys)
                n_pip_tests += len(cand)
            lo = hi
        STATS.count("index.candidates", int(cum[-1]))
        STATS.count("index.hits", n_bbox_hits)
        if n_pip:
            STATS.count("index.polygon_queries", n_pip)
            STATS.count("index.pip_tests", n_pip_tests)
            STATS.count("index.pip_hits", n_pip_hits)
        return out

    def _batch_runs(self, polygons):
        """``(run_poly, starts, ends, boxes)`` occupied CSR runs, or None.

        The batch form of :meth:`_candidate_runs`: ``boxes`` is the
        ``(P, 4)`` bbox array and run ``i`` is ``[starts[i], ends[i])``
        of polygon ``run_poly[i]``, runs sorted by polygon then row.
        Window arithmetic is :meth:`_bucket_range`'s, elementwise;
        clamping happens in float so far-away boxes cannot overflow.
        """
        if self.bbox is None:
            return None
        boxes = np.array([(b.min_lon, b.min_lat, b.max_lon, b.max_lat)
                          for b in (p.bbox for p in polygons)],
                         dtype=float)
        x0, y0, x1, y1 = boxes.T
        ib = self.bbox
        cell = self.cell_deg
        c0 = np.clip((x0 - ib.min_lon) // cell, 0, self._ncols)
        c1 = np.clip((x1 - ib.min_lon) // cell, -1, self._ncols - 1)
        r0 = np.clip((y0 - ib.min_lat) // cell, 0, self._nrows)
        r1 = np.clip((y1 - ib.min_lat) // cell, -1, self._nrows - 1)
        live = np.flatnonzero(
            ~((x0 > ib.max_lon) | (x1 < ib.min_lon)
              | (y0 > ib.max_lat) | (y1 < ib.min_lat))
            & (c1 >= c0) & (r1 >= r0))
        if len(live) == 0:
            return None
        c0, c1, r0, r1 = (a[live].astype(np.int64)
                          for a in (c0, c1, r0, r1))
        nrows = r1 - r0 + 1
        run_first = np.cumsum(nrows) - nrows
        rows = np.repeat(r0 - run_first, nrows) \
            + np.arange(int(nrows.sum()), dtype=np.int64)
        # Buckets [base + c0, base + c1] of one row are consecutive keys,
        # hence one contiguous slice of the sorted order.
        bases = rows * self._ncols
        lo = np.searchsorted(self._uniq_keys, bases + np.repeat(c0, nrows),
                             side="left")
        hi = np.searchsorted(self._uniq_keys, bases + np.repeat(c1, nrows),
                             side="right")
        starts = self._bucket_ptr[lo]
        ends = self._bucket_ptr[hi]
        occupied = starts < ends
        if not occupied.any():
            return None
        run_poly = np.repeat(live, nrows)
        return run_poly[occupied], starts[occupied], ends[occupied], boxes

    def _gather_block(self, run_poly, starts, ends, boxes):
        """``(indices, lons, lats, polygon)`` of run candidates inside
        their polygon's bbox, in run order (one ranged gather)."""
        run_len = ends - starts
        pos = np.repeat(starts - (np.cumsum(run_len) - run_len), run_len) \
            + np.arange(int(run_len.sum()), dtype=np.int64)
        clons = self._slons[pos]
        clats = self._slats[pos]
        cpoly = np.repeat(run_poly, run_len)
        box = boxes[cpoly]
        # BBox.contains_many's comparisons, against each candidate's box.
        keep = ((clons >= box[:, 0]) & (clons <= box[:, 2])
                & (clats >= box[:, 1]) & (clats <= box[:, 3]))
        return (self._order[pos[keep]], clons[keep], clats[keep],
                cpoly[keep])

    def query_polygon_delta(self, polygon: Polygon | MultiPolygon,
                            prev_hits: np.ndarray) -> np.ndarray:
        """Indices inside ``polygon``, reusing an answered footprint.

        ``prev_hits`` must be the exact result of an earlier
        :meth:`query_polygon` (or ``query_polygon_delta``) for a
        perimeter *contained in* ``polygon`` — the monotone-growth
        contract of a spreading fire front.  Under it every previous
        hit is still a hit, so the query only has to discover the
        points the grown perimeter newly covers:

        * candidate buckets whose points were **all** answered by
          ``prev_hits`` are *skipped* outright (no gather, no bbox
          test, no point-in-polygon) — ``index.skipped_buckets``;
        * the remaining *dirty* buckets (``index.dirty_buckets``) run
          the normal bbox prefilter, but only their still-unanswered
          candidates pay the point-in-polygon test
          (``index.pip_skipped`` counts the tests avoided).

        The return value is bit-identical — values, order, dtype — to
        ``query_polygon(polygon)``, and the ``index.candidates`` /
        ``index.hits`` / ``index.pip_hits`` counter totals match the
        batch call exactly; ``index.pip_tests`` counts only the tests
        actually run, with ``pip_tests + pip_skipped`` equal to the
        batch total.  If ``prev_hits`` is not a monotone footprint the
        result is undefined.
        """
        prev_hits = np.asarray(prev_hits, dtype=np.int64)
        STATS.count("index.bbox_queries")
        STATS.count("index.delta_queries")
        runs = self._candidate_runs(polygon.bbox)
        if runs is None:
            STATS.count("index.polygon_queries")
            return np.empty(0, dtype=np.int64)
        starts, ends, nbuckets = runs
        # Previously-answered hits as sorted CSR positions: a run's
        # answered count is then one searchsorted pair, and "every
        # candidate answered" == "run fully answered" == skippable.
        prev_pos = np.sort(self._rank[prev_hits])
        lo = np.searchsorted(prev_pos, starts, side="left")
        hi = np.searchsorted(prev_pos, ends, side="left")
        run_len = ends - starts
        full = (hi - lo) == run_len
        n_cand = int(run_len.sum())
        n_full_cand = int(run_len[full].sum())
        STATS.count("index.skipped_buckets", int(nbuckets[full].sum()))
        STATS.count("index.dirty_buckets", int(nbuckets[~full].sum()))
        # Batch-parity accounting: a skipped run's candidates are all
        # previous hits, hence inside the old perimeter, hence inside
        # the grown perimeter's bbox — the batch call would have
        # counted every one as a candidate and a bbox hit.
        STATS.count("index.candidates", n_cand)

        pieces = [prev_pos[s:e] for s, e in
                  zip(lo[full].tolist(), hi[full].tolist())]
        n_bbox_hits = n_full_cand
        n_pip_tests = 0
        dirty_starts, dirty_ends = starts[~full], ends[~full]
        if len(dirty_starts):
            clons = self._gather_runs(self._slons, dirty_starts,
                                      dirty_ends)
            clats = self._gather_runs(self._slats, dirty_starts,
                                      dirty_ends)
            pos = np.concatenate(
                [np.arange(s, e, dtype=np.int64) for s, e in
                 zip(dirty_starts.tolist(), dirty_ends.tolist())])
            keep = polygon.bbox.contains_many(clons, clats)
            pos, clons, clats = pos[keep], clons[keep], clats[keep]
            n_bbox_hits += len(pos)
            # Answered candidates survive without a point-in-polygon
            # test (they are inside the old perimeter); the rest run
            # the exact batch kernel on the same contiguous coords.
            if len(prev_pos):
                ins = np.minimum(np.searchsorted(prev_pos, pos),
                                 len(prev_pos) - 1)
                answered = prev_pos[ins] == pos
            else:
                answered = np.zeros(len(pos), dtype=bool)
            n_pip_tests = int((~answered).sum())
            if n_pip_tests:
                inside = polygon.contains_many(clons[~answered],
                                               clats[~answered])
                pieces.append(pos[~answered][inside])
            pieces.append(pos[answered])
        STATS.count("index.hits", n_bbox_hits)

        out_pos = np.concatenate(pieces) if pieces \
            else np.empty(0, dtype=np.int64)
        out_pos.sort()
        # Batch output order is ascending CSR position (runs are
        # disjoint ascending intervals), so the sorted union reproduces
        # it bit-for-bit.
        out = self._order[out_pos]
        STATS.count("index.polygon_queries")
        STATS.count("index.pip_tests", n_pip_tests)
        STATS.count("index.pip_skipped", len(prev_hits))
        STATS.count("index.pip_hits", len(out))
        return out

    def query_radius(self, lon: float, lat: float, radius_deg: float) \
            -> np.ndarray:
        """Indices of points within ``radius_deg`` (planar degrees).

        Runs on the CSR candidate-run fast path: the distance test
        consumes the contiguous bucket-sorted coordinates the bbox
        prefilter already gathered, instead of re-gathering the
        original point arrays candidate by candidate.
        """
        bbox = BBox(lon - radius_deg, lat - radius_deg,
                    lon + radius_deg, lat + radius_deg)
        STATS.count("index.bbox_queries")
        runs = self._candidate_runs(bbox)
        if runs is None:
            return np.empty(0, dtype=np.int64)
        starts, ends, _ = runs
        cand, clons, clats = self._bbox_filtered(bbox, starts, ends)
        if len(cand) == 0:
            return cand
        d = np.hypot(clons - lon, clats - lat)
        return cand[d <= radius_deg]


class STRTree:
    """Sort-Tile-Recursive packed R-tree over bounding boxes.

    Bulk-loaded from a sequence of (bbox, payload) pairs.  Queries return
    payloads whose bbox intersects the query bbox; exact geometric tests
    are the caller's job.

    Nodes live in flat parallel arrays — ``_bboxes`` is one ``(T, 4)``
    float array ``[min_lon, min_lat, max_lon, max_lat]``, children of an
    internal node are a contiguous range of ``_children`` — so a query
    tests all children of a node with one vectorized bbox comparison
    instead of popping ``_Node`` objects one at a time.
    """

    def __init__(self, items: Sequence[tuple[BBox, object]],
                 node_capacity: int = 8):
        if node_capacity < 2:
            raise ValueError("node capacity must be >= 2")
        self.node_capacity = node_capacity
        items = list(items)
        n = len(items)
        self._payloads = [payload for _, payload in items]
        if n == 0:
            self._root = -1
            self._bboxes = np.empty((0, 4), dtype=float)
            self._child_first = np.empty(0, dtype=np.int64)
            self._child_count = np.empty(0, dtype=np.int64)
            self._item = np.empty(0, dtype=np.int64)
            self._children = np.empty(0, dtype=np.int64)
            return
        leaf_bb = np.array([[b.min_lon, b.min_lat, b.max_lon, b.max_lat]
                            for b, _ in items], dtype=float)
        # Growing node tables; leaves are nodes 0..n-1.
        bbox_chunks = [leaf_bb]
        child_first = [-1] * n
        child_count = [0] * n
        item = list(range(n))
        children_flat: list[np.ndarray] = []
        next_id = n

        level_ids = np.arange(n, dtype=np.int64)
        level_bb = leaf_bb
        while len(level_ids) > 1:
            cap = self.node_capacity
            m = len(level_ids)
            cx = (level_bb[:, 0] + level_bb[:, 2]) / 2.0
            cy = (level_bb[:, 1] + level_bb[:, 3]) / 2.0
            order = np.argsort(cx, kind="stable")
            n_leaves = int(np.ceil(m / cap))
            n_slices = max(1, int(np.ceil(np.sqrt(n_leaves))))
            slice_size = int(np.ceil(m / n_slices))
            parent_ids = []
            parent_rows = []
            for s in range(0, m, slice_size):
                sl = order[s:s + slice_size]
                sl = sl[np.argsort(cy[sl], kind="stable")]
                for i in range(0, len(sl), cap):
                    grp = sl[i:i + cap]
                    gb = level_bb[grp]
                    parent_rows.append((gb[:, 0].min(), gb[:, 1].min(),
                                        gb[:, 2].max(), gb[:, 3].max()))
                    child_first.append(
                        sum(len(c) for c in children_flat))
                    child_count.append(len(grp))
                    item.append(-1)
                    children_flat.append(level_ids[grp])
                    parent_ids.append(next_id)
                    next_id += 1
            level_bb = np.array(parent_rows, dtype=float)
            level_ids = np.array(parent_ids, dtype=np.int64)
            bbox_chunks.append(level_bb)

        self._root = int(level_ids[0])
        self._bboxes = np.concatenate(bbox_chunks, axis=0)
        self._child_first = np.array(child_first, dtype=np.int64)
        self._child_count = np.array(child_count, dtype=np.int64)
        self._item = np.array(item, dtype=np.int64)
        self._children = (np.concatenate(children_flat)
                          if children_flat else np.empty(0, dtype=np.int64))

    def __len__(self) -> int:
        return len(self._payloads)

    def query(self, bbox: BBox) -> list:
        """Payloads whose bbox intersects ``bbox``."""
        if self._root < 0:
            return []
        qx0, qy0, qx1, qy1 = (bbox.min_lon, bbox.min_lat,
                              bbox.max_lon, bbox.max_lat)
        out: list = []
        visited = 1  # root is always tested
        stack: list[int] = []
        rb = self._bboxes[self._root]
        if not (qx0 > rb[2] or qx1 < rb[0] or qy0 > rb[3] or qy1 < rb[1]):
            stack.append(self._root)
        # Emit leaves as they pop off the stack — the same DFS emission
        # order as the pointer-chasing implementation this replaces; only
        # the child bbox tests are batched.
        while stack:
            nid = stack.pop()
            if self._child_count[nid] == 0:
                out.append(self._payloads[self._item[nid]])
                continue
            first = self._child_first[nid]
            ch = self._children[first:first + self._child_count[nid]]
            cb = self._bboxes[ch]
            visited += len(ch)
            ok = ~((qx0 > cb[:, 2]) | (qx1 < cb[:, 0])
                   | (qy0 > cb[:, 3]) | (qy1 < cb[:, 1]))
            stack.extend(int(h) for h in ch[ok])
        STATS.count("strtree.queries")
        STATS.count("strtree.nodes_visited", visited)
        STATS.count("strtree.results", len(out))
        return out

    def query_point(self, lon: float, lat: float) -> list:
        """Payloads whose bbox contains the point."""
        return self.query(BBox(lon, lat, lon, lat))
