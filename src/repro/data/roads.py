"""Synthetic interstate-highway network.

Cell infrastructure follows roads (§3.7: "the network extends limited
assets into more rural areas and along transportation pathways"), and the
WHP-validation anomaly of §3.4 hinges on transceivers sitting in road
corridors that WHP classifies as low-risk.  We build a highway graph over
the metro anchors: a Euclidean minimum spanning tree (guaranteeing
connectivity, like the national backbone) plus each city's k nearest
neighbors (adding the redundant links real interstates have).

Edges are straight great-circle corridors — adequate at the fidelity of
the synthetic US.
"""

from __future__ import annotations

from functools import lru_cache

import networkx as nx
import numpy as np

from ..geo.geometry import LineString
from ..geo.projection import haversine_m
from .cities import conus_cities

__all__ = ["road_graph", "road_segments", "distance_to_roads_deg"]


@lru_cache(maxsize=1)
def road_graph(k_neighbors: int = 3) -> "nx.Graph":
    """Highway graph over metro anchors.

    Nodes are city names with ``lon``/``lat``/``city`` attributes; edges
    carry great-circle ``length_m``.
    """
    cities = conus_cities()
    g = nx.Graph()
    for c in cities:
        g.add_node(c.name, lon=c.lon, lat=c.lat, city=c)

    lons = np.array([c.lon for c in cities])
    lats = np.array([c.lat for c in cities])

    # Complete graph distances (70 cities -> trivial).
    full = nx.Graph()
    for i, a in enumerate(cities):
        d = haversine_m(lons[i], lats[i], lons, lats)
        for j in range(i + 1, len(cities)):
            full.add_edge(a.name, cities[j].name, length_m=float(d[j]))

    mst = nx.minimum_spanning_tree(full, weight="length_m")
    g.add_edges_from(mst.edges(data=True))

    # k nearest neighbors per city for redundancy.
    for i, a in enumerate(cities):
        d = haversine_m(lons[i], lats[i], lons, lats)
        order = np.argsort(d)
        added = 0
        for j in order:
            if j == i:
                continue
            b = cities[int(j)]
            if not g.has_edge(a.name, b.name):
                g.add_edge(a.name, b.name, length_m=float(d[j]))
            added += 1
            if added >= k_neighbors:
                break
    return g


@lru_cache(maxsize=1)
def road_segments() -> tuple[LineString, ...]:
    """All highway edges as 2-vertex LineStrings (lon/lat)."""
    g = road_graph()
    segs = []
    for u, v in g.edges():
        segs.append(LineString([
            (g.nodes[u]["lon"], g.nodes[u]["lat"]),
            (g.nodes[v]["lon"], g.nodes[v]["lat"]),
        ]))
    return tuple(segs)


def distance_to_roads_deg(lons, lats, chunk: int = 512) -> np.ndarray:
    """Min distance (degrees) from points to any highway segment.

    Used by the population/transceiver samplers to create road corridors.
    Works on chunks of points and skips, per chunk, every segment that
    provably cannot contain the minimum: a segment is dropped only when
    the separation of its bbox from the chunk's bbox exceeds an upper
    bound on the chunk's final answer (the smallest over segments of the
    largest chunk-corner distance, plus a safety margin dwarfing float
    rounding).  Min is exact in floating point, so the result is
    bit-identical to testing every segment.
    """
    lons = np.asarray(lons, dtype=float)
    lats = np.asarray(lats, dtype=float)
    flat_lons = np.atleast_1d(lons.ravel())
    flat_lats = np.atleast_1d(lats.ravel())
    segs = np.array([(s.coords[0][0], s.coords[0][1],
                      s.coords[1][0], s.coords[1][1])
                     for s in road_segments()])

    # Group points into ~1-degree spatial tiles before chunking: callers
    # pass raster scan orders whose consecutive runs span the whole
    # domain, which would give every chunk a domain-sized bbox and
    # defeat the pruning.  Each point's distance is independent of
    # processing order, so the permutation changes nothing but speed.
    tile_key = ((np.floor(flat_lons) + 200.0) * 400.0
                + (np.floor(flat_lats) + 100.0)).astype(np.int64)
    order = np.argsort(tile_key, kind="stable")

    best = np.full(flat_lons.shape, np.inf)
    if len(flat_lons) == 0:
        return best.reshape(lons.shape)
    starts = np.arange(0, len(flat_lons), chunk)
    sorted_lons = flat_lons[order]
    sorted_lats = flat_lats[order]
    candidates = _chunk_candidates(sorted_lons, sorted_lats, starts, segs)
    dx = segs[:, 2] - segs[:, 0]
    dy = segs[:, 3] - segs[:, 1]
    seg_len2 = np.where(dx * dx + dy * dy == 0.0, 1.0, dx * dx + dy * dy)

    for i, start in enumerate(starts.tolist()):
        idx = order[start:start + chunk]
        px = sorted_lons[start:start + chunk]
        py = sorted_lats[start:start + chunk]
        keep = np.nonzero(candidates[i])[0]
        if len(keep) == 0:
            best[idx] = np.inf
            continue
        # One broadcast evaluation over (kept segments, chunk points);
        # the per-element arithmetic matches _point_segment_distance_vec
        # (including its zero-length-segment fallback via the where'd
        # denominator), and an axis-min of the same floats equals the
        # running-minimum loop exactly.
        x1 = segs[keep, 0][:, None]
        y1 = segs[keep, 1][:, None]
        dxk = dx[keep][:, None]
        dyk = dy[keep][:, None]
        len2 = seg_len2[keep][:, None]
        t = np.clip(((px[None, :] - x1) * dxk + (py[None, :] - y1) * dyk)
                    / len2, 0.0, 1.0)
        d = np.hypot(px[None, :] - (x1 + t * dxk),
                     py[None, :] - (y1 + t * dyk))
        best[idx] = d.min(axis=0)
    return best.reshape(lons.shape)


def _chunk_candidates(lons: np.ndarray, lats: np.ndarray,
                      starts: np.ndarray, segs: np.ndarray) -> np.ndarray:
    """``(chunks, segments)`` mask of segments a chunk must test.

    Chunk ``i`` is ``lons[starts[i]:starts[i + 1]]`` (likewise lats);
    ``segs`` rows are ``(x1, y1, x2, y2)``.  A segment is kept unless
    the separation of its bbox from the chunk's bbox exceeds an upper
    bound on every chunk point's minimum distance.  All chunks' bboxes,
    bounds and separations are computed in one pass.
    """
    bx0 = np.minimum.reduceat(lons, starts)[:, None]
    bx1 = np.maximum.reduceat(lons, starts)[:, None]
    by0 = np.minimum.reduceat(lats, starts)[:, None]
    by1 = np.maximum.reduceat(lats, starts)[:, None]
    # Minimax bound: point-to-segment distance is convex, so its max
    # over a chunk rectangle sits on a corner.  min over segments of
    # that corner max bounds every point's final answer.
    dx = segs[:, 2] - segs[:, 0]
    dy = segs[:, 3] - segs[:, 1]
    seg_len2 = np.where(dx * dx + dy * dy == 0.0, 1.0, dx * dx + dy * dy)
    corner_max = np.zeros((len(starts), len(segs)))
    for qx, qy in ((bx0, by0), (bx0, by1), (bx1, by0), (bx1, by1)):
        t = np.clip(((qx - segs[:, 0]) * dx + (qy - segs[:, 1]) * dy)
                    / seg_len2, 0.0, 1.0)
        d = np.hypot(qx - (segs[:, 0] + t * dx),
                     qy - (segs[:, 1] + t * dy))
        np.maximum(corner_max, d, out=corner_max)
    upper = corner_max.min(axis=1, keepdims=True) + 1e-6
    sx0 = np.minimum(segs[:, 0], segs[:, 2])
    sx1 = np.maximum(segs[:, 0], segs[:, 2])
    sy0 = np.minimum(segs[:, 1], segs[:, 3])
    sy1 = np.maximum(segs[:, 1], segs[:, 3])
    lower = np.hypot(np.maximum(0.0, np.maximum(sx0 - bx1, bx0 - sx1)),
                     np.maximum(0.0, np.maximum(sy0 - by1, by0 - sy1)))
    return lower <= upper


def _point_segment_distance_vec(px, py, x1, y1, x2, y2) -> np.ndarray:
    dx = x2 - x1
    dy = y2 - y1
    seg_len2 = dx * dx + dy * dy
    if seg_len2 == 0.0:
        return np.hypot(px - x1, py - y1)
    t = np.clip(((px - x1) * dx + (py - y1) * dy) / seg_len2, 0.0, 1.0)
    return np.hypot(px - (x1 + t * dx), py - (y1 + t * dy))
