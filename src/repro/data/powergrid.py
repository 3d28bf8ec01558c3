"""Synthetic power-distribution grid.

The paper's case study (§3.2) showed that *power loss* — not equipment
damage — dominates wildfire-related cell outages, and its limitations
section (§3.11) flags "not fully accounting for risk from loss of
power" as the main gap: cell sites fail when their upstream feeder or
substation is de-energized, even when the site itself is far outside
the fire perimeter.  This substrate models the dependency chain the
authors describe studying in their follow-on work:

* **substations** placed proportionally to population (each serves a
  service area),
* **transmission lines** connecting substations (minimum spanning tree
  plus nearest-neighbor redundancy, like the highway graph),
* **feeder assignment**: every cell site depends on its nearest
  substation,
* exposure helpers: which lines cross high-WHP cells (Public Safety
  Power Shutoff candidates), which substations sit inside a fire
  perimeter.

The model is deliberately radial (no load flow): the question the
analyses ask is *which sites lose power when a line or substation is
taken out*, which a dependency graph answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from ..geo.geometry import LineString
from .cells import CellUniverse
from .population import PopulationSurface
from .whp import WhpModel

__all__ = ["PowerGrid", "build_power_grid", "dense_mst"]


@dataclass
class PowerGrid:
    """The synthetic grid: substations, lines, and site dependencies."""

    substation_lons: np.ndarray
    substation_lats: np.ndarray
    #: (n_lines, 2) array of substation indices
    lines: np.ndarray
    #: substation index per cell site id (dict: site_id -> substation)
    site_substation: dict[int, int]
    graph: "nx.Graph" = field(repr=False, default=None,
                              metadata={"fingerprint": False})

    @property
    def n_substations(self) -> int:
        return len(self.substation_lons)

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    def line_segments(self) -> list[LineString]:
        """Transmission lines as LineStrings."""
        out = []
        for a, b in self.lines:
            out.append(LineString([
                (self.substation_lons[a], self.substation_lats[a]),
                (self.substation_lons[b], self.substation_lats[b])]))
        return out

    def sites_of_substation(self, substation: int) -> list[int]:
        """Site ids fed by a substation."""
        return [site for site, sub in self.site_substation.items()
                if sub == substation]

    def substations_in_polygon(self, polygon) -> np.ndarray:
        """Indices of substations inside a polygon."""
        inside = polygon.contains_many(self.substation_lons,
                                       self.substation_lats)
        return np.nonzero(inside)[0]

    def lines_crossing_mask(self, whp: WhpModel, mask: np.ndarray,
                            step_deg: float = 0.05) -> np.ndarray:
        """Indices of lines that cross True cells of a WHP-grid mask.

        Lines are sampled every ``step_deg`` along their length; a line
        crosses the mask when any sample lands in a True cell.  This is
        the PSPS-candidate test: utilities de-energize lines that
        traverse high-hazard terrain.
        """
        a, b = self.lines[:, 0], self.lines[:, 1]
        crossed = _runs_cross_mask(
            whp, mask, self.substation_lons[a], self.substation_lats[a],
            self.substation_lons[b], self.substation_lats[b], step_deg)
        return np.flatnonzero(crossed).astype(np.int64)

    def feeder_cut_sites(self, cells: CellUniverse, whp: WhpModel,
                         mask: np.ndarray,
                         step_deg: float = 0.04) -> set[int]:
        """Site ids whose distribution feeder crosses True mask cells.

        The feeder is modeled as the straight run from the site to its
        substation; fires or shutoffs anywhere along it cut the site's
        power — the §3.2 mechanism by which sites far outside a
        perimeter go dark.
        """
        site_ids, first = np.unique(cells.site_ids, return_index=True)
        subs = np.array([self.site_substation.get(sid, -1)
                         for sid in site_ids.tolist()], dtype=np.int64)
        fed = subs >= 0
        site_ids, first, subs = site_ids[fed], first[fed], subs[fed]
        crossed = _runs_cross_mask(
            whp, mask, cells.lons[first], cells.lats[first],
            self.substation_lons[subs], self.substation_lats[subs],
            step_deg)
        return set(site_ids[crossed].tolist())

    def dead_sites(self, dead_substations: set[int],
                   cut_lines: set[int]) -> set[int]:
        """Site ids without power given failed substations/cut lines.

        A site is dead when its substation is dead, or its substation is
        disconnected from every live generation-bearing component.  We
        treat the largest connected component of the surviving line
        graph as energized (bulk grid), matching how islanding plays out
        in a radial simplification.
        """
        g = self.graph.copy()
        g.remove_nodes_from(dead_substations)
        g.remove_edges_from(
            tuple(self.lines[i]) for i in cut_lines
            if self.lines[i][0] in g and self.lines[i][1] in g)
        if len(g) == 0:
            energized: set[int] = set()
        else:
            components = list(nx.connected_components(g))
            energized = max(components, key=len)
        dead = set()
        for site, sub in self.site_substation.items():
            if sub in dead_substations or sub not in energized:
                dead.add(site)
        return dead


def build_power_grid(pop: PopulationSurface, cells: CellUniverse,
                     n_substations: int = 400, seed: int = 77,
                     k_neighbors: int = 2) -> PowerGrid:
    """Build the synthetic grid.

    Substations are drawn from the population surface (power capacity
    follows load); the line network is an MST over substations plus
    ``k_neighbors`` nearest-neighbor ties; every cell site attaches to
    its nearest substation.
    """
    if n_substations < 2:
        raise ValueError("need at least two substations")
    rng = np.random.default_rng(seed)
    sub_lons, sub_lats = pop.sample_points(n_substations, rng,
                                           exponent=0.7)

    # MST + k nearest neighbors over substations.  The full pairwise
    # distance matrix is small (n^2 floats); the MST comes from a dense
    # vectorized Prim instead of a quadratic Python loop feeding
    # Kruskal — identical tree, since the continuous sampled distances
    # are pairwise distinct.
    d = np.hypot(sub_lons[:, None] - sub_lons[None, :],
                 sub_lats[:, None] - sub_lats[None, :])
    order = np.argsort(d, axis=1)
    graph = nx.Graph()
    graph.add_nodes_from(range(n_substations))
    mst = dense_mst(d)
    graph.add_edges_from(zip(*np.nonzero(mst)))
    for col in range(1, k_neighbors + 1):
        graph.add_edges_from(enumerate(order[:, col].tolist()))

    lines = np.asarray(sorted(tuple(sorted(e)) for e in graph.edges()),
                       dtype=np.int64)

    # Site -> nearest substation (one representative location per site).
    site_ids, first = np.unique(cells.site_ids, return_index=True)
    site_lons = cells.lons[first]
    site_lats = cells.lats[first]
    nearest_chunks = []
    chunk = 4096
    for start in range(0, len(site_ids), chunk):
        sl = site_lons[start:start + chunk][:, None]
        sa = site_lats[start:start + chunk][:, None]
        d2 = (sl - sub_lons[None, :]) ** 2 + (sa - sub_lats[None, :]) ** 2
        nearest_chunks.append(np.argmin(d2, axis=1))
    nearest = np.concatenate(nearest_chunks) if nearest_chunks \
        else np.empty(0, dtype=np.int64)
    assignment = {int(sid): int(sub)
                  for sid, sub in zip(site_ids.tolist(), nearest.tolist())}

    return PowerGrid(substation_lons=sub_lons, substation_lats=sub_lats,
                     lines=lines, site_substation=assignment,
                     graph=graph)


def _sample_runs(x1, y1, x2, y2, step_deg: float):
    """Samples along many straight runs: ``(lons, lats, offsets)``.

    Run ``i`` from ``(x1[i], y1[i])`` to ``(x2[i], y2[i])`` gets
    ``n = max(2, int(length / step_deg))`` samples at
    ``x1 + ts * (x2 - x1)`` with ``ts = np.linspace(0, 1, n)``; its
    samples are ``[offsets[i], offsets[i] + n)`` of the flat arrays.
    ``linspace(0, 1, n)`` computes ``k * (1.0 / (n - 1))`` and pins the
    last sample to ``1.0``, which the flat form reproduces bit for bit
    without one ``linspace`` call per run.
    """
    x1, y1, x2, y2 = (np.asarray(v, dtype=float) for v in (x1, y1, x2, y2))
    length = np.hypot(x2 - x1, y2 - y1)
    n = np.maximum(2, (length / step_deg).astype(np.int64))
    offsets = np.cumsum(n) - n
    k = np.arange(int(n.sum()), dtype=np.int64) - np.repeat(offsets, n)
    ts = k * np.repeat(1.0 / (n - 1), n)
    ts[offsets + n - 1] = 1.0
    lons = np.repeat(x1, n) + ts * np.repeat(x2 - x1, n)
    lats = np.repeat(y1, n) + ts * np.repeat(y2 - y1, n)
    return lons, lats, offsets


def _runs_cross_mask(whp: WhpModel, mask: np.ndarray, x1, y1, x2, y2,
                     step_deg: float) -> np.ndarray:
    """Per run of :func:`_sample_runs`: does any sample land in a True
    cell of the WHP-grid ``mask``?  One grid lookup for all samples,
    then a segmented ``any``."""
    if len(x1) == 0:
        return np.zeros(0, dtype=bool)
    grid = whp.grid
    lons, lats, offsets = _sample_runs(x1, y1, x2, y2, step_deg)
    rows, cols = grid.rowcol(lons, lats)
    ok = grid.inside(rows, cols)
    hit = np.zeros(len(rows), dtype=bool)
    hit[ok] = mask[rows[ok], cols[ok]]
    return np.logical_or.reduceat(hit, offsets)


def dense_mst(d: np.ndarray) -> np.ndarray:
    """Minimum spanning tree edges of a dense distance matrix.

    Dense Prim's algorithm, O(n^2) with one vectorized relaxation per
    added node.  Returns a boolean (n, n) matrix marking tree edges
    (parent -> child as discovered).  The MST is unique — hence equal to
    the Kruskal tree of the complete graph — whenever the off-diagonal
    distances are distinct, the generic case for continuously sampled
    points.
    """
    n = d.shape[0]
    mst = np.zeros((n, n), dtype=bool)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = d[0].astype(float, copy=True)
    best[0] = np.inf
    parent = np.zeros(n, dtype=np.int64)
    for _ in range(n - 1):
        j = int(np.argmin(best))
        in_tree[j] = True
        mst[parent[j], j] = True
        best[j] = np.inf
        better = (d[j] < best) & ~in_tree
        parent[better] = j
        best[better] = d[j][better]
    return mst
