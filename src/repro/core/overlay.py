"""Spatial-join engine: transceivers × hazard footprints / rasters.

This is the computational heart of the paper's methodology (§2.3):
"identifying cell transceiver locations that fall within the perimeters
of all historical wildfires".  The engine joins a point universe against
polygon sets using the uniform-grid index (bbox candidates, then exact
point-in-polygon), and against rasters by vectorized sampling.

The engine is hazard-agnostic: it consumes events through the
structural :class:`~repro.hazard.base.HazardEvent` shape (``name`` /
``year`` / ``polygon``) and intensity surfaces through
:class:`~repro.hazard.base.IntensitySurface` (``classify`` /
``content_token``), resolved from the hazard registry by the session
artifacts' canonical ``hazard=`` parameter (default ``"wildfire"`` —
the paper's peril, byte-identical to the pre-protocol path).  The
``fire``/``whp`` vocabulary below is kept for the dominant instance;
nothing in the code requires fire-shaped inputs.

Execution is delegated to :mod:`repro.runtime`:

* the adaptive dispatcher (:mod:`repro.runtime.dispatch`) estimates the
  work of each join and stays serial below the measured crossover, so
  requesting workers can never make a join slower;
* above the crossover, the perimeter overlay shards **by fire** over a
  persistent worker pool (:mod:`repro.runtime.pool`).  Workers hold the
  full point universe and build the grid index **once**, on first use,
  then reuse it for every fire of every season of a 19-year sweep; a
  task ships only a slice of the fire list and returns per-fire counts
  plus global hit indices;
* results are memoized in a content-addressed cache keyed by the
  inputs' bytes.

Every path is bit-identical to the serial join: each fire is evaluated
by exactly one worker running the same full-universe index query the
serial loop runs, per-fire counts are reassembled in fire order, and
the mask is the union of exact global hit indices.  ``tests/runtime/``
holds the differential proof.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING
from weakref import WeakKeyDictionary

import numpy as np

from ..data.cells import CellUniverse
from ..data.packed import unpack_index
from ..geo.index import UniformGridIndex
from ..runtime import (
    cache_key,
    chunk_spans,
    classify_workers,
    delta_workers,
    get_cache,
    get_config,
    overlay_workers,
    run_tasks,
    use_shared_memory,
)
from ..runtime import shm as _shm
from ..obs.trace import span as trace_span
from ..runtime.stats import STATS
from ..session import StageOption, artifact, register_stage

if TYPE_CHECKING:
    from ..hazard.base import HazardEvent, IntensitySurface

__all__ = ["FireOverlayResult", "FireDelta", "overlay_fires",
           "overlay_fires_bruteforce", "update_overlay", "empty_overlay",
           "classify_cells", "fires_token"]

#: Default grid-index bucket size, matching :meth:`CellUniverse.index`.
_INDEX_CELL_DEG = 0.25

#: Fire-slices per worker and pool run.  More slices than workers keeps
#: the pool load-balanced when perimeter sizes vary wildly (they do).
_FIRE_SLICES_PER_WORKER = 4


@dataclass
class FireOverlayResult:
    """Result of joining a transceiver universe with fire perimeters.

    ``per_fire_hits`` (populated by ``keep_hits=True``) carries each
    fire's exact hit indices — the *answered footprint* the incremental
    engine hands back to :meth:`UniformGridIndex.query_polygon_delta`
    so a later tick re-tests only dirty buckets.  ``None`` means the
    footprints were not retained; :func:`update_overlay` then falls
    back to full queries for the affected fires (still bit-identical,
    just without the skip).
    """

    year: int
    n_fires: int
    in_perimeter_mask: np.ndarray       # bool per transceiver
    per_fire_counts: dict[str, int]     # fire name -> transceivers inside
    per_fire_hits: dict[str, np.ndarray] | None = None

    @property
    def n_in_perimeter(self) -> int:
        return int(self.in_perimeter_mask.sum())

    def scaled_count(self, universe_scale: float) -> int:
        """Count rescaled to the paper's 5.36M-transceiver universe."""
        return int(round(self.n_in_perimeter * universe_scale))


@dataclass(frozen=True)
class FireDelta:
    """One mutated fire front: the perimeter as of the current tick.

    ``fire.name`` identifies the fire.  A name already present in the
    previous overlay is a **growth** delta — its polygon must contain
    the previous perimeter (a fire front only spreads); an unknown
    name is an **ignition** and joins the season.
    """

    fire: HazardEvent


# Per-event content digests, memoized for the life of the event
# object.  Keyed weakly so discarded seasons do not pin their digests;
# event dataclasses are frozen, so content cannot drift under the memo.
_FIRE_TOKENS: WeakKeyDictionary = WeakKeyDictionary()


def _fire_token(fire: HazardEvent) -> bytes:
    token = _FIRE_TOKENS.get(fire)
    if token is None:
        h = hashlib.sha256()
        h.update(fire.name.encode())
        h.update(str(fire.year).encode())
        h.update(fire.polygon.exterior.tobytes())
        for hole in fire.polygon.holes:
            h.update(hole.tobytes())
        token = h.digest()
        _FIRE_TOKENS[fire] = token
    return token


def fires_token(fires: list[HazardEvent]) -> bytes:
    """Content digest of a fire list (names, years, ring bytes).

    Per-fire digests are memoized, so the 19-year historical sweep stops
    re-hashing megabytes of ring coordinates on every overlay call.
    """
    h = hashlib.sha256()
    for fire in fires:
        h.update(_fire_token(fire))
    return h.digest()


# ----------------------------------------------------------------------
# Worker-process plumbing.  The pool initializer installs the point
# universe once per worker (inherited copy-on-write under fork); the
# grid index is built lazily on the first task and reused for every
# subsequent task of every subsequent call — the pool itself persists
# across overlay_fires calls (see repro.runtime.pool).
# ----------------------------------------------------------------------

_WORKER_STATE: dict | None = None


def _init_overlay_worker(lons, lats, cell_deg) -> None:
    global _WORKER_STATE
    _WORKER_STATE = {"lons": lons, "lats": lats, "cell_deg": cell_deg,
                     "index": None}


def _init_overlay_worker_shm(handle) -> None:
    """Shared-memory initializer: store only the (tiny) handle.

    The actual attach happens lazily on the first task: an initializer
    that raises would put the pool into a silent respawn loop, whereas a
    task failure propagates through ``pool.map`` into the runtime's
    serial fallback.
    """
    global _WORKER_STATE
    _WORKER_STATE = {"shm_handle": handle, "index": None}


def _init_classify_worker_shm(handle, whp) -> None:
    global _WORKER_STATE
    _WORKER_STATE = {"shm_handle": handle, "whp": whp}


def _worker_arrays() -> dict:
    """The worker's zero-copy view dict, attaching on first use."""
    state = _WORKER_STATE
    arrays = state.get("arrays")
    if arrays is None:
        arrays = _shm.attach_arrays(state["shm_handle"])
        state["arrays"] = arrays
    return arrays


def _worker_index() -> UniformGridIndex:
    state = _WORKER_STATE
    index = state["index"]
    if index is None:
        if "shm_handle" in state:
            # Adopt the parent's pre-built CSR index zero-copy: no
            # coordinate hashing, no argsort, no bucket rebuild.
            index = unpack_index(_worker_arrays())
            STATS.count("pool.worker_index_attach")
        else:
            index = UniformGridIndex(state["lons"], state["lats"],
                                     state["cell_deg"])
            STATS.count("pool.worker_index_builds")
        state["index"] = index
    return index


def _shared_handle(cells: CellUniverse):
    """Shared-memory handle for the universe's pack, or ``None``.

    ``None`` (segment creation failed, or the universe refuses to pack)
    sends the caller down the classic initializer-pickle path.
    """
    try:
        pack = cells.packed(_INDEX_CELL_DEG)
    except ValueError:
        return None
    return _shm.share_arrays(pack.token, pack.arrays)


def _overlay_fires_task(fires: list[HazardEvent]):
    """Join a slice of the fire list against the worker-resident index.

    Returns per-fire hit counts (slice order), the concatenated global
    hit indices, and the worker's stats delta.
    """
    before = STATS.snapshot()
    with trace_span("overlay.chunk", n_fires=len(fires)) as sp:
        hit_chunks = _worker_index().query_polygons(
            [fire.polygon for fire in fires])
        counts = np.array([len(h) for h in hit_chunks], dtype=np.int64)
        hits = np.concatenate(hit_chunks) if hit_chunks \
            else np.empty(0, dtype=np.int64)
        sp.set(hits=int(counts.sum()))
    return counts, hits, STATS.delta_since(before)


def _delta_overlay_task(items: list):
    """Delta-join a slice of ``(fire, prev_hits)`` pairs.

    Same shape as :func:`_overlay_fires_task` — per-fire hit counts in
    slice order, concatenated global hit indices, worker stats delta —
    but each fire with an answered footprint runs the dirty-bucket
    delta query instead of the full polygon query.
    """
    before = STATS.snapshot()
    with trace_span("overlay.delta_chunk", n_deltas=len(items)) as sp:
        index = _worker_index()
        counts = np.zeros(len(items), dtype=np.int64)
        hit_chunks = []
        for i, (fire, prev_hits) in enumerate(items):
            if prev_hits is None:
                hits = index.query_polygon(fire.polygon)
            else:
                hits = index.query_polygon_delta(fire.polygon, prev_hits)
            counts[i] = len(hits)
            hit_chunks.append(hits)
        hits = np.concatenate(hit_chunks) if hit_chunks \
            else np.empty(0, dtype=np.int64)
        sp.set(hits=int(counts.sum()))
    return counts, hits, STATS.delta_since(before)


def _init_classify_worker(lons, lats, whp) -> None:
    global _WORKER_STATE
    _WORKER_STATE = {"lons": lons, "lats": lats, "whp": whp}


def _classify_task(span: tuple[int, int]):
    start, stop = span
    state = _WORKER_STATE
    if "shm_handle" in state:
        arrays = _worker_arrays()
        lons, lats = arrays["lons"], arrays["lats"]
    else:
        lons, lats = state["lons"], state["lats"]
    before = STATS.snapshot()
    with trace_span("classify.chunk", start=start, stop=stop):
        classes = state["whp"].classify(lons[start:stop],
                                        lats[start:stop])
    return classes, STATS.delta_since(before)


# ----------------------------------------------------------------------
# Public joins
# ----------------------------------------------------------------------

def overlay_fires(cells: CellUniverse, fires: list[HazardEvent],
                  year: int | None = None, *,
                  workers: int | None = None,
                  chunk_size: int | None = None,
                  use_cache: bool | None = None,
                  keep_hits: bool = False) -> FireOverlayResult:
    """Join transceivers against fire perimeters using the grid index.

    A transceiver inside any perimeter counts once in the mask; per-fire
    counts can overlap (two fires covering one transceiver both count it,
    exactly as a per-fire tally would).

    ``workers``/``chunk_size``/``use_cache`` override the global
    :class:`repro.runtime.RuntimeConfig` for this call.  ``workers`` is
    a *request*: the adaptive dispatcher resolves it against the
    estimated work and the machine's core budget, and falls back to the
    strictly-serial path whenever parallelism could not win.

    ``keep_hits=True`` additionally retains each fire's exact hit
    indices (``per_fire_hits``), the answered footprints
    :func:`update_overlay` needs to run incremental ticks.  Masks and
    counts are unaffected; cached entries are keyed separately because
    the payload differs.
    """
    cfg = get_config()
    if workers is None:
        workers = cfg.workers
    if use_cache is None:
        use_cache = cfg.cache_enabled
    resolved_year = year if year is not None else (
        fires[0].year if fires else 0)

    key = None
    if use_cache:
        version = b"overlay_fires/v2+hits" if keep_hits \
            else b"overlay_fires/v1"
        key = cache_key(version, cells.content_token(),
                        fires_token(fires), resolved_year)
        entry = get_cache().get(key)
        if entry is not None:
            return _decode_overlay(entry)

    with trace_span("overlay_fires", year=resolved_year,
                    n_points=len(cells), n_fires=len(fires)) as sp:
        with STATS.timer("overlay_fires"):
            eff_workers = overlay_workers(workers, len(cells),
                                          len(fires))
            sp.set(workers=eff_workers)
            if eff_workers > 1:
                result = _overlay_parallel(cells, fires, resolved_year,
                                           eff_workers, keep_hits)
            else:
                result = _overlay_serial(cells, fires, resolved_year,
                                         keep_hits)

    if use_cache and key is not None:
        get_cache().put(key, _encode_overlay(result))
    return result


def _overlay_serial(cells: CellUniverse, fires: list[HazardEvent],
                    year: int, keep_hits: bool = False) \
        -> FireOverlayResult:
    fire_hits = cells.index().query_polygons([f.polygon for f in fires])
    mask = np.zeros(len(cells), dtype=bool)
    if fire_hits:
        mask[np.concatenate(fire_hits)] = True
    per_fire = {fire.name: len(hits)
                for fire, hits in zip(fires, fire_hits)}
    hits_map = {fire.name: hits for fire, hits in zip(fires, fire_hits)} \
        if keep_hits else None
    return FireOverlayResult(year=year, n_fires=len(fires),
                             in_perimeter_mask=mask,
                             per_fire_counts=per_fire,
                             per_fire_hits=hits_map)


def _overlay_parallel(cells: CellUniverse, fires: list[HazardEvent],
                      year: int, workers: int,
                      keep_hits: bool = False) -> FireOverlayResult:
    """Fire-sharded parallel overlay on the persistent universe pool.

    Each task is a contiguous slice of the fire list; each fire is
    evaluated by exactly one worker against the same full-universe index
    the serial path queries, so results are bit-identical by
    construction (not merely by concatenation order).
    """
    slice_size = max(1, -(-len(fires) //
                          (workers * _FIRE_SLICES_PER_WORKER)))
    spans = chunk_spans(len(fires), slice_size)
    tasks = [fires[lo:hi] for lo, hi in spans]
    initializer, initargs = _overlay_pool_init(cells)
    results = run_tasks(
        "overlay", workers, cells.content_token(),
        _overlay_fires_task, tasks,
        initializer=initializer, initargs=initargs)
    if results is None:
        return _overlay_serial(cells, fires, year, keep_hits)

    mask = np.zeros(len(cells), dtype=bool)
    counts = np.concatenate([r[0] for r in results]) if results \
        else np.empty(0, dtype=np.int64)
    pieces: list[np.ndarray] = []
    for slice_counts, hits, delta in results:
        mask[hits] = True
        STATS.merge(delta)
        if keep_hits:
            pieces.extend(np.split(hits,
                                   np.cumsum(slice_counts)[:-1]))
    per_fire = {fire.name: int(counts[i]) for i, fire in enumerate(fires)}
    hits_map = {fire.name: pieces[i] for i, fire in enumerate(fires)} \
        if keep_hits else None
    return FireOverlayResult(year=year, n_fires=len(fires),
                             in_perimeter_mask=mask,
                             per_fire_counts=per_fire,
                             per_fire_hits=hits_map)


def _overlay_pool_init(cells: CellUniverse):
    """(initializer, initargs) for the shared universe pool."""
    initializer, initargs = _init_overlay_worker, \
        (cells.lons, cells.lats, _INDEX_CELL_DEG)
    if use_shared_memory(len(cells)):
        handle = _shared_handle(cells)
        if handle is not None:
            initializer, initargs = _init_overlay_worker_shm, (handle,)
    return initializer, initargs


def empty_overlay(cells: CellUniverse, year: int, *,
                  keep_hits: bool = False) -> FireOverlayResult:
    """A no-fires overlay — the tick-zero state of an incident fold."""
    return FireOverlayResult(
        year=year, n_fires=0,
        in_perimeter_mask=np.zeros(len(cells), dtype=bool),
        per_fire_counts={},
        per_fire_hits={} if keep_hits else None)


def update_overlay(cells: CellUniverse, prev: FireOverlayResult,
                   deltas: list[FireDelta], *,
                   workers: int | None = None,
                   keep_hits: bool = True) -> FireOverlayResult:
    """Advance an overlay by one tick of fire-front deltas.

    Produces the exact result a from-scratch :func:`overlay_fires`
    would on the updated fire list (changed perimeters replaced in
    place, ignitions appended) — pinned bit-for-bit by the
    differential suite in ``tests/stream/`` — while touching only the
    *dirty* grid buckets of the changed fires:

    * a grown fire with an answered footprint in ``prev.per_fire_hits``
      runs :meth:`UniformGridIndex.query_polygon_delta`, skipping every
      fully-answered bucket and every already-answered candidate;
    * an ignition (or a fire whose footprint was not retained) runs the
      ordinary full polygon query;
    * unchanged fires are not touched at all — their counts, hit
      footprints, and mask contribution carry over.

    The mask update relies on monotone growth (``prev`` hits stay
    hits), the same contract ``query_polygon_delta`` documents.  Large
    dirty sets dispatch through the persistent pool/shm machinery
    (``delta_workers`` crossover); small ticks run serially.
    """
    cfg = get_config()
    if workers is None:
        workers = cfg.workers
    if not deltas:
        return prev
    prev_hits_map = prev.per_fire_hits or {}
    items = [(d.fire, prev_hits_map.get(d.fire.name)) for d in deltas]

    with trace_span("update_overlay", year=prev.year,
                    n_points=len(cells), n_deltas=len(deltas)) as sp:
        with STATS.timer("update_overlay"):
            eff_workers = delta_workers(workers, len(cells),
                                        len(deltas))
            sp.set(workers=eff_workers)
            fire_hits = None
            if eff_workers > 1:
                fire_hits = _update_parallel(cells, items, eff_workers)
            if fire_hits is None:
                fire_hits = _update_serial(cells, items)

    mask = prev.in_perimeter_mask.copy()
    per_fire = dict(prev.per_fire_counts)
    hits_map = dict(prev_hits_map) if keep_hits else None
    n_fires = prev.n_fires
    for delta, hits in zip(deltas, fire_hits):
        name = delta.fire.name
        if name not in per_fire:
            n_fires += 1
        mask[hits] = True
        per_fire[name] = len(hits)
        if hits_map is not None:
            hits_map[name] = hits
    return FireOverlayResult(year=prev.year, n_fires=n_fires,
                             in_perimeter_mask=mask,
                             per_fire_counts=per_fire,
                             per_fire_hits=hits_map)


def _update_serial(cells: CellUniverse, items: list) -> list[np.ndarray]:
    index = cells.index()
    out = []
    for fire, prev_hits in items:
        if prev_hits is None:
            out.append(index.query_polygon(fire.polygon))
        else:
            out.append(index.query_polygon_delta(fire.polygon,
                                                 prev_hits))
    return out


def _update_parallel(cells: CellUniverse, items: list,
                     workers: int) -> list[np.ndarray] | None:
    """Delta-sharded parallel tick on the persistent universe pool.

    Reuses the warm ``overlay`` pool (same name, same universe token)
    so a tick after a batch overlay ships only its delta slices; the
    pool-failure fallback returns ``None`` and the caller runs the
    identical queries serially.
    """
    slice_size = max(1, -(-len(items) //
                          (workers * _FIRE_SLICES_PER_WORKER)))
    spans = chunk_spans(len(items), slice_size)
    tasks = [items[lo:hi] for lo, hi in spans]
    initializer, initargs = _overlay_pool_init(cells)
    results = run_tasks(
        "overlay", workers, cells.content_token(),
        _delta_overlay_task, tasks,
        initializer=initializer, initargs=initargs)
    if results is None:
        return None
    out: list[np.ndarray] = []
    for counts, hits, delta in results:
        STATS.merge(delta)
        out.extend(np.split(hits, np.cumsum(counts)[:-1]))
    return out


def overlay_fires_bruteforce(cells: CellUniverse,
                             fires: list[HazardEvent],
                             year: int | None = None, *,
                             keep_hits: bool = False) \
        -> FireOverlayResult:
    """Reference implementation without the spatial index.

    Used by tests (equivalence oracle) and by the ablation benchmark that
    quantifies what the index buys.  Never parallel, never cached.
    """
    mask = np.zeros(len(cells), dtype=bool)
    per_fire: dict[str, int] = {}
    hits_map: dict[str, np.ndarray] | None = {} if keep_hits else None
    for fire in fires:
        inside = fire.polygon.contains_many(cells.lons, cells.lats)
        per_fire[fire.name] = int(inside.sum())
        if hits_map is not None:
            hits_map[fire.name] = np.nonzero(inside)[0]
        mask |= inside
    return FireOverlayResult(
        year=year if year is not None else (fires[0].year if fires else 0),
        n_fires=len(fires),
        in_perimeter_mask=mask,
        per_fire_counts=per_fire,
        per_fire_hits=hits_map,
    )


def classify_cells(cells: CellUniverse, whp: IntensitySurface, *,
                   workers: int | None = None,
                   chunk_size: int | None = None,
                   use_cache: bool | None = None) -> np.ndarray:
    """WHP class code per transceiver (vectorized raster sampling).

    Sharded over the persistent worker pool for very large universes and
    memoized like :func:`overlay_fires`; the sampling itself is exact
    per point, so every path returns identical codes.
    """
    cfg = get_config()
    if workers is None:
        workers = cfg.workers
    if chunk_size is None:
        chunk_size = cfg.chunk_size
    if use_cache is None:
        use_cache = cfg.cache_enabled

    key = None
    if use_cache:
        key = cache_key(b"classify_cells/v1", cells.content_token(),
                        whp.content_token())
        entry = get_cache().get(key)
        if entry is not None:
            return entry["classes"]

    with trace_span("classify_cells", n_points=len(cells)) as sp:
        with STATS.timer("classify_cells"):
            eff_workers = classify_workers(workers, len(cells),
                                           chunk_size)
            sp.set(workers=eff_workers)
            classes = None
            if eff_workers > 1:
                spans = chunk_spans(len(cells), chunk_size)
                token = cells.content_token() + whp.content_token()
                initializer, initargs = _init_classify_worker, \
                    (cells.lons, cells.lats, whp)
                if use_shared_memory(len(cells)):
                    handle = _shared_handle(cells)
                    if handle is not None:
                        initializer, initargs = \
                            _init_classify_worker_shm, (handle, whp)
                results = run_tasks(
                    "classify", eff_workers, token, _classify_task,
                    spans, initializer=initializer, initargs=initargs)
                if results is not None:
                    for _, delta in results:
                        STATS.merge(delta)
                    classes = np.concatenate([c[0] for c in results])
            if classes is None:
                classes = whp.classify(cells.lons, cells.lats)

    if use_cache and key is not None:
        get_cache().put(key, {"classes": classes})
    return classes


# ----------------------------------------------------------------------
# Session artifacts: the two shared primitives of the analysis DAG.
# Every analysis that needs the WHP classification or a season's
# perimeter join fetches these through the session, so each is invoked
# exactly once per session regardless of how many stages consume it.
# The wrappers call the module-level functions by name (late-bound), so
# tests can spy on `overlay.classify_cells` / `overlay.overlay_fires`.
# ----------------------------------------------------------------------

@artifact("whp_classes",
          doc="intensity class code per transceiver (classify_cells)")
def _whp_classes_artifact(session, hazard: str = "wildfire") \
        -> np.ndarray:
    from ..hazard.registry import get_hazard
    universe = session.universe
    # The wildfire instance returns universe.whp itself, so the default
    # parameterization is byte-identical to the pre-protocol builder.
    surface = get_hazard(hazard).intensity(universe)
    return classify_cells(universe.cells, surface)


@artifact("season_overlay",
          doc="one year's transceiver x hazard-event join")
def _season_overlay_artifact(session, year: int = 2019,
                             hazard: str = "wildfire") \
        -> FireOverlayResult:
    from ..hazard.registry import get_hazard
    universe = session.universe
    # For "wildfire" the event list is the season's own fires list
    # object, keeping the per-fire digest memo and cache keys intact.
    events = get_hazard(hazard).event_set(universe, year).events
    return overlay_fires(universe.cells, events, year=year)


def _run_season_overlay(session, args) -> str:
    from ..core.report import render_season_overlay
    from ..hazard.registry import get_hazard
    hazard = getattr(args, "hazard", None) or "wildfire"
    try:
        get_hazard(hazard)
    except KeyError as exc:
        raise SystemExit(f"repro season_overlay: {exc.args[0]}")
    result = session.artifact("season_overlay",
                              year=getattr(args, "year", None) or 2019,
                              hazard=hazard)
    return render_season_overlay(result)


# Direct CLI surface for the raw event join (the paper-scale smoke
# job drives it standalone).  ``order=None`` keeps it out of
# ``repro all`` — the historical sweep already covers every season.
register_stage("season_overlay",
               help="one season's raw hazard-event join",
               paper="§2.3", artifact="season_overlay",
               render="render_season_overlay", order=None,
               domain="engine", run=_run_season_overlay,
               options=(StageOption("--year", type=int, default=2019),
                        StageOption("--hazard", type=str,
                                    default="wildfire",
                                    help="hazard instance to join "
                                         "(wildfire/grid_fire/wind)")),
               params=("year", "hazard"))


# ----------------------------------------------------------------------
# Cache payload encoding
# ----------------------------------------------------------------------

def _encode_overlay(result: FireOverlayResult) -> dict:
    names = list(result.per_fire_counts)
    entry = {
        "mask": result.in_perimeter_mask,
        "counts": np.array([result.per_fire_counts[n] for n in names],
                           dtype=np.int64),
        "names": np.array(names, dtype=np.str_),
        "meta": np.array([result.year, result.n_fires], dtype=np.int64),
    }
    if result.per_fire_hits is not None:
        # Footprints concatenated in name order; the counts array is
        # the split table (each fire's hit count == its footprint len).
        hits = [result.per_fire_hits[n] for n in names]
        entry["hits"] = np.concatenate(hits) if hits \
            else np.empty(0, dtype=np.int64)
    return entry


def _decode_overlay(entry: dict) -> FireOverlayResult:
    names = [str(n) for n in entry["names"]]
    counts = entry["counts"]
    hits_map = None
    if "hits" in entry:
        pieces = np.split(np.asarray(entry["hits"], dtype=np.int64),
                          np.cumsum(counts)[:-1])
        hits_map = dict(zip(names, pieces))
    return FireOverlayResult(
        year=int(entry["meta"][0]),
        n_fires=int(entry["meta"][1]),
        in_perimeter_mask=np.asarray(entry["mask"], dtype=bool),
        per_fire_counts={n: int(c) for n, c in zip(names, counts)},
        per_fire_hits=hits_map,
    )
