"""Per-layer tracing from outside the program.

The benchmark wraps the public entry points of each layer with timing
wrappers installed from here; no span is added inside ``src/``.  A
wrapper records one span per call.  A span's *self time* is its
duration minus the durations of the wrapped calls made inside it, so
the self times of one operation sum to the part of its wall time that
some layer accounts for; the rest is reported as ``unattributed_ms``.

Wrappers are installed only for the traced pass of a ``--trace 1`` run
and removed afterwards; every end-to-end metric is measured without
them.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import pkgutil
import sys
import time

from common import median

#: ``(label, module, qualified name)`` of every wrapped entry point.
#: The label's first two dotted parts name the layer (the package
#: module the function belongs to).
SPANS = (
    ("repro.data.PopulationSurface._build",
     "repro.data.population", "PopulationSurface._build"),
    ("repro.data.build_whp", "repro.data.whp", "build_whp"),
    ("repro.data.generate_cells", "repro.data.cells", "generate_cells"),
    ("repro.data.generate_fire_season",
     "repro.data.wildfires", "generate_fire_season"),
    ("repro.data.build_counties", "repro.data.counties", "build_counties"),
    ("repro.data.build_power_grid",
     "repro.data.powergrid", "build_power_grid"),
    ("repro.data.star_polygon", "repro.data.wildfires", "star_polygon"),
    ("repro.data.PopulationSurface.population_in_polygon",
     "repro.data.population", "PopulationSurface.population_in_polygon"),
    ("repro.hazard.GridIgnitedFireHazard.ensemble_member",
     "repro.hazard.grid_fire", "GridIgnitedFireHazard.ensemble_member"),
    ("repro.hazard.ensemble_impacts",
     "repro.hazard.scenarios", "ensemble_impacts"),
    ("repro.geo.UniformGridIndex.__init__",
     "repro.geo.index", "UniformGridIndex.__init__"),
    ("repro.geo.UniformGridIndex.query_polygon",
     "repro.geo.index", "UniformGridIndex.query_polygon"),
    ("repro.geo.UniformGridIndex.query_polygon_delta",
     "repro.geo.index", "UniformGridIndex.query_polygon_delta"),
    ("repro.geo.UniformGridIndex.query_radius",
     "repro.geo.index", "UniformGridIndex.query_radius"),
    ("repro.geo.Raster.sample", "repro.geo.raster", "Raster.sample"),
    ("repro.core.overlay_fires", "repro.core.overlay", "overlay_fires"),
    ("repro.core.update_overlay", "repro.core.overlay", "update_overlay"),
    ("repro.core.classify_cells", "repro.core.overlay", "classify_cells"),
    ("repro.session.AnalysisSession.artifact",
     "repro.session", "AnalysisSession.artifact"),
    ("repro.runtime.run_tasks", "repro.runtime.pool", "run_tasks"),
    ("repro.stream.IncidentState.ingest",
     "repro.stream.incident", "IncidentState.ingest"),
)

#: Session artifacts whose build bodies get a span of their own; every
#: other artifact build is pooled under ``repro.core.artifact.other``.
ARTIFACTS = ("coverage", "population_impact", "validation",
             "power_impact", "table1")

ARTIFACT_LABELS = tuple(f"repro.core.artifact.{a}"
                        for a in ARTIFACTS + ("other",))

ALL_LABELS = tuple(label for label, _, _ in SPANS) + ARTIFACT_LABELS


class LayerTracer:
    """Self time and call count per label, from nested wrapper spans."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        # One slot per open span: wrapped-children time seen so far.
        self._children: list[float] = []

    def wrap(self, label: str, fn):
        children = self._children
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                inner = children.pop()
                self_s[label] = self_s.get(label, 0.0) + duration - inner
                calls[label] = calls.get(label, 0) + 1
                if children:
                    children[-1] += duration

        return traced


def _import_all_repro_modules() -> None:
    """Load every ``repro`` module so no later import can copy an
    unwrapped function binding."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


class Patches:
    """Installs the wrappers and restores the originals on close."""

    def __init__(self, tracer: LayerTracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Patches":
        _import_all_repro_modules()
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "repro" or name.startswith("repro.")]
        for label, module_name, qualname in SPANS:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self.tracer.wrap(label, original)
            if path:
                # A method: callers look it up on the class.
                self._set(owner, attr, wrapped)
                continue
            # A function: ``from ... import name`` copies the binding,
            # so patch every module that holds it, not just its home.
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, name, wrapped)
        # Artifact build bodies are called through their registry specs.
        from repro import session
        registry = session._ARTIFACTS
        for name, spec in list(registry.items()):
            label = ("repro.core.artifact."
                     + (name if name in ARTIFACTS else "other"))
            self._saved.append((registry, name, spec))
            registry[name] = dataclasses.replace(
                spec, build=self.tracer.wrap(label, spec.build))
        return self

    def close(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def __enter__(self) -> "Patches":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.close()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: dict, untraced_op_s: list[float],
                  extras: dict) -> dict[str, float]:
    """Per-layer metrics of one workload, per timed operation.

    ``traced`` is a worker's traced pass: ``op_s`` (operation wall
    times), ``self_s`` and ``calls`` per label, and ``counters`` (STATS
    increments over the pass).  ``untraced_op_s`` are the operation
    times of the untraced pass the tracing overhead is measured against.
    ``extras`` carries values a worker measured directly (cores,
    workers, set-up counters, the tick tail).
    """
    ops = len(traced["op_s"])
    per_op = 1.0 / ops
    out: dict[str, float] = {}
    attributed = 0.0
    for label in ALL_LABELS:
        self_s = traced["self_s"].get(label, 0.0)
        attributed += self_s
        out[f"{label}.self_ms"] = self_s * 1e3 * per_op
        out[f"{label}.calls"] = traced["calls"].get(label, 0) * per_op

    c = traced["counters"]
    out["repro.geo.pip_tests"] = c.get("index.pip_tests", 0) * per_op
    out["repro.geo.candidates"] = c.get("index.candidates", 0) * per_op
    # Delta queries skip the tests of already-answered candidates
    # (``index.pip_skipped``); counting them keeps the ratio the batch
    # query's share of tested candidates that hit.
    out["repro.geo.pip_hit_ratio"] = _ratio(
        c.get("index.pip_hits", 0),
        c.get("index.pip_tests", 0) + c.get("index.pip_skipped", 0))
    out["repro.geo.candidate_hit_ratio"] = _ratio(
        c.get("index.hits", 0), c.get("index.candidates", 0))
    out["repro.geo.raster_samples"] = c.get("raster.samples", 0) * per_op
    dirty = c.get("index.dirty_buckets", 0)
    skipped = c.get("index.skipped_buckets", 0)
    out["repro.geo.dirty_buckets"] = dirty * per_op
    out["repro.geo.skipped_buckets"] = skipped * per_op
    out["repro.geo.delta_skip_ratio"] = _ratio(skipped, dirty + skipped)
    out["repro.session.hits"] = c.get("session.hits", 0) * per_op
    out["repro.session.misses"] = c.get("session.misses", 0) * per_op
    for name in ("pool.created", "pool.reused", "pool.tasks", "shm.bytes",
                 "parallel.fallbacks", "cache.hits", "cache.misses"):
        out[f"repro.runtime.{name}"] = c.get(name, 0) * per_op
    out["repro.runtime.setup.pool.created"] = \
        extras["setup_counters"].get("pool.created", 0)
    out["repro.runtime.setup.shm.bytes"] = \
        extras["setup_counters"].get("shm.bytes", 0)
    out["repro.runtime.eff_workers"] = extras["eff_workers"]
    out["repro.runtime.cores"] = extras["cores"]
    out["repro.stream.tick_p99_ms"] = extras.get("tick_p99_ms", 0.0)
    traced_op_s = traced["op_s"]
    out["repro.obs.trace_overhead"] = (median(traced_op_s)
                                       / median(untraced_op_s))
    out["unattributed_ms"] = (sum(traced_op_s) - attributed) * 1e3 * per_op
    return out
