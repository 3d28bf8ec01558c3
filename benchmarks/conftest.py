"""Benchmark fixtures and the machine-readable timing report.

Benchmarks run at a larger scale than tests (150k transceivers,
0.05-degree WHP grid) and print each reproduced table/figure next to the
paper's numbers; the printed output is the source for EXPERIMENTS.md.

Run with::

    pytest benchmarks/ --benchmark-only -s

Every benchmark session also writes ``BENCH_runtime.json`` at the repo
root: per-stage wall times, index/cache counters, the runtime config
(workers, chunk size, cache state), and any named measurements recorded
via :func:`record_timing` — the perf trajectory future PRs diff against.
Sections merge: a session replaces only the sections it recorded, each
stamped with its own git SHA, timestamp and cpu count, and keeps the
rest of the file's sections as they were.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro import obs
from repro.data import SyntheticUS, default_universe
from repro.runtime import STATS, get_config

_SESSION_T0 = time.perf_counter()

#: Named measurements (section -> payload) merged into BENCH_runtime.json.
RUNTIME_BENCH: dict[str, dict] = {}

BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_runtime.json"


@pytest.fixture(scope="session")
def universe() -> SyntheticUS:
    """The benchmark-scale universe (built once per session)."""
    u = default_universe()
    # Touch the heavy components so individual benchmarks measure the
    # analysis, not the one-time synthetic-US construction.
    u.population
    u.whp
    u.cells
    return u


def print_result(title: str, body: str) -> None:
    """Uniform section printing for the benchmark harness."""
    print(f"\n===== {title} =====")
    print(body)


def record_timing(section: str, **payload) -> None:
    """Record a named measurement for ``BENCH_runtime.json``."""
    RUNTIME_BENCH[section] = payload


def merge_sections(path: Path, recorded: dict[str, dict],
                   stamp: dict) -> dict[str, dict]:
    """Sections of ``path``'s report with ``recorded`` merged over them.

    Each recorded section carries ``stamp`` (git SHA, timestamp, cpu
    count of the session that measured it); sections this session did
    not run keep the stamp of the session that did.  An unreadable or
    malformed file contributes no sections.
    """
    try:
        previous = json.loads(path.read_text()).get("sections")
    except (OSError, ValueError, AttributeError):
        previous = None
    merged = dict(previous) if isinstance(previous, dict) else {}
    for name, payload in recorded.items():
        merged[name] = {**payload, **stamp}
    return merged


def pytest_sessionfinish(session, exitstatus) -> None:
    """Dump the session's runtime stats as machine-readable JSON.

    Schema ``bench-runtime/2``: ISO-8601 UTC timestamp, git SHA, and
    cpu count replace the bare ``generated_unix`` float of schema 1
    (``repro history --bench`` ingests both).  The sections merge into
    the existing file (:func:`merge_sections`), so a partial session
    never erases the sections it did not run.  When a run ledger is
    armed (``REPRO_LEDGER_DIR``), the same measurements are appended
    there as a bench-kind manifest, so benchmark sessions and CLI runs
    share one perf history — the ``repro gate`` CI baseline.
    """
    cfg = get_config()
    snapshot = STATS.snapshot()
    counters = snapshot["counters"]
    generated_iso = obs.utc_now_iso()
    stamp = {"git_sha": obs.git_sha(), "generated_iso": generated_iso,
             "cpu_count": os.cpu_count() or 1}
    report = {
        "schema": "bench-runtime/2",
        **stamp,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "config": {
            "workers": cfg.workers,
            "chunk_size": cfg.chunk_size,
            "cache_enabled": cfg.cache_enabled,
            "cache_dir": str(cfg.cache_dir) if cfg.cache_dir else None,
        },
        "stages_seconds": snapshot["timers"],
        "stage_calls": snapshot["timer_calls"],
        "counters": counters,
        "cache": {
            "hits": counters.get("cache.hits", 0),
            "misses": counters.get("cache.misses", 0),
            "disk_hits": counters.get("cache.disk_hits", 0),
        },
        "sections": merge_sections(BENCH_JSON_PATH, RUNTIME_BENCH, stamp),
    }
    try:
        BENCH_JSON_PATH.write_text(json.dumps(report, indent=2,
                                              sort_keys=True) + "\n")
    except OSError:
        pass

    ledger_dir = obs.resolve_ledger_dir()
    if ledger_dir is None:
        return
    manifest = obs.RunManifest(
        run_id=obs.new_run_id(),
        kind="bench",
        command="bench",
        started=generated_iso,
        duration_s=round(time.perf_counter() - _SESSION_T0, 6),
        config=report["config"],
        timers=snapshot["timers"],
        timer_calls=snapshot["timer_calls"],
        counters=counters,
        extra={"sections": RUNTIME_BENCH,
               "exit_status": int(exitstatus)},
        **obs.environment(),
    )
    try:
        obs.Ledger(ledger_dir).append(manifest)
    except OSError:
        pass
