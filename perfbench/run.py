"""The repository benchmark: run a workload, check it, print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.

NAME is ``reproduce_all``, ``live_incident``, ``scenario_ensemble`` or
``all`` (the three in turn).  Run from anywhere; the program is
imported from ``src/`` next to this directory, and each run of it is a
fresh ``worker.py`` process.

The lines before the last are a table of the workload's metrics under
their workload names, with units and sample counts.  The last line is
one JSON object: ``correct``, ``attempted`` (operations timed),
``failed`` (output checks that failed; ``failed / attempted`` is the
error rate) and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` they are
its per-layer metrics, taken from a pass with the layer wrappers of
``layers.py`` installed, next to an untraced pass.

See README.md in this directory for the workloads, the metrics and the
baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean

from common import DEFAULT_SEED, ROOT, SRC, median, quantile
from layers import layer_metrics

WORKER = Path(__file__).resolve().parent / "worker.py"
SPEC = ROOT / "BENCHMARK.json"

#: Workload -> (operation metric, its unit, work units per operation,
#: throughput metric).  One operation is what a user of the workload
#: waits for: a ``repro all`` run, a tick, an ensemble request.
WORKLOADS = {
    "reproduce_all": ("all_s", "s", 1, "runs_per_s"),
    "live_incident": ("tick_p50_ms", "ms", 1, "ticks_per_s"),
    "scenario_ensemble": ("ensemble_s", "s", 8, "members_per_s"),
}

#: The calibration loop's time on the host ``setup_s`` and
#: ``op_mean_norm_ms`` are expressed for (about what it takes on the
#: baseline host).
CALIBRATION_REF_S = 0.020
#: Untraced-pass metrics reported with the layers: raw wall times, too
#: noisy on a shared host to bound, and the host speed.
RAW = ("setup_wall_s", "op_p50_ms", "work_per_s", "calibration_ms")

#: Set-up time is the median of this many fresh-process set-ups.
SETUP_SAMPLES = 3
#: Fewest ``repro all`` repetitions per pass, whatever ``--seconds``.
MIN_REPETITIONS = 3
#: A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 170


class BenchmarkError(Exception):
    pass


def spawn(workload: str, mode: str, seed: int, seconds: float) -> dict:
    """Run one worker process to completion and parse its result."""
    # CLI defaults: no REPRO_* environment overrides reach the program.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), workload, mode, str(seed),
             repr(float(seconds))],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} {mode} worker timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} {mode} worker exited "
                             f"{proc.returncode}")
    return json.loads(lines[-1])


def repeat(workload: str, mode: str, seed: int, seconds: float) \
        -> list[dict]:
    """Fresh-process repetitions until ``seconds`` have passed."""
    runs = []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(runs) < MIN_REPETITIONS):
        runs.append(spawn(workload, mode, seed, seconds))
    return runs


def merge_traced(runs: list[dict]) -> dict:
    """Sum the traced passes of several workers into one."""
    merged = {"op_s": [], "self_s": {}, "calls": {}, "counters": {}}
    for run in runs:
        merged["op_s"].extend(run["op_s"])
        for key in ("self_s", "calls", "counters"):
            for name, value in run["traced"][key].items():
                merged[key][name] = merged[key].get(name, 0) + value
    return merged


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Run the workers of one workload; return its samples and checks."""
    failures: list[str] = []
    if workload == "reproduce_all":
        runs = repeat(workload, "measure", seed, seconds)
        traced = repeat(workload, "traced", seed, seconds) if trace else []
        setups = runs
        # Every repetition must render the same text and repeat the
        # deterministic counters exactly.
        first = runs[0]
        for n, run in enumerate(runs + traced):
            if run["text_sha256"] != first["text_sha256"]:
                failures.append(f"repetition {n}: output differs")
            if run["counters"] != first["counters"]:
                failures.append(f"repetition {n}: counters "
                                f"{run['counters']} != {first['counters']}")
        checks = 2 * len(runs + traced)
    else:
        setups = [] if trace else [
            spawn(workload, "setup", seed, 0)
            for _ in range(SETUP_SAMPLES - 1)]
        runs = [spawn(workload, "measure", seed, seconds)]
        setups.append(runs[0])
        traced = [spawn(workload, "traced", seed, seconds)] if trace else []
        checks = 0
    for run in runs + traced:
        checks += run["checks"]
        failures.extend(run["failures"])
    op_s = [t for run in runs for t in run["op_s"]]
    return {"setups": setups, "op_s": op_s, "runs": runs,
            "traced": traced, "checks": checks, "failures": failures,
            "attempted": len(op_s) + sum(len(r["op_s"]) for r in traced)}


def end_to_end(workload: str, res: dict) -> tuple[dict, list[tuple]]:
    """End-to-end metrics, and the table rows naming them per workload."""
    op_name, op_unit, units_per_op, rate_name = WORKLOADS[workload]
    op_s = res["op_s"]
    n = len(op_s)
    scale = 1e3 if op_unit == "ms" else 1.0
    rate = units_per_op * n / sum(op_s)
    rss = median([r["rss_mb"] for r in res["runs"]])
    cal_s = [c for run in res["runs"] for c in run["calibration_s"]]
    # Mean over mean: a run's operations and its calibrations share the
    # host's slow spells, so the ratio keeps the program's own speed.
    norm = fmean(op_s) / fmean(cal_s) * CALIBRATION_REF_S
    # Each set-up is normalised by the loop timed in its own process.
    setup_wall = [r["setup_s"] for r in res["setups"]]
    setup_norm = [r["setup_s"] / fmean(r["setup_calibration_s"])
                  * CALIBRATION_REF_S for r in res["setups"]]
    metrics = {
        "setup_s": median(setup_norm),
        "setup_wall_s": median(setup_wall),
        "op_mean_norm_ms": norm * 1e3,
        "op_p50_ms": median(op_s) * 1e3,
        "work_per_s": rate,
        "calibration_ms": fmean(cal_s) * 1e3,
        "peak_rss_mb": rss,
    }
    rows = [("setup_s", metrics["setup_s"], "s", len(res["setups"])),
            ("setup_wall_s", metrics["setup_wall_s"], "s",
             len(res["setups"])),
            (op_name, median(op_s) * scale, op_unit, n),
            ("op_mean_norm_ms", metrics["op_mean_norm_ms"], "ms", n)]
    if workload == "live_incident":
        rows.append(("tick_p99_ms", quantile(op_s, 0.99) * 1e3, "ms", n))
    rows += [(rate_name, rate, "1/s", n),
             ("calibration_ms", metrics["calibration_ms"], "ms",
              len(cal_s)),
             ("peak_rss_mb", rss, "MiB", len(res["runs"])),
             ("error_rate", len(res["failures"]) / res["attempted"], "ratio",
              res["attempted"])]
    return metrics, rows


def per_layer(workload: str, res: dict) -> dict:
    traced_runs = res["traced"]
    merged = merge_traced(traced_runs)
    extras = {"cores": traced_runs[0]["cores"],
              "eff_workers": traced_runs[0]["eff_workers"],
              "setup_counters": traced_runs[0]["setup_counters"]}
    if workload == "live_incident":
        extras["tick_p99_ms"] = quantile(res["op_s"], 0.99) * 1e3
    return layer_metrics(merged, res["op_s"], extras)


def select(values: dict, declared: list[dict], prefix: str = "") -> dict:
    return {prefix + m["name"]: {"value": values[m["name"]],
                                 "unit": m["unit"]} for m in declared}


def parse_args(argv: list[str] | None,
               run_seconds: float) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC.read_text())
    args = parse_args(argv, spec["run_seconds"])
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}",
              file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = list(WORKLOADS) if args.workload == "all" \
        else [args.workload]

    metrics: dict = {}
    attempted = failed = 0
    for workload in workloads:
        try:
            res = run_workload(workload, args.seed, args.seconds,
                               bool(args.trace))
        except BenchmarkError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        values, rows = end_to_end(workload, res)
        if args.trace:
            values = {**per_layer(workload, res),
                      **{name: values[name] for name in RAW}}
        prefix = f"{workload}." if len(workloads) > 1 else ""
        metrics.update(select(values, declared, prefix))
        attempted += res["attempted"]
        failed += len(res["failures"])
        for failure in res["failures"]:
            print(f"perfbench: {workload}: check failed: {failure}",
                  file=sys.stderr)
        print(f"{workload} (seed {args.seed}, {res['checks']} checks)")
        for name, value, unit, count in rows:
            print(f"  {name:<16} {value:>12.4f} {unit:<6} n={count}")
        if args.trace:
            for name in sorted(values):
                print(f"  {name:<60} {values[name]:>14.4f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
