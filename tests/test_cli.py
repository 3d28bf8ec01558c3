"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main

ARGS = ["-n", "20000", "--whp-res", "0.1"]


def _run(*argv: str) -> str:
    buffer = io.StringIO()
    code = main([*ARGS, *argv], stream=buffer)
    assert code == 0
    return buffer.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["fig7"])
        assert args.transceivers == 60_000
        assert args.command == "fig7"

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_table1(self):
        out = _run("table1")
        assert "2018" in out and "Paper" in out

    def test_table2(self):
        assert "AT&T" in _run("table2")

    def test_table3(self):
        assert "LTE" in _run("table3")

    def test_fig5(self):
        assert "Oct 28" in _run("fig5")

    def test_fig7(self):
        out = _run("fig7")
        assert "Very High" in out and "261,569" in out

    def test_fig8(self):
        assert "CA" in _run("fig8")

    def test_fig9(self):
        assert "per 1000" in _run("fig9")

    def test_fig10(self):
        assert "Very Dense" in _run("fig10")

    def test_fig12(self):
        assert "Los Angeles" in _run("fig12")

    def test_ecoregions(self):
        assert "+240%" in _run("ecoregions")

    def test_validate(self):
        assert "accuracy" in _run("validate", "--oversample", "2")

    def test_extend(self):
        assert "->" in _run("extend")

    def test_power(self):
        assert "substations" in _run("power", "--year", "2019")

    def test_coverage(self):
        assert "coverage" in _run("coverage")

    def test_map(self):
        out = _run("map", "--figure", "6", "--width", "60")
        assert len(out.splitlines()) > 5


class TestVersionFlag:
    def test_version_prints_version_and_sha(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"repro {__version__} (")


class TestLedgerCLI:
    """The run ledger: recording, history, compare, and the gate."""

    SMALL = ["-n", "2000", "--no-cache"]

    def _ledgered(self, ledger_dir, *argv):
        buffer = io.StringIO()
        code = main(["--ledger-dir", str(ledger_dir), *argv],
                    stream=buffer)
        return code, buffer.getvalue()

    def _record_run(self, ledger_dir, *extra):
        code, out = self._ledgered(ledger_dir, *self.SMALL, *extra,
                                   "fig7")
        assert code == 0
        assert "ledger: run " in out

    def test_disabled_by_default_writes_nothing(self, tmp_path,
                                                monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        out = _run("fig7")
        assert "ledger:" not in out
        assert not (tmp_path / ".repro").exists()

    def test_run_appends_manifest_with_provenance(self, tmp_path):
        from repro import __version__
        from repro.obs import Ledger

        self._record_run(tmp_path / "led")
        (run,) = Ledger(tmp_path / "led").runs()
        assert run.kind == "cli" and run.command == "fig7"
        assert run.version == __version__
        assert run.universe["n_transceivers"] == 2000
        assert run.config["cache_enabled"] is False
        assert "cli.fig7" in run.timers
        assert run.outputs["fig7"]
        assert any(a.startswith("hazard") for a in run.artifacts)
        for rec in run.artifacts.values():
            assert len(rec["sha256"]) == 64 and rec["seconds"] >= 0

    def test_identical_runs_have_identical_checksums(self, tmp_path):
        from repro.obs import Ledger

        led = tmp_path / "led"
        self._record_run(led)
        self._record_run(led)
        a, b = Ledger(led).runs()
        assert a.outputs == b.outputs
        assert {k: v["sha256"] for k, v in a.artifacts.items()} == \
            {k: v["sha256"] for k, v in b.artifacts.items()}

    def test_history_and_compare_read_the_ledger_back(self, tmp_path):
        led = tmp_path / "led"
        self._record_run(led)
        self._record_run(led)
        code, out = self._ledgered(led, "history")
        assert code == 0
        assert "total s" in out and out.count("fig7") >= 2
        code, out = self._ledgered(led, "history", "fig7")
        assert code == 0 and "fig7 s" in out
        code, out = self._ledgered(led, "compare", "-2", "-1")
        assert code == 0
        assert "cli.fig7" in out
        assert "drift: none" in out

    def test_unwritable_ledger_dir_does_not_sink_the_run(self):
        code, out = self._ledgered("/proc/nope/led", *self.SMALL,
                                   "fig7")
        assert code == 0
        assert "Very High" in out
        assert "ledger: unwritable" in out
        assert "run not recorded" in out

    def test_missing_ledger_is_a_clean_error(self, tmp_path,
                                             monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        buffer = io.StringIO()
        assert main(["history"], stream=buffer) == 2
        assert "no ledger found" in buffer.getvalue()

    def test_gate_flags_injected_slowdown_as_regression(
            self, tmp_path, monkeypatch):
        """The acceptance scenario: a 2x slowdown injected into an
        artifact build must trip the gate, while the healthy baseline
        passes it.

        Timers read a fake clock that advances one microsecond per
        read, so every healthy timer is far below the gate's 0.05 s
        noise floor and the healthy half cannot flake on scheduler
        noise.  The injected slowdown advances the same clock.
        """
        import dataclasses
        import statistics
        import time as time_mod

        from repro import session as session_mod
        from repro.obs import Ledger

        clock = {"now": 0.0}

        def fake_perf_counter():
            clock["now"] += 1e-6
            return clock["now"]

        monkeypatch.setattr(time_mod, "perf_counter", fake_perf_counter)
        led = tmp_path / "led"
        for _ in range(3):
            self._record_run(led)
        code, out = self._ledgered(led, "gate", "--baseline", "5")
        assert code == 0 and "OK" in out

        median = statistics.median(
            r.timers["cli.fig7"] for r in Ledger(led).runs())
        spec = session_mod.get_artifact_spec("hazard")

        def slow_build(session, **params):
            clock["now"] += max(median, 0.1)
            return spec.build(session, **params)

        with monkeypatch.context() as patch:
            patch.setitem(session_mod._ARTIFACTS, "hazard",
                          dataclasses.replace(spec, build=slow_build))
            self._record_run(led)

        code, out = self._ledgered(led, "gate", "--baseline", "5")
        assert code == 1
        assert "REGRESSION" in out
        assert "cli.fig7" in out or "artifact.hazard" in out
        assert "drift" not in out.lower()

    def test_gate_flags_changed_seed_as_drift_not_regression(
            self, tmp_path):
        """The other acceptance half: different results at healthy
        speed are drift, and only --fail-on-drift makes that fatal."""
        led = tmp_path / "led"
        for _ in range(3):
            self._record_run(led)
        self._record_run(led, "--seed", "424242")

        code, out = self._ledgered(led, "gate", "--baseline", "5")
        assert code == 0
        assert "REGRESSION" not in out
        assert "drift: output fig7" in out

        code, _ = self._ledgered(led, "gate", "--baseline", "5",
                                 "--fail-on-drift")
        assert code == 1

        code, out = self._ledgered(led, "compare", "-2", "-1")
        assert code == 0
        assert "~ output fig7: content changed" in out
        assert ("~ artifact whp_classes(hazard='wildfire'): "
                "content changed") in out


class TestObservabilityFlags:
    """The --trace / --log-json / --metrics / --profile / --mem
    surfaces and the `repro trace` subcommand."""

    def test_trace_writes_chrome_trace(self, tmp_path):
        import json

        from repro import runtime

        path = tmp_path / "trace.json"
        saved = runtime.get_config()
        try:
            # --no-cache so the join bodies (and their spans) actually
            # run even when earlier tests warmed the global cache
            out = _run("--no-cache", "--trace", str(path), "fig7")
        finally:
            runtime.set_config(saved)
            runtime.set_cache(None)
        assert "Very High" in out            # the stage still renders
        assert f"-> {path}" in out
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert "stage.fig7" in names
        # one span per artifact the stage built (memo hits emit events,
        # not spans, so these appear exactly once)
        assert "artifact.whp_classes" in names
        assert "classify_cells" in names
        spans = [e for e in events if e["ph"] == "X"]
        assert all(isinstance(e["ts"], int) and isinstance(e["dur"], int)
                   for e in spans)
        assert any(e["ph"] == "M" and e["name"] == "process_name"
                   for e in events)

    def test_trace_all_one_span_per_artifact_build(self, tmp_path):
        """`repro all --trace` ships a valid trace where each artifact
        build appears exactly once per parameterization (the session
        memo guarantees a second request is a hit, not a new span)."""
        import json
        from collections import Counter

        path = tmp_path / "all.json"
        _run("--trace", str(path), "all")
        doc = json.loads(path.read_text())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        builds = Counter()
        for e in spans:
            if e["name"].startswith("artifact."):
                args = e["args"]
                params = tuple(sorted((k, v) for k, v in args.items()
                                      if k not in ("span_id", "parent_id")))
                builds[(e["name"], params)] += 1
        assert builds, "repro all must build artifacts"
        dupes = {k: n for k, n in builds.items() if n != 1}
        assert not dupes
        # every registered stage that ran got a stage span
        stage_names = {e["name"] for e in spans
                       if e["name"].startswith("stage.")}
        assert {"stage.table1", "stage.fig7", "stage.validate"} \
            <= stage_names

    def test_trace_subcommand_prints_tree(self):
        out = _run("trace", "fig7", "--min-ms", "0")
        assert "stage.fig7" in out
        assert "artifact." in out
        assert "%" in out                    # share-of-parent column

    def test_trace_subcommand_writes_out_file(self, tmp_path):
        import json

        path = tmp_path / "t.json"
        out = _run("trace", "fig7", "--out", str(path))
        assert f"-> {path}" in out
        assert json.loads(path.read_text())["traceEvents"]

    def test_log_json_streams_spans(self, tmp_path):
        import json

        path = tmp_path / "spans.jsonl"
        _run("--log-json", str(path), "fig7")
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert any(r["name"] == "stage.fig7" for r in records)
        assert all("type" in r for r in records)

    def test_metrics_exposition(self, tmp_path):
        path = tmp_path / "metrics.prom"
        _run("--metrics", str(path), "fig7")
        text = path.read_text()
        assert "# TYPE repro_stage_seconds_total counter" in text
        assert 'repro_stage_seconds_total{stage="cli.fig7"}' in text

    def test_profile_dumps_pstats(self, tmp_path):
        import pstats

        path = tmp_path / "prof.pstats"
        out = _run("--profile", str(path), "fig7")
        assert "profile: 1 stages" in out
        stats = pstats.Stats(str(path))
        assert stats.total_calls > 0

    def test_mem_flag_attaches_rss_attrs(self, tmp_path):
        import json

        path = tmp_path / "trace.json"
        _run("--mem", "--trace", str(path), "fig7")
        doc = json.loads(path.read_text())
        arts = [e for e in doc["traceEvents"]
                if e.get("name", "").startswith("artifact.")]
        assert arts
        assert any("rss_kb_after" in e["args"] for e in arts)

    def test_tracing_off_leaves_no_spans(self):
        from repro import obs

        _run("fig7")
        assert not obs.is_enabled()
