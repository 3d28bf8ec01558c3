"""The benchmark report merges ``BENCH_runtime.json`` per section."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" \
    / "conftest.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_conftest",
                                                  _CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stamp(sha):
    return {"git_sha": sha, "generated_iso": "2026-01-01T00:00:00+00:00",
            "cpu_count": 2}


def test_partial_session_keeps_other_sections(bench, tmp_path):
    path = tmp_path / "BENCH_runtime.json"
    first = bench.merge_sections(path, {"index_build": {"s": 1.0},
                                        "stream_tick": {"s": 2.0}},
                                 _stamp("aaa"))
    path.write_text(json.dumps({"sections": first}))
    second = bench.merge_sections(path, {"stream_tick": {"s": 3.0}},
                                  _stamp("bbb"))
    assert second["index_build"] == {"s": 1.0, **_stamp("aaa")}
    assert second["stream_tick"] == {"s": 3.0, **_stamp("bbb")}


@pytest.mark.parametrize("text", [None, "", "not json", "[1, 2]",
                                  '{"sections": 5}'])
def test_missing_or_malformed_file_starts_empty(bench, tmp_path, text):
    path = tmp_path / "BENCH_runtime.json"
    if text is not None:
        path.write_text(text)
    merged = bench.merge_sections(path, {"pool_reuse": {"s": 1.0}},
                                  _stamp("ccc"))
    assert merged == {"pool_reuse": {"s": 1.0, **_stamp("ccc")}}
