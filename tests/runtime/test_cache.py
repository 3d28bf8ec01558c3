"""Tests for the content-addressed result cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import (
    ResultCache,
    RuntimeConfig,
    array_token,
    cache_key,
    configure,
    get_cache,
    get_config,
    set_cache,
    set_config,
)
from repro.runtime.stats import STATS


@pytest.fixture(autouse=True)
def _isolate_global_cache():
    """Never leak a test cache (or config) into other tests."""
    previous = get_config()
    yield
    set_config(previous)
    set_cache(None)


class TestKeys:
    def test_deterministic(self):
        a = np.arange(10, dtype=float)
        assert cache_key(b"x", a, 3, "s") == cache_key(b"x", a, 3, "s")

    def test_sensitive_to_array_content(self):
        a = np.arange(10, dtype=float)
        b = a.copy()
        b[3] += 1e-9
        assert cache_key(a) != cache_key(b)

    def test_sensitive_to_dtype_and_shape(self):
        a = np.zeros(4, dtype=np.float64)
        assert cache_key(a) != cache_key(a.astype(np.float32))
        assert cache_key(a) != cache_key(a.reshape(2, 2))

    def test_sensitive_to_scalar_params(self):
        base = (b"overlay", np.arange(5))
        assert cache_key(*base, 2018) != cache_key(*base, 2019)
        assert cache_key(*base, 0.1) != cache_key(*base, 0.05)

    def test_nested_structure_is_flattened_unambiguously(self):
        assert cache_key((1, 2), 3) != cache_key(1, (2, 3))

    def test_array_token_differs_from_bytes_of_other_dtype(self):
        a = np.array([1, 2, 3], dtype=np.int64)
        b = np.array([1, 2, 3], dtype=np.int32)
        assert array_token(a) != array_token(b)


class TestResultCache:
    def test_memory_round_trip(self):
        cache = ResultCache(max_entries=8)
        payload = {"mask": np.array([True, False]),
                   "counts": np.array([4], dtype=np.int64)}
        cache.put("k", payload)
        got = cache.get("k")
        assert got is not None
        assert (got["mask"] == payload["mask"]).all()
        assert (got["counts"] == payload["counts"]).all()

    def test_miss_returns_none_and_counts(self):
        cache = ResultCache(max_entries=8)
        before = STATS.get("cache.misses")
        assert cache.get("absent") is None
        assert STATS.get("cache.misses") == before + 1

    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        for name in ("a", "b", "c"):
            cache.put(name, {"x": np.array([1])})
        assert cache.get("a") is None       # evicted, oldest
        assert cache.get("b") is not None
        assert cache.get("c") is not None

    def test_get_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", {"x": np.array([1])})
        cache.put("b", {"x": np.array([2])})
        cache.get("a")                       # 'a' is now most recent
        cache.put("c", {"x": np.array([3])})
        assert cache.get("b") is None
        assert cache.get("a") is not None

    def test_disk_round_trip_across_instances(self, tmp_path):
        payload = {"mask": np.arange(32) % 3 == 0,
                   "names": np.array(["Kincade", "Tick"], dtype=np.str_)}
        ResultCache(max_entries=4, disk_dir=tmp_path).put("k", payload)
        fresh = ResultCache(max_entries=4, disk_dir=tmp_path)
        got = fresh.get("k")
        assert got is not None
        assert (got["mask"] == payload["mask"]).all()
        assert list(got["names"]) == ["Kincade", "Tick"]

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        (tmp_path / "bad.npz").write_bytes(b"not a zipfile")
        cache = ResultCache(max_entries=4, disk_dir=tmp_path)
        assert cache.get("bad") is None

    def test_clear_disk(self, tmp_path):
        cache = ResultCache(max_entries=4, disk_dir=tmp_path)
        cache.put("k", {"x": np.array([1])})
        assert list(tmp_path.glob("*.npz"))
        cache.clear(disk=True)
        assert not list(tmp_path.glob("*.npz"))
        assert cache.get("k") is None

    def test_zero_entries_disables_memory_tier(self):
        cache = ResultCache(max_entries=0)
        cache.put("k", {"x": np.array([1])})
        assert len(cache) == 0


class TestGlobalWiring:
    def test_get_cache_built_from_config(self, tmp_path):
        configure(cache_dir=tmp_path, memory_cache_entries=5)
        set_cache(None)
        cache = get_cache()
        assert cache.disk_dir == tmp_path
        assert cache.max_entries == 5

    def test_config_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "6")
        monkeypatch.setenv("REPRO_CHUNK", "1000")
        monkeypatch.setenv("REPRO_CACHE", "off")
        cfg = RuntimeConfig.from_env()
        assert cfg.workers == 6
        assert cfg.chunk_size == 1000
        assert cfg.cache_enabled is False

    def test_config_env_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        assert RuntimeConfig.from_env().workers == 1

    def test_effective_workers_gates_small_inputs(self):
        cfg = RuntimeConfig(workers=8, chunk_size=1000)
        assert cfg.effective_workers(100) == 1
        assert cfg.effective_workers(1_000_000) == 8
        # never more workers than chunks
        assert cfg.effective_workers(10_000) == 8 or \
            cfg.effective_workers(10_000) == 10  # 10 chunks cap
        assert RuntimeConfig(workers=1).effective_workers(10**7) == 1

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            RuntimeConfig(chunk_size=0)
        with pytest.raises(ValueError):
            RuntimeConfig(memory_cache_entries=-1)


class TestOverlayCacheSemantics:
    def test_disabled_cache_never_stores(self, universe):
        from repro.core.overlay import overlay_fires

        set_cache(ResultCache(max_entries=8))
        fires = universe.fire_season(2018).fires
        overlay_fires(universe.cells, fires, year=2018, workers=1,
                      use_cache=False)
        assert len(get_cache()) == 0

    def test_key_distinguishes_universes(self):
        from repro.core.overlay import fires_token
        from tests.runtime.test_differential import (
            random_fires,
            random_universe,
        )

        fires = random_fires(0, 2)
        k1 = cache_key(b"overlay_fires/v1",
                       random_universe(0, 500).content_token(),
                       fires_token(fires), 2018)
        k2 = cache_key(b"overlay_fires/v1",
                       random_universe(1, 500).content_token(),
                       fires_token(fires), 2018)
        k3 = cache_key(b"overlay_fires/v1",
                       random_universe(0, 501).content_token(),
                       fires_token(fires), 2018)
        assert len({k1, k2, k3}) == 3

    def test_fires_token_tracks_content(self):
        """Stable across calls and equal content; changes with any
        name, year or vertex, and with how rings split between fires."""
        import dataclasses

        from repro.core.overlay import fire_table, fires_token
        from repro.geo.geometry import MultiPolygon, Polygon
        from tests.runtime.test_differential import random_fires

        fires = random_fires(3, 3)
        token = fires_token(fires)
        assert fires_token(fires) == token
        assert fires_token(list(fires)) == token
        assert fires_token(fires, fire_table(fires)) == token
        assert fires_token(random_fires(3, 3)) == token

        def swapped(i, **changes):
            out = list(fires)
            out[i] = dataclasses.replace(fires[i], **changes)
            return out

        ring = fires[1].polygon.exterior.copy()
        ring[4, 1] += 1e-9
        variants = [
            fires[:-1],
            fires[::-1],
            swapped(0, name=fires[0].name + "x"),
            swapped(2, year=fires[2].year + 1),
            swapped(1, polygon=Polygon.from_ccw_ring(ring)),
            # Same rings and vertices, split differently between fires.
            [dataclasses.replace(fires[0], polygon=MultiPolygon(
                [fires[0].polygon, fires[1].polygon])), fires[2]],
            swapped(1, polygon=Polygon(fires[1].polygon.exterior,
                                       holes=[fires[2].polygon.exterior])),
        ]
        tokens = {fires_token(v) for v in variants}
        assert token not in tokens and len(tokens) == len(variants)

    def test_universe_and_whp_tokens_memoized(self, universe):
        cells = universe.cells
        assert cells.content_token() is cells.content_token()
        assert universe.whp.content_token() is universe.whp.content_token()
