"""Tests for the repro.runtime execution substrate.

Three invariants matter:

1. **Determinism** — every batch runs in the calling process, and a
   stacked NMF batch equals its specs fit one at a time, bit for bit.
   The analysis layers' values are pinned in ``tests/golden/analysis.json``.
2. **Cache correctness** — a repeated call returns identical arrays and
   records a hit; distinct inputs never alias.
3. **Metrics accounting** — counters and timers reflect what actually ran.
"""

import numpy as np
import pytest

import repro.runtime as runtime
from repro.factorization.nmf import nmf_restart_specs
from repro.runtime.cache import ResultCache, array_digest, content_key
from repro.runtime.executor import run_nmf_fits
from repro.runtime.metrics import MetricsRegistry


@pytest.fixture
def a():
    rng = np.random.default_rng(3)
    return np.abs(rng.standard_normal((25, 40)))


@pytest.fixture(autouse=True)
def _isolated_runtime():
    """Each test starts with fresh metrics and an empty cache."""
    runtime.reset()
    yield
    runtime.reset()


# -- determinism -------------------------------------------------------------


class TestDeterminism:
    def test_batch_parallel_equals_serial(self, a):
        """A stacked batch equals its specs fit one at a time."""
        specs = nmf_restart_specs(a, 3, seed=0, n_restarts=6)
        stacked = run_nmf_fits(a, specs, use_cache=False)
        for spec, s in zip(specs, stacked):
            (one,) = run_nmf_fits(a, [spec], use_cache=False)
            assert np.array_equal(s["w"], one["w"])
            assert np.array_equal(s["h"], one["h"])
            assert float(s["err"]) == float(one["err"])

    def test_spawned_seed_specs_are_layout_independent(self, a):
        """Seeds derived via ``SeedSequence.spawn`` fit identically whether
        their specs run as one batch or one at a time."""
        seeds = [
            int(s.generate_state(1)[0])
            for s in np.random.SeedSequence(5).spawn(4)
        ]
        specs = [
            nmf_restart_specs(a, 2, seed=s, n_restarts=1)[0] for s in seeds
        ]
        whole = run_nmf_fits(a, specs, use_cache=False)
        split = [run_nmf_fits(a, [spec], use_cache=False)[0] for spec in specs]
        for x, y in zip(whole, split):
            assert np.array_equal(x["w"], y["w"])


# -- cache -------------------------------------------------------------------


class TestCache:
    def test_second_call_hits_and_matches(self, a):
        cache = ResultCache()
        specs = nmf_restart_specs(a, 3, seed=2, n_restarts=3)
        first = run_nmf_fits(a, specs, cache=cache)
        assert cache.stats.misses == 3 and cache.stats.hits == 0
        second = run_nmf_fits(a, specs, cache=cache)
        assert cache.stats.hits == 3
        for x, y in zip(first, second):
            assert np.array_equal(x["w"], y["w"])
            assert np.array_equal(x["h"], y["h"])

    def test_hit_recorded_in_metrics(self, a):
        specs = nmf_restart_specs(a, 2, seed=0, n_restarts=1)
        run_nmf_fits(a, specs)       # global cache: miss
        run_nmf_fits(a, specs)       # hit
        stats = runtime.metrics.cache_stats()
        assert stats["hits"] >= 1 and stats["misses"] >= 1

    def test_returned_arrays_are_copies(self, a):
        cache = ResultCache()
        specs = nmf_restart_specs(a, 2, seed=0, n_restarts=1)
        first = run_nmf_fits(a, specs, cache=cache)
        first[0]["w"][:] = -1.0       # vandalize the returned copy
        second = run_nmf_fits(a, specs, cache=cache)
        assert not np.array_equal(first[0]["w"], second[0]["w"])
        assert (second[0]["w"] >= 0).all()

    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        for i in range(3):
            cache.put(f"k{i}", {"x": np.array([i])})
        assert "k0" not in cache
        assert "k1" in cache and "k2" in cache
        assert cache.stats.evictions == 1

    def test_lru_touch_on_get(self):
        cache = ResultCache(max_entries=2)
        cache.put("k0", {"x": np.array([0])})
        cache.put("k1", {"x": np.array([1])})
        cache.get("k0")               # k0 now most recent
        cache.put("k2", {"x": np.array([2])})
        assert "k0" in cache and "k1" not in cache

    def test_disk_roundtrip(self, tmp_path, a):
        specs = nmf_restart_specs(a, 2, seed=4, n_restarts=2)
        first = run_nmf_fits(a, specs, cache=ResultCache(cache_dir=tmp_path))
        reborn = ResultCache(cache_dir=tmp_path)
        second = run_nmf_fits(a, specs, cache=reborn)
        assert reborn.stats.disk_hits == 2
        for x, y in zip(first, second):
            assert np.array_equal(x["w"], y["w"])

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put("key", {"x": np.array([1.0])})
        cache.clear()                 # drop memory, keep disk
        (tmp_path / "key.npz").write_bytes(b"not a zipfile")
        assert cache.get("key") is None

    def test_disabled_cache_never_stores(self, a):
        cache = ResultCache(enabled=False)
        specs = nmf_restart_specs(a, 2, seed=0, n_restarts=1)
        run_nmf_fits(a, specs, cache=cache)
        run_nmf_fits(a, specs, cache=cache)
        assert len(cache) == 0 and cache.stats.hits == 0

    def test_content_key_sensitivity(self):
        x = np.arange(6, dtype=float).reshape(2, 3)
        base = content_key("nmf", [x], {"k": 2})
        assert content_key("nmf", [x], {"k": 2}) == base
        assert content_key("nmf", [x], {"k": 3}) != base
        assert content_key("nmf", [x + 1], {"k": 2}) != base
        assert content_key("other", [x], {"k": 2}) != base
        # type-tagged params: 1 vs 1.0 vs "1" are distinct configurations
        assert content_key("nmf", [x], {"k": 1}) != content_key(
            "nmf", [x], {"k": 1.0}
        )

    def test_array_digest_shape_sensitive(self):
        flat = np.arange(6, dtype=float)
        assert array_digest(flat) != array_digest(flat.reshape(2, 3))


# -- metrics -----------------------------------------------------------------


class TestMetrics:
    def test_counters(self):
        m = MetricsRegistry()
        m.inc("x")
        m.inc("x", 4)
        assert m.get("x") == 5
        assert m.get("never") == 0

    def test_timer_accumulates(self):
        m = MetricsRegistry()
        for _ in range(3):
            with m.timer("t"):
                pass
        snap = m.snapshot()["timers"]["t"]
        assert snap["count"] == 3
        assert snap["total_s"] >= 0
        assert snap["mean_s"] == pytest.approx(snap["total_s"] / 3)

    def test_fit_accounting(self, a):
        """One batch of N fits records N solver runs and their iterations."""
        specs = nmf_restart_specs(a, 2, seed=0, n_restarts=4)
        results = run_nmf_fits(a, specs, use_cache=False)
        m = runtime.metrics
        assert m.get("runtime.nmf_fits") == 4
        assert m.get("runtime.nmf_fits_computed") == 4
        assert m.get("nmf.fits") == 4
        total_iters = sum(int(r["n_iter"]) for r in results)
        assert m.get("nmf.iterations") == total_iters
        assert m.snapshot()["timers"]["nmf.fit"]["count"] == 4

    def test_cached_batch_computes_nothing(self, a):
        specs = nmf_restart_specs(a, 2, seed=0, n_restarts=2)
        cache = ResultCache()
        run_nmf_fits(a, specs, cache=cache)
        before = runtime.metrics.get("nmf.fits")
        run_nmf_fits(a, specs, cache=cache)
        assert runtime.metrics.get("nmf.fits") == before
        assert runtime.metrics.get("runtime.nmf_fits_computed") == 2

    def test_summary_mentions_everything(self, a):
        specs = nmf_restart_specs(a, 2, seed=0, n_restarts=2)
        run_nmf_fits(a, specs)
        run_nmf_fits(a, specs)
        text = runtime.summary()
        assert "nmf.fit" in text
        assert "cache:" in text
        assert "hit" in text

    def test_reset(self, a):
        run_nmf_fits(a, nmf_restart_specs(a, 2, seed=0, n_restarts=1))
        runtime.reset()
        assert runtime.metrics.snapshot() == {
            "counters": {}, "timers": {}, "histograms": {},
        }
        assert runtime.summary().endswith("(nothing recorded)")


# -- configuration -----------------------------------------------------------


class TestConfigure:
    def test_cache_dir_and_disable(self, tmp_path, a):
        runtime.configure(cache_dir=tmp_path)
        specs = nmf_restart_specs(a, 2, seed=0, n_restarts=1)
        try:
            run_nmf_fits(a, specs)
            assert list(tmp_path.glob("*.npz"))
            runtime.configure(cache_enabled=False)
            assert runtime.result_cache.get("anything") is None
        finally:
            runtime.configure(cache_dir=None, cache_enabled=True)

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)


# -- latency histograms (PR 8) ----------------------------------------------


class TestHistograms:
    def test_observe_and_quantiles(self):
        m = MetricsRegistry()
        for v in [0.001] * 50 + [0.010] * 40 + [0.100] * 9 + [1.0]:
            m.observe("lat", v)
        hist = m.histogram("lat")
        assert hist.count == 100
        assert hist.min_value == 0.001 and hist.max_value == 1.0
        # log-bucketed quantiles: within one bucket (~19%) of the truth
        assert hist.quantile(0.5) == pytest.approx(0.001, rel=0.25)
        assert hist.quantile(0.9) == pytest.approx(0.010, rel=0.25)
        assert hist.quantile(1.0) == pytest.approx(1.0, rel=0.25)
        assert hist.quantile(1.0) <= hist.max_value
        assert hist.mean == pytest.approx(
            (0.001 * 50 + 0.010 * 40 + 0.100 * 9 + 1.0) / 100
        )

    def test_snapshot_and_summary_include_histograms(self):
        m = MetricsRegistry()
        m.observe("lat", 0.5)
        snap = m.snapshot()
        doc = snap["histograms"]["lat"]
        assert doc["count"] == 1
        assert {"p50", "p90", "p99", "mean", "min", "max"} <= set(doc)
        assert "lat" in m.summary() and "p50" in m.summary()

    def test_latency_contextmanager(self):
        m = MetricsRegistry()
        with m.latency("op"):
            pass
        hist = m.histogram("op")
        assert hist.count == 1 and hist.max_value > 0

    def test_negative_values_clamp_to_floor(self):
        m = MetricsRegistry()
        m.observe("x", -3.0)
        hist = m.histogram("x")
        assert hist.count == 1 and hist.quantile(0.5) >= 0

    def test_histogram_returns_copy_and_reset_clears(self):
        m = MetricsRegistry()
        m.observe("x", 1.0)
        m.histogram("x").counts.clear()  # mutating the copy is harmless
        assert m.histogram("x").count == 1
        m.reset()
        assert m.histogram("x").count == 0
        assert m.snapshot()["histograms"] == {}

    def test_thread_safety_under_contention(self):
        import threading as _threading

        m = MetricsRegistry()

        def pound():
            for i in range(500):
                m.observe("shared", 0.001 * (1 + i % 7))

        threads = [_threading.Thread(target=pound) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert m.histogram("shared").count == 4000


# -- cross-process cache writers (PR 8) --------------------------------------


def _stress_bundle():
    return {
        "w": np.full((16, 3), 7.0),
        "h": np.arange(48.0).reshape(3, 16),
    }


def _cache_writer_proc(args):
    """Hammer one disk key from this process; report any wrong read."""
    cache_dir, key, n = args
    writer = ResultCache(max_entries=4, cache_dir=cache_dir)
    reader = ResultCache(max_entries=4, cache_dir=cache_dir)
    bundle = _stress_bundle()
    for _ in range(n):
        writer.put(key, bundle)
        reader.clear()  # drop the memory layer: force a disk read
        got = reader.get(key)
        if got is not None and not (
            np.array_equal(got["w"], bundle["w"])
            and np.array_equal(got["h"], bundle["h"])
        ):
            return "wrong-data"
    if reader.stats.quarantined or writer.stats.quarantined:
        return "quarantined"
    return "ok"


class TestCacheConcurrency:
    def test_cross_process_writers_of_one_key(self, tmp_path):
        """Many processes writing the *same* key concurrently: every read
        sees either a miss or the full checksummed bundle — never torn
        data, never a quarantine (tmp-write + atomic rename)."""
        from concurrent.futures import ProcessPoolExecutor

        key = "stress-key"
        args = [(str(tmp_path), key, 30)] * 4
        with ProcessPoolExecutor(max_workers=4) as pool:
            verdicts = list(pool.map(_cache_writer_proc, args))
        assert verdicts == ["ok"] * 4
        final = ResultCache(cache_dir=tmp_path)
        got = final.get(key)
        bundle = _stress_bundle()
        assert got is not None
        assert np.array_equal(got["w"], bundle["w"])
        assert np.array_equal(got["h"], bundle["h"])
        assert final.stats.quarantined == 0
        # exactly one committed file for the key; no leaked tmp files
        assert len(list(tmp_path.glob("*.npz"))) == 1
        assert not list(tmp_path.glob(".tmp-*.npz"))

    def test_same_instance_thread_stress(self, tmp_path):
        """One ResultCache shared by threads (the service configuration):
        mixed put/get/contains/len under contention stays consistent."""
        import threading as _threading

        cache = ResultCache(max_entries=8, cache_dir=tmp_path)
        bundle = _stress_bundle()
        errors = []

        def pound(widx):
            try:
                for i in range(150):
                    key = f"k{(widx + i) % 12}"
                    cache.put(key, bundle)
                    got = cache.get(key)
                    if got is not None and not np.array_equal(
                        got["w"], bundle["w"]
                    ):
                        errors.append("wrong-data")
                    key in cache
                    len(cache)
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        threads = [
            _threading.Thread(target=pound, args=(w,)) for w in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(cache) <= 8
        hits = cache.stats.hits + cache.stats.disk_hits
        assert hits > 0 and cache.stats.quarantined == 0
