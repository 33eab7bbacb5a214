"""Fault-injection and recovery tests for the result cache.

The recovery matrix, exercised through the deterministic harness in
:mod:`repro.runtime.faults`:

* fault plans parse strictly, and their decisions are reproducible;
* corrupt cache entries are quarantined, recomputed, and counted;
* failed cache writes are counted and skipped;
* every recovery lands in the process-global :class:`FailureReport`.
"""

import numpy as np
import pytest

import repro.runtime as runtime
from repro.factorization.nmf import nmf_restart_specs
from repro.runtime.cache import ResultCache
from repro.runtime.executor import failure_report, run_nmf_fits
from repro.runtime.faults import (
    FaultPlan,
    active_fault_plan,
    fault_plan_from_env,
    parse_fault_plan,
    set_fault_plan,
)


@pytest.fixture(autouse=True)
def _isolated_runtime(monkeypatch):
    """Fresh metrics/cache/report and a disarmed fault plan per test."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    runtime.reset()
    set_fault_plan(None)
    yield
    runtime.reset()
    set_fault_plan(None)


# -- plan parsing and decisions ----------------------------------------------


class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = parse_fault_plan("seed=7,cache_corrupt=0.05,disk_error=0.1")
        assert plan.seed == 7
        assert plan.cache_corrupt == 0.05
        assert plan.disk_error == 0.1
        assert plan == FaultPlan(seed=7, cache_corrupt=0.05, disk_error=0.1)

    def test_unknown_key_rejected(self):
        # A stale chaos plan naming a deleted site fails loudly too.
        for text in (
            "seed=1,typo_rate=0.5",
            "seed=1,pool_crash=0.1",
            "seed=1,task_error=0.1",
            "seed=1,only_first_attempt=1",
        ):
            with pytest.raises(ValueError, match="unknown fault plan key"):
                parse_fault_plan(text)

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="not numeric"):
            parse_fault_plan("cache_corrupt=lots")

    def test_rate_bounds_validated(self):
        with pytest.raises(ValueError, match="rate must be in"):
            FaultPlan(disk_error=1.5)

    def test_decisions_are_deterministic(self):
        plan = FaultPlan(seed=3, cache_corrupt=0.5)
        decisions = [
            plan.should("cache_corrupt", token=f"key{i}") for i in range(64)
        ]
        again = [
            plan.should("cache_corrupt", token=f"key{i}") for i in range(64)
        ]
        assert decisions == again
        assert any(decisions) and not all(decisions)  # rate 0.5 mixes

    def test_env_activation_and_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=9,disk_error=0.2")
        env_plan = fault_plan_from_env()
        assert env_plan is not None and env_plan.seed == 9
        assert active_fault_plan() == env_plan
        configured = FaultPlan(seed=1)
        set_fault_plan(configured)
        assert active_fault_plan() == configured  # configure() wins

    def test_malformed_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "cache_corrupt=not-a-rate")
        with pytest.raises(ValueError):
            fault_plan_from_env()


# -- failure report ----------------------------------------------------------


def _quarantine_one(tmp_path):
    """Read back a cache entry without metadata: it is quarantined."""
    np.savez(tmp_path / "old.npz", x=np.ones(3))
    assert ResultCache(cache_dir=tmp_path).get("old") is None


class TestFailureReport:
    def test_report_accumulates_and_serializes(self, tmp_path):
        failure_report().add(
            "sanitizer.long_hold", error=RuntimeError("held 2.0s"),
            detail="service.family",
        )
        _quarantine_one(tmp_path)
        report = failure_report()
        assert report and len(report) == report.to_dict()["n_events"] == 2
        data = report.to_dict()
        assert data["counts"] == {
            "sanitizer.long_hold": 1, "cache_quarantined": 1,
        }
        assert data["events"][0] == {
            "kind": "sanitizer.long_hold",
            "error": "RuntimeError('held 2.0s')",
            "detail": "service.family",
        }
        assert "old.npz" in data["events"][1]["detail"]
        assert "cache_quarantined" in report.to_json()

    def test_summary_includes_failures(self, tmp_path):
        _quarantine_one(tmp_path)
        assert "event(s)" in runtime.summary()

    def test_reset_clears_report(self):
        failure_report().add("cache_quarantined")
        runtime.reset()
        assert not failure_report()


# -- cache integrity ---------------------------------------------------------


class TestCacheIntegrity:
    def test_truncated_entry_quarantined_and_recomputed(self, tmp_path):
        rng = np.random.default_rng(2)
        a = np.abs(rng.standard_normal((15, 12)))
        specs = nmf_restart_specs(a, 2, seed=1, n_restarts=2)
        cache = ResultCache(cache_dir=tmp_path)
        first = run_nmf_fits(a, specs, cache=cache)
        entries = sorted(tmp_path.glob("*.npz"))
        assert len(entries) == 2
        data = entries[0].read_bytes()
        entries[0].write_bytes(data[: len(data) // 2])

        reborn = ResultCache(cache_dir=tmp_path)
        second = run_nmf_fits(a, specs, cache=reborn)
        for x, y in zip(first, second):
            assert np.array_equal(x["w"], y["w"])
        assert reborn.stats.quarantined == 1
        assert reborn.stats.disk_hits == 1  # the intact entry still serves
        assert runtime.metrics.get("cache.quarantined") == 1
        # The corrupt bytes were moved aside as evidence (not destroyed);
        # the path now holds the freshly recomputed entry.
        qdir = tmp_path / "quarantine"
        assert qdir.is_dir() and len(list(qdir.glob("*.npz"))) == 1
        assert ResultCache(cache_dir=tmp_path).get(entries[0].stem) is not None
        assert failure_report().counts.get("cache_quarantined", 0) == 1

    def test_tampered_payload_fails_checksum(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put("key", {"x": np.ones(4)})
        raw = dict(np.load(cache._disk_path("key")))
        raw["x"] = raw["x"] * 2  # valid npz, wrong bytes
        np.savez(cache._disk_path("key"), **raw)
        cache.clear()
        assert cache.get("key") is None
        assert cache.stats.quarantined == 1

    def test_legacy_entry_without_metadata_quarantined(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        np.savez(tmp_path / "old.npz", x=np.ones(3))
        assert cache.get("old") is None
        assert cache.stats.quarantined == 1

    def test_reserved_bundle_keys_rejected(self):
        cache = ResultCache()
        with pytest.raises(ValueError, match="reserved"):
            cache.put("k", {"__checksum__": np.ones(1)})

    def test_no_cwd_probe_without_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        np.savez(tmp_path / "sneaky.npz", x=np.ones(1))
        cache = ResultCache()  # no disk layer
        assert "sneaky" not in cache
        assert cache.get("sneaky") is None
        with pytest.raises(ValueError, match="disk layer is disabled"):
            cache._disk_path("sneaky")

    def test_clear_sweeps_tmp_and_quarantine(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put("keep", {"x": np.ones(2)})
        (tmp_path / ".tmp-orphan.npz").write_bytes(b"torn write")
        qdir = tmp_path / "quarantine"
        qdir.mkdir()
        (qdir / "bad.npz").write_bytes(b"junk")
        cache.clear(disk=True)
        assert not list(tmp_path.rglob("*.npz"))

    def test_injected_disk_error_counts_write_failure(self, tmp_path):
        set_fault_plan("seed=1,disk_error=1.0")
        cache = ResultCache(cache_dir=tmp_path)
        cache.put("k", {"x": np.ones(2)})
        assert not list(tmp_path.glob("*.npz"))
        assert runtime.metrics.get("cache.disk_write_error") == 1
        assert runtime.metrics.get("faults.disk_error") == 1

    def test_injected_corruption_detected_on_read(self, tmp_path):
        set_fault_plan("seed=1,cache_corrupt=1.0")
        cache = ResultCache(cache_dir=tmp_path)
        cache.put("k", {"x": np.ones(2)})
        cache.clear()  # drop memory; disk entry was truncated post-write
        assert cache.get("k") is None
        assert cache.stats.quarantined == 1
        assert runtime.metrics.get("faults.cache_corrupt") == 1
