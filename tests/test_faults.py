"""Fault-injection and recovery tests for the fault-tolerant runtime.

The recovery matrix, exercised through the deterministic harness in
:mod:`repro.runtime.faults`:

* task bugs propagate as :class:`TaskError` immediately — no retry;
* injected transient failures recover bit-identically with retries on,
  and surface as :class:`TaskError` (original exception preserved) with
  retries off;
* corrupt cache entries are quarantined, recomputed, and counted.
"""

import numpy as np
import pytest

import repro.runtime as runtime
from repro.factorization.nmf import nmf_restart_specs
from repro.runtime.cache import ResultCache
from repro.runtime.executor import (
    TaskError,
    failure_report,
    parallel_map,
    run_nmf_fits,
    set_default_task_retries,
)
from repro.runtime.faults import (
    FaultPlan,
    InjectedTaskError,
    TransientTaskError,
    active_fault_plan,
    fault_plan_from_env,
    parse_fault_plan,
    set_fault_plan,
)


@pytest.fixture(autouse=True)
def _isolated_runtime(monkeypatch):
    """Fresh metrics/cache/report and a disarmed fault plan per test."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_TASK_RETRIES", raising=False)
    runtime.reset()
    set_fault_plan(None)
    set_default_task_retries(None)
    yield
    runtime.reset()
    set_fault_plan(None)
    set_default_task_retries(None)


def _double(x):
    return x * 2


def _boom(x):
    raise ValueError(f"bad input {x}")


def _boom_negative(x):
    if x < 0:
        raise ValueError(f"bad input {x}")
    return x


# -- plan parsing and decisions ----------------------------------------------


class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = parse_fault_plan(
            "seed=7,task_error=0.1,cache_corrupt=0.05,only_first_attempt=1"
        )
        assert plan.seed == 7
        assert plan.task_error == 0.1
        assert plan.only_first_attempt is True
        assert parse_fault_plan(plan.describe()) == plan

    def test_unknown_key_rejected(self):
        # A stale chaos plan naming a deleted site fails loudly too.
        for text in ("seed=1,typo_rate=0.5", "seed=1,pool_crash=0.1"):
            with pytest.raises(ValueError, match="unknown fault plan key"):
                parse_fault_plan(text)

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="not numeric"):
            parse_fault_plan("task_error=lots")

    def test_rate_bounds_validated(self):
        with pytest.raises(ValueError, match="rate must be in"):
            FaultPlan(task_error=1.5)

    def test_decisions_are_deterministic(self):
        plan = FaultPlan(seed=3, task_error=0.5)
        decisions = [
            plan.should("task_error", index=i, attempt=0) for i in range(64)
        ]
        again = [
            plan.should("task_error", index=i, attempt=0) for i in range(64)
        ]
        assert decisions == again
        assert any(decisions) and not all(decisions)  # rate 0.5 mixes

    def test_only_first_attempt_gates_retries(self):
        plan = FaultPlan(seed=0, task_error=1.0, only_first_attempt=True)
        assert plan.should("task_error", index=5, attempt=0)
        assert not plan.should("task_error", index=5, attempt=1)

    def test_env_activation_and_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=9,task_error=0.2")
        env_plan = fault_plan_from_env()
        assert env_plan is not None and env_plan.seed == 9
        assert active_fault_plan() == env_plan
        configured = FaultPlan(seed=1)
        set_fault_plan(configured)
        assert active_fault_plan() == configured  # configure() wins

    def test_malformed_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "task_error=not-a-rate")
        with pytest.raises(ValueError):
            fault_plan_from_env()


# -- task bugs: never retried, never masked ----------------------------------


class TestTaskBugs:
    def test_serial_task_bug_raises_task_error(self):
        with pytest.raises(TaskError) as exc_info:
            parallel_map(_boom, [1], retries=2)
        err = exc_info.value
        assert err.index == 0
        assert isinstance(err.original, ValueError)
        assert "bad input" in str(err.original)
        assert "ValueError" in err.original_traceback
        # A task bug is not transient: nothing retried.
        assert runtime.metrics.get("executor.retry") == 0
        assert runtime.metrics.get("executor.task_error") == 1

    def test_first_failing_index_reported(self):
        with pytest.raises(TaskError) as exc_info:
            parallel_map(_boom_negative, [1, 2, -3, -4])
        assert exc_info.value.index == 2  # tasks run in order


# -- injected faults: recovery matrix ----------------------------------------


class TestInjectedTaskErrors:
    PLAN = "seed=3,task_error=0.5,only_first_attempt=1"

    def test_retries_recover_bit_identically(self):
        clean = parallel_map(_double, list(range(12)))
        set_fault_plan(self.PLAN)
        faulty = parallel_map(_double, list(range(12)), retries=2)
        assert faulty == clean
        assert runtime.metrics.get("executor.retry") > 0

    def test_retries_disabled_surfaces_task_error(self):
        set_fault_plan(self.PLAN)
        with pytest.raises(TaskError) as exc_info:
            parallel_map(_double, list(range(12)), retries=0)
        assert isinstance(exc_info.value.original, InjectedTaskError)
        assert isinstance(exc_info.value.original, TransientTaskError)

    def test_serial_path_retries_too(self):
        """The default budget (2) covers a first-attempt fault."""
        set_fault_plan(self.PLAN)
        out = parallel_map(_double, list(range(12)))
        assert out == [x * 2 for x in range(12)]
        assert runtime.metrics.get("executor.retry") > 0


# -- failure report ----------------------------------------------------------


class TestFailureReport:
    def test_report_accumulates_and_serializes(self):
        set_fault_plan("seed=3,task_error=0.5,only_first_attempt=1")
        parallel_map(_double, list(range(12)), retries=2)
        report = failure_report()
        assert report and len(report) == report.to_dict()["n_events"]
        data = report.to_dict()
        assert data["counts"].get("retry", 0) >= 1
        assert all(e["kind"] for e in data["events"])
        assert "retry" in report.to_json()

    def test_summary_includes_failures(self):
        set_fault_plan("seed=3,task_error=0.5,only_first_attempt=1")
        parallel_map(_double, list(range(12)), retries=2)
        assert "event(s)" in runtime.summary()

    def test_reset_clears_report(self):
        failure_report().add("retry", task_index=0)
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
