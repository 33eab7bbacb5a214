"""Robustness R1 — the price of surviving injected faults.

The fault-tolerant executor claims that recovery is *correct*
(bit-identical results under a fault plan) and *bounded* (a retry costs
one re-run of its task, not a runaway recomputation).  This bench
measures both: a clean run is compared against the same workload under
a :class:`~repro.runtime.faults.FaultPlan` of transient task errors, and
a corrupted cache directory is read back through the quarantine path.
"""

import time

import numpy as np
import pytest

import repro.runtime as runtime
from repro.factorization.nmf import nmf_restart_specs
from repro.runtime.cache import ResultCache
from repro.runtime.executor import parallel_map, run_nmf_fits
from repro.runtime.faults import parse_fault_plan


@pytest.fixture(autouse=True)
def _isolated_runtime(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_TASK_RETRIES", raising=False)
    runtime.reset()
    runtime.configure(fault_plan=None)
    yield
    runtime.configure(fault_plan=None)
    runtime.reset()


def _crunch(n):
    """A task heavy enough (~10ms) that retry bookkeeping isn't the cost."""
    acc = 0.0
    for i in range(60_000):
        acc += ((n + i) % 97) ** 0.5
    return round(acc, 6)


ITEMS = list(range(24))

PLANS = [
    ("clean", None),
    ("flaky tasks", "seed=5,task_error=0.3,only_first_attempt=1"),
]


def _run_plan(plan_text):
    runtime.reset()
    runtime.configure(fault_plan=parse_fault_plan(plan_text)
                      if plan_text else None)
    t0 = time.perf_counter()
    out = parallel_map(_crunch, ITEMS, retries=3)
    return out, time.perf_counter() - t0


def test_recovery_is_bit_identical_and_bounded():
    """Every plan yields the clean run's exact results; overhead is the
    retried tasks, not runaway recomputation."""
    baseline, t_clean = _run_plan(None)
    assert baseline == [_crunch(n) for n in ITEMS]

    rows = [("clean", "-", f"{t_clean * 1e3:.0f}ms")]
    for name, plan_text in PLANS[1:]:
        out, t_faulty = _run_plan(plan_text)
        assert out == baseline, f"plan {name!r} changed the results"
        retries = runtime.metrics.get("executor.retry")
        rows.append((name, f"{retries} retries", f"{t_faulty * 1e3:.0f}ms"))
        # Recovery cost = retried work; a generous envelope still catches
        # quadratic re-execution bugs.
        assert t_faulty < 10 * t_clean, (
            f"plan {name!r}: {t_faulty:.2f}s vs clean {t_clean:.2f}s"
        )

    print("\n--- fault recovery overhead ---")
    for name, detail, t in rows:
        print(f"{name:18s}  {detail:24s}  {t}")


def test_cache_quarantine_recovers_at_recompute_cost(tmp_path):
    """Corrupt entries cost one recompute each — never a crash, never
    silently wrong data."""
    rng = np.random.default_rng(23)
    a = np.abs(rng.standard_normal((120, 80)))
    specs = nmf_restart_specs(
        a, 4, seed=0, solver="mu", init="random", n_restarts=4,
        max_iter=80, tol=0.0,
    )
    cache_dir = tmp_path / "cache"
    cold_cache = ResultCache(cache_dir=cache_dir)
    t0 = time.perf_counter()
    cold = run_nmf_fits(a, specs, cache=cold_cache)
    t_cold = time.perf_counter() - t0

    # Truncate half the persisted entries.
    entries = sorted(cache_dir.glob("*.npz"))
    assert len(entries) == len(specs)
    for path in entries[: len(entries) // 2]:
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

    reborn = ResultCache(cache_dir=cache_dir)
    t0 = time.perf_counter()
    recovered = run_nmf_fits(a, specs, cache=reborn)
    t_recover = time.perf_counter() - t0

    n_bad = len(entries) // 2
    assert reborn.stats.quarantined == n_bad
    assert reborn.stats.disk_hits == len(specs) - n_bad
    for c, r in zip(cold, recovered):
        assert np.array_equal(c["w"], r["w"])
        assert np.array_equal(c["h"], r["h"])
    # Quarantine evidence is preserved, and the recompute re-persisted
    # healthy entries in place.
    assert len(list((cache_dir / "quarantine").glob("*.npz"))) == n_bad
    assert len(list(cache_dir.glob("*.npz"))) == len(specs)
    print(f"\ncold {t_cold * 1e3:.0f}ms, recover-from-{n_bad}-corrupt "
          f"{t_recover * 1e3:.0f}ms")
    assert t_recover < t_cold + 1.0
