"""Robustness R1 — the price of surviving a corrupted cache.

The result cache claims that recovery from corrupt entries is *correct*
(the recomputed results are bit-identical to the originals) and
*bounded* (each corrupt entry costs one recompute, never a crash or
silently wrong data).  This bench truncates half of a persisted cache
directory and reads it back through the quarantine path.
"""

import time

import numpy as np
import pytest

import repro.runtime as runtime
from repro.factorization.nmf import nmf_restart_specs
from repro.runtime.cache import ResultCache
from repro.runtime.executor import run_nmf_fits


@pytest.fixture(autouse=True)
def _isolated_runtime(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    runtime.reset()
    runtime.configure(fault_plan=None)
    yield
    runtime.configure(fault_plan=None)
    runtime.reset()


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
