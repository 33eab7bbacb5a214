"""Performance P4 — one batched NMF call vs. one engine call per restart.

Every consensus matrix, cophenetic profile, stability score, and flavor
split is a pile of small same-shape NMF restarts.  This bench measures
what stacking buys in :mod:`repro.factorization.kernels` at exactly that
scale — a 64-restart batch on a family-sized course×tag matrix (the
shape ``consensus_matrix``/``analyze_flavors`` factor hundreds of times):

* one batched call must be ≥ 3x faster than 64 one-restart calls of the
  same engine for both HALS and MU, with **bit-identical** bundles,
* a dense input of ``CSR_MIN_ELEMENTS`` elements or more must fit on its
  CSR: the bits of the explicit CSR input, never materializing a dense
  ``n x m`` residual (``kernel.dense_residual_evals`` stays 0),
* at the course x tag shapes the benchmark workloads fit, the routed,
  explicit-CSR and dense times are recorded; on the one shape past the
  threshold (the ``serve-mixed`` corpus behind ``/typing``) the routed
  fit must be ≥ 2x faster than the dense one.

Timings land in ``BENCH_nmf_kernels.json`` to seed the perf trajectory.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np
import pytest
import scipy.sparse

import repro.runtime as runtime
from repro.factorization import kernels
from repro.factorization.kernels import CSR_MIN_ELEMENTS, batched_nmf_fits
from repro.factorization.nmf import NMF, nmf_restart_specs
from repro.runtime import run_nmf_fits

# Family-scale problem: ~12 courses x ~150 active curriculum tags, k=3,
# the hot shape behind Figures 5/7 and the k-sweep.
N_COURSES, N_TAGS, K = 12, 150, 3
N_RESTARTS = 64
SPEEDUP_FLOOR = 3.0

#: (name, shape, share of ones, k, restarts) of the course x tag fits the
#: benchmark workloads run — the ``serve-mixed`` corpus (``/typing``) and
#: its DS and CS1 families, the ``report`` corpus and the canonical 20
#: courses — as random 0/1 matrices of the same shape and density.  Only
#: the first is past ``CSR_MIN_ELEMENTS``; the others show what the route
#: leaves alone.
WORKLOAD_SHAPES = [
    ("serve_corpus", (373, 755), 0.085, 4, 2),
    ("serve_ds", (137, 692), 0.119, 3, 2),
    ("report_corpus", (100, 710), 0.096, 4, 4),
    ("serve_cs1", (98, 641), 0.084, 3, 2),
    ("canonical", (20, 496), 0.143, 4, 4),
]
#: Least routed-over-dense speedup on a shape past the threshold.
ROUTE_FLOOR = 2.0

_RESULTS: dict[str, dict] = {}
_OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_nmf_kernels.json"


def _family_matrix(seed: int = 23) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((N_COURSES, N_TAGS)) < 0.12).astype(float)


def _time(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time — robust to scheduler noise."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _assert_bit_equal(got, want):
    for g, s in zip(got, want):
        for key in ("w", "h", "err", "n_iter", "converged"):
            assert np.array_equal(np.asarray(g[key]), np.asarray(s[key])), key


def _flush():
    _OUT.write_text(json.dumps(
        {
            "bench": "nmf_kernels",
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cases": _RESULTS,
        },
        indent=2,
        sort_keys=True,
    ) + "\n")


def _run_case(solver: str) -> None:
    runtime.reset()
    a = _family_matrix()
    specs = nmf_restart_specs(
        a, K, seed=7, solver=solver, n_restarts=N_RESTARTS, max_iter=200
    )

    def one_per_restart():
        return [batched_nmf_fits(a, [spec])[0] for spec in specs]

    batched = run_nmf_fits(a, specs, use_cache=False)
    _assert_bit_equal(batched, one_per_restart())  # equivalence first, untimed

    repeats = 3
    t_single = _time(one_per_restart, repeats)
    t_batched = _time(lambda: run_nmf_fits(a, specs, use_cache=False), repeats)
    ratio = t_single / max(t_batched, 1e-9)
    print(f"\n[{solver}] {N_RESTARTS} restarts on "
          f"{N_COURSES}x{N_TAGS}, k={K}: one call per restart "
          f"{t_single * 1e3:.0f}ms, batched {t_batched * 1e3:.0f}ms "
          f"-> {ratio:.1f}x")
    _RESULTS[f"batched_{solver}"] = {
        "shape": [N_COURSES, N_TAGS],
        "k": K,
        "restarts": N_RESTARTS,
        "per_restart_calls_s": t_single,
        "batched_s": t_batched,
        "speedup": ratio,
        "bit_identical": True,
    }
    _flush()
    assert ratio >= SPEEDUP_FLOOR, (
        f"{solver} batch only {ratio:.1f}x faster than one call per restart"
    )


def test_batched_hals_speedup():
    """64-restart HALS batch ≥ 3x one call per restart, bit-identical."""
    _run_case("hals")


def test_batched_mu_speedup():
    """64-restart MU batch ≥ 3x one call per restart, bit-identical."""
    _run_case("mu")


def test_routed_dense_input_equals_csr_and_skips_residual():
    """A dense input past the route threshold is the explicit CSR fit."""
    runtime.reset()
    rng = np.random.default_rng(31)
    n, m, k, restarts = 300, 900, 4, 8
    a = (rng.random((n, m)) < 0.03).astype(float)
    assert a.size >= CSR_MIN_ELEMENTS
    specs = nmf_restart_specs(a, k, seed=3, solver="hals", n_restarts=restarts,
                              max_iter=100)
    routed = batched_nmf_fits(a, specs)
    # Gram-trick objective only — the dense-residual counter must stay 0.
    assert runtime.metrics.get("kernel.dense_residual_evals") == 0
    assert runtime.metrics.get("kernel.gram_objective_evals") > 0
    _assert_bit_equal(routed, batched_nmf_fits(scipy.sparse.csr_array(a), specs))


def _dense_fits(a, specs):
    """``batched_nmf_fits`` of one solver group, held on the dense path."""
    params = {key: v for key, v in specs[0].items() if key not in ("W0", "H0")}
    model = NMF(**params)
    pair = (
        kernels._make_hals_step(a, model),
        lambda ws, hs: kernels._dense_errors(a, ws, hs, model.loss),
    )
    return kernels._solve_stacked(
        a, model, [s["W0"] for s in specs], [s["H0"] for s in specs], pair=pair
    )


@pytest.mark.parametrize(
    "name,shape,ones,k,restarts", WORKLOAD_SHAPES,
    ids=[w[0] for w in WORKLOAD_SHAPES],
)
def test_csr_route_at_workload_shapes(name, shape, ones, k, restarts):
    """Routed, explicit-CSR and dense times of one ``/typing``-style batch."""
    runtime.reset()
    a = (np.random.default_rng(5).random(shape) < ones).astype(float)
    asp = scipy.sparse.csr_array(a)
    specs = nmf_restart_specs(a, k, seed=7, solver="hals", n_restarts=restarts)
    routed = batched_nmf_fits(a, specs)
    dense = _dense_fits(a, specs)
    assert [int(b["n_iter"]) for b in routed] == [int(b["n_iter"]) for b in dense]

    variants = {
        "routed": lambda: batched_nmf_fits(a, specs),
        "csr": lambda: batched_nmf_fits(asp, specs),
        "dense": lambda: _dense_fits(a, specs),
    }
    # Best of 7, the variants interleaved so that host drift hits each.
    best = dict.fromkeys(variants, float("inf"))
    for _ in range(7):
        for variant, fn in variants.items():
            best[variant] = min(best[variant], _time(fn, 1))
    t_routed, t_csr, t_dense = best["routed"], best["csr"], best["dense"]
    ratio = t_dense / max(t_routed, 1e-9)
    is_routed = a.size >= CSR_MIN_ELEMENTS
    print(f"\n[{name}] {shape[0]}x{shape[1]} ({ones * 100:.1f}% ones), k={k}, "
          f"{restarts} restarts, {'routed' if is_routed else 'dense'}: "
          f"routed {t_routed * 1e3:.1f}ms, csr {t_csr * 1e3:.1f}ms, "
          f"dense {t_dense * 1e3:.1f}ms -> {ratio:.2f}x")
    _RESULTS[f"route_{name}"] = {
        "shape": list(shape),
        "ones": ones,
        "k": k,
        "restarts": restarts,
        "n_iter": [int(b["n_iter"]) for b in routed],
        "routed": is_routed,
        "routed_s": t_routed,
        "csr_s": t_csr,
        "dense_s": t_dense,
        "speedup": ratio,
    }
    _flush()
    if is_routed:
        assert ratio >= ROUTE_FLOOR, (
            f"routed fit only {ratio:.2f}x faster than dense on {shape}"
        )
