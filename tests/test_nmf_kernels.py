"""Tests for the stacked NMF engine.

The load-bearing property is *bit-identity*: for identical specs the
engine must return exactly the bytes of the textbook 2-D solver loops in
``tests/oracles.py`` — same ``W``/``H``/``err``/``n_iter``/``converged``
— whether it solves a batch (:func:`batched_nmf_fits`), one estimator
fit (``NMF.fit_transform``) or a :func:`run_nmf_fits` batch of any
layout.  That is what keeps the content-addressed cache and every
downstream figure stable.
"""

import numpy as np
import pytest
import scipy.sparse

import repro.runtime as runtime
from repro.factorization import kernels
from repro.factorization.kernels import batched_nmf_fits, validate_sparse
from repro.factorization.nmf import NMF, nmf_restart_specs, nndsvd_init
from repro.runtime import run_nmf_fits
from repro.runtime.cache import ResultCache, matrix_digest
from tests.oracles import oracle_fits


@pytest.fixture(autouse=True)
def _fresh_runtime():
    runtime.reset()
    yield
    runtime.reset()


@pytest.fixture()
def binary(rng):
    """A small 0-1 course×tag-like matrix."""
    return (rng.random((9, 26)) < 0.3).astype(float)


def estimator_fits(a, specs):
    """One ``NMF.fit_transform`` per spec, in order (one-run stacks)."""
    out = []
    for spec in specs:
        params = {k: v for k, v in spec.items() if k not in ("W0", "H0")}
        model = NMF(**params)
        w = model.fit_transform(a, W0=spec.get("W0"), H0=spec.get("H0"))
        out.append(
            dict(
                w=w,
                h=model.components_,
                err=model.reconstruction_err_,
                n_iter=model.n_iter_,
                converged=model.converged_,
            )
        )
    return out


def assert_bundles_bit_equal(got, want):
    assert len(got) == len(want)
    for g, s in zip(got, want):
        for key in ("w", "h", "err", "n_iter", "converged"):
            assert np.array_equal(np.asarray(g[key]), np.asarray(s[key])), key


def assert_engine_matches_oracle(a, specs):
    """Batched (R > 1) and estimator (R = 1) fits equal the 2-D loops."""
    want = oracle_fits(a, specs)
    assert_bundles_bit_equal(batched_nmf_fits(a, specs), want)
    assert_bundles_bit_equal(estimator_fits(a, specs), want)


class TestCheckEveryValidation:
    def test_zero_raises_clear_error(self):
        with pytest.raises(ValueError, match="check_every must be >= 1"):
            NMF(2, check_every=0)

    def test_negative_raises(self):
        with pytest.raises(ValueError, match="check_every"):
            NMF(2, check_every=-3)

    def test_one_is_allowed(self, binary):
        model = NMF(2, solver="hals", init="random", seed=0, check_every=1)
        w = model.fit_transform(binary)
        assert w.shape == (9, 2)


class TestFinalErrorReuse:
    def test_converging_fit_evaluates_objective_once_per_check(self, binary):
        """``fit_transform`` must not re-derive the error it already has."""
        model = NMF(
            2, solver="hals", init="random", seed=0,
            tol=1e-3, check_every=5, max_iter=200,
        )
        model.fit_transform(binary)
        assert model.converged_
        # init eval + one eval per completed check window; converging
        # check's value is reused, so no extra final evaluation.
        evals = runtime.metrics.get("kernel.dense_residual_evals")
        assert evals == 1 + model.n_iter_ // 5

    def test_error_matches_recomputed_value(self, binary):
        model = NMF(2, solver="mu", init="random", seed=3, tol=1e-3)
        w = model.fit_transform(binary)
        assert model.converged_
        assert model.reconstruction_err_ == pytest.approx(
            float(np.linalg.norm(binary - w @ model.components_))
        )

    def test_tol_zero_still_reports_final_error(self, binary):
        model = NMF(2, solver="hals", init="random", seed=0, tol=0.0, max_iter=30)
        w = model.fit_transform(binary)
        assert not model.converged_
        assert model.reconstruction_err_ == pytest.approx(
            float(np.linalg.norm(binary - w @ model.components_))
        )


class TestNndsvdarInit:
    def test_deterministic_per_seed(self, binary):
        w1, h1 = nndsvd_init(binary, 3, variant="nndsvdar", seed=7)
        w2, h2 = nndsvd_init(binary, 3, variant="nndsvdar", seed=7)
        assert np.array_equal(w1, w2) and np.array_equal(h1, h2)

    def test_differs_across_seeds(self, binary):
        w1, _ = nndsvd_init(binary, 3, variant="nndsvdar", seed=1)
        w2, _ = nndsvd_init(binary, 3, variant="nndsvdar", seed=2)
        assert not np.array_equal(w1, w2)

    def test_fills_zeros_with_small_positives(self, binary):
        w0, h0 = nndsvd_init(binary, 3, variant="nndsvd")
        w, h = nndsvd_init(binary, 3, variant="nndsvdar", seed=0)
        assert (w >= 0).all() and (h >= 0).all()
        # zeros of the plain variant become strictly smaller than the
        # matrix mean / 100 but the nonzeros are untouched
        filled = w[w0 == 0]
        assert (filled < binary.mean() / 100.0).all()
        assert np.array_equal(w[w0 != 0], w0[w0 != 0])

    def test_usable_as_nmf_init(self, binary):
        model = NMF(3, solver="mu", init="nndsvdar", seed=4, max_iter=40)
        w = model.fit_transform(binary)
        assert (w >= 0).all()
        assert np.isfinite(model.reconstruction_err_)

    def test_sparse_input_matches_dense(self, binary):
        w_d, h_d = nndsvd_init(binary, 3, variant="nndsvdar", seed=9)
        w_s, h_s = nndsvd_init(
            scipy.sparse.csr_array(binary), 3, variant="nndsvdar", seed=9
        )
        assert np.allclose(w_d, w_s) and np.allclose(h_d, h_s)


class TestBatchedBitEquivalence:
    CONFIGS = [
        dict(solver="mu", loss="frobenius"),
        dict(solver="mu", loss="kullback-leibler"),
        dict(solver="hals", loss="frobenius"),
        dict(solver="mu", loss="frobenius", l1_reg=0.05, l2_reg=0.2),
        dict(solver="mu", loss="kullback-leibler", l1_reg=0.03),
        dict(solver="hals", loss="frobenius", l1_reg=0.01, l2_reg=0.5),
        dict(solver="hals", loss="frobenius", tol=0.0, max_iter=23),
        dict(solver="mu", loss="frobenius", tol=1e-6, check_every=3),
        dict(solver="hals", loss="frobenius", check_every=1),
    ]

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_batched_matches_serial(self, cfg, rng):
        n, m = int(rng.integers(5, 12)), int(rng.integers(8, 30))
        k = int(rng.integers(2, 5))
        a = (rng.random((n, m)) < 0.35).astype(float)
        specs = nmf_restart_specs(
            a, k, seed=int(rng.integers(1000)), n_restarts=6,
            max_iter=cfg.get("max_iter", 60), **{
                key: v for key, v in cfg.items() if key != "max_iter"
            },
        )
        assert_engine_matches_oracle(a, specs)

    def test_randomized_trials(self, rng):
        for _ in range(4):
            n, m = int(rng.integers(4, 14)), int(rng.integers(6, 25))
            k = int(rng.integers(1, 4))
            a = rng.random((n, m))
            solver = rng.choice(["mu", "hals"])
            loss = (
                rng.choice(["frobenius", "kullback-leibler"])
                if solver == "mu"
                else "frobenius"
            )
            specs = nmf_restart_specs(
                a, k, seed=int(rng.integers(1000)), solver=str(solver),
                loss=str(loss), n_restarts=4, max_iter=40,
                check_every=int(rng.integers(1, 12)),
            )
            assert_engine_matches_oracle(a, specs)

    def test_mixed_groups_preserve_spec_order(self, binary):
        """Different k interleaved — results come back in spec order."""
        specs = []
        for i in range(6):
            specs.extend(nmf_restart_specs(binary, 2 + i % 3, seed=i, n_restarts=1))
        assert_bundles_bit_equal(
            batched_nmf_fits(binary, specs), oracle_fits(binary, specs)
        )

    def test_non_custom_init_falls_back_to_serial(self, binary):
        """Specs without a pre-drawn start resolve it like a lone fit."""
        specs = [
            dict(n_components=2, solver="hals", init="nndsvda"),
            dict(n_components=2, solver="hals", init="random", seed=11),
            dict(n_components=2, solver="hals", init="random", seed=11),
        ]
        assert_engine_matches_oracle(binary, specs)

    def test_tiny_batch_budget_is_bit_equal(self, binary, monkeypatch):
        """Chunking cannot change results — runs are independent."""
        specs = nmf_restart_specs(binary, 3, seed=0, n_restarts=7)
        want = batched_nmf_fits(binary, specs)
        monkeypatch.setattr(kernels, "ELEMENT_BUDGET", 10)
        assert kernels._chunk_runs(NMF(3), 9, 26, 7, is_sparse=False) == 1
        assert_bundles_bit_equal(batched_nmf_fits(binary, specs), want)

    def test_empty_specs(self, binary):
        assert batched_nmf_fits(binary, []) == []

    def test_invalid_matrix_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            batched_nmf_fits(np.array([[1.0, -2.0]]), [dict(n_components=1)])

    def test_bad_w0_shape_rejected(self, binary):
        spec = dict(
            n_components=2, init="custom",
            W0=np.ones((3, 2)), H0=np.ones((2, binary.shape[1])),
        )
        with pytest.raises(ValueError, match="W0 must be"):
            batched_nmf_fits(binary, [spec, spec])


class TestSparsePath:
    @pytest.fixture()
    def sparse_pair(self, rng):
        a = (rng.random((30, 90)) < 0.06).astype(float)
        return a, scipy.sparse.csr_array(a)

    @pytest.mark.parametrize("solver", ["mu", "hals"])
    def test_matches_dense_batched(self, sparse_pair, solver):
        a, asp = sparse_pair
        specs = nmf_restart_specs(a, 4, seed=0, solver=solver, n_restarts=3,
                                  max_iter=60)
        dense = batched_nmf_fits(a, specs)
        for sparse_r in (batched_nmf_fits(asp, specs), estimator_fits(asp, specs)):
            for d, s in zip(dense, sparse_r):
                assert float(s["err"]) == pytest.approx(float(d["err"]), rel=1e-8)
                assert np.allclose(s["w"], d["w"], rtol=1e-6, atol=1e-9)
                assert np.allclose(s["h"], d["h"], rtol=1e-6, atol=1e-9)
                assert int(s["n_iter"]) == int(d["n_iter"])
                assert bool(s["converged"]) == bool(d["converged"])

    def test_no_dense_residual_during_sparse_solve(self, sparse_pair):
        """The Gram-trick objective must be the only error path used."""
        _, asp = sparse_pair
        specs = nmf_restart_specs(asp, 3, seed=1, solver="hals", n_restarts=2)
        batched_nmf_fits(asp, specs)
        assert runtime.metrics.get("kernel.dense_residual_evals") == 0
        assert runtime.metrics.get("kernel.gram_objective_evals") > 0

    def test_kl_sparse_raises(self, sparse_pair):
        _, asp = sparse_pair
        specs = nmf_restart_specs(
            asp, 2, seed=0, solver="mu", loss="kullback-leibler", n_restarts=2
        )
        with pytest.raises(ValueError, match="frobenius loss only"):
            batched_nmf_fits(asp, specs)
        model = NMF(2, solver="mu", loss="kullback-leibler", seed=0)
        with pytest.raises(ValueError, match="frobenius loss only"):
            model.fit_transform(asp)

    def test_nmf_fit_transform_accepts_sparse(self, sparse_pair):
        a, asp = sparse_pair
        m_sp = NMF(3, solver="hals", init="nndsvdar", seed=5, max_iter=50)
        w_sp = m_sp.fit_transform(asp)
        m_de = NMF(3, solver="hals", init="nndsvdar", seed=5, max_iter=50)
        m_de.fit_transform(a)
        assert w_sp.shape == (30, 3)
        assert m_sp.reconstruction_err_ == pytest.approx(
            m_de.reconstruction_err_, rel=1e-8
        )
        assert m_sp.n_iter_ == m_de.n_iter_

    def test_sparse_fit_single_custom_init_requires_w0_h0(self, sparse_pair):
        _, asp = sparse_pair
        with pytest.raises(ValueError, match="requires W0 and H0"):
            NMF(2, init="custom").fit_transform(asp)

    def test_validate_sparse_rejects_negative_and_nan(self):
        with pytest.raises(ValueError, match="non-negative"):
            validate_sparse(scipy.sparse.csr_array(np.array([[0.0, -1.0]])))
        with pytest.raises(ValueError, match="finite"):
            validate_sparse(scipy.sparse.csr_array(np.array([[0.0, np.nan]])))

    def test_run_nmf_fits_sparse_end_to_end_with_cache(self, sparse_pair):
        _, asp = sparse_pair
        specs = nmf_restart_specs(asp, 3, seed=2, solver="mu", n_restarts=3)
        cache = ResultCache()
        r1 = run_nmf_fits(asp, specs, cache=cache)
        computed = runtime.metrics.get("kernel.batched_runs")
        r2 = run_nmf_fits(asp, specs, cache=cache)
        assert runtime.metrics.get("kernel.batched_runs") == computed
        assert_bundles_bit_equal(r2, r1)

    def test_matrix_digest_sparse_vs_dense_distinct_but_stable(self, sparse_pair):
        a, asp = sparse_pair
        assert matrix_digest(asp) == matrix_digest(scipy.sparse.csc_array(a))
        assert matrix_digest(asp) != matrix_digest(a)


class TestKernelResolution:
    """``run_nmf_fits``' one dispatch rule: every cache miss of a batch
    runs through the in-process stacked engine."""

    def test_invalid_argument_raises(self, binary):
        specs = nmf_restart_specs(binary, 2, seed=1, n_restarts=2)
        for kernel in ("serial", "online", "auto", "warp-speed"):
            with pytest.raises(ValueError, match="kernel"):
                run_nmf_fits(binary, specs, kernel=kernel)
        assert_bundles_bit_equal(
            run_nmf_fits(binary, specs, kernel="batched", use_cache=False),
            run_nmf_fits(binary, specs, use_cache=False),
        )

    def test_run_nmf_fits_strategies_agree(self, binary):
        """Dense ``run_nmf_fits`` equals the oracle loops, and a batch
        split across calls equals the whole batch."""
        specs = nmf_restart_specs(binary, 3, seed=6, n_restarts=4)
        whole = run_nmf_fits(binary, specs, use_cache=False)
        assert_bundles_bit_equal(whole, oracle_fits(binary, specs))
        halves = run_nmf_fits(binary, specs[:2], use_cache=False)
        halves += run_nmf_fits(binary, specs[2:], use_cache=False)
        assert_bundles_bit_equal(halves, whole)

    def test_cache_is_strategy_oblivious(self, binary):
        """A bundle cached by one batch is a hit in any other batch."""
        specs = nmf_restart_specs(binary, 2, seed=8, n_restarts=3)
        cache = ResultCache()
        run_nmf_fits(binary, specs, cache=cache)
        before = runtime.metrics.get("nmf.fits")
        out = [run_nmf_fits(binary, [spec], cache=cache)[0] for spec in specs]
        assert cache.stats.hits == len(specs)
        assert runtime.metrics.get("nmf.fits") == before
        assert_bundles_bit_equal(out, oracle_fits(binary, specs))
