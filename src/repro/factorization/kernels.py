"""The NMF engine: batched, sparse-aware stacked updates.

Every analysis in the pipeline — consensus matrices, cophenetic k-sweeps,
stability scores, flavor typing — runs hundreds of *small* NMF restarts
against one shared matrix.  Executing them one at a time wastes most of
the wall time on per-call NumPy dispatch; this module fuses a whole
restart batch into stacked ``(R, n, k)`` / ``(R, k, m)`` tensors and
advances **all runs at once** with broadcasted ``matmul`` updates.  It is
the only NMF solver in the package: :meth:`NMF.fit_transform
<repro.factorization.nmf.NMF.fit_transform>` solves a one-run stack,
:func:`batched_nmf_fits` stacks a batch, and the out-of-core solver in
:mod:`repro.factorization.outofcore` reads a memory-mapped ``A`` into a
CSR and hands it to :func:`batched_nmf_fits`.

Guarantees and mechanics:

* **Bit-identical results.**  On the dense path every stacked operation
  is chosen so that each run's slice goes through the exact
  floating-point op sequence of the textbook 2-D solver loop (stacked
  ``matmul`` executes one BLAS GEMM per slice with the same operands;
  elementwise ops are per-element identical; convergence checks
  evaluate the same dense objective per run).  On the sparse path each
  run's SpMM columns and Gram-trick sums are computed independently of
  its batch-mates.  Either way ``W``, ``H``, ``err``, ``n_iter`` and
  ``converged`` are the same bits whatever the batch size or
  composition — which keeps the content-addressed result cache and all
  downstream figures stable.
* **Per-run convergence mask.**  Runs share one stopping rule (relative
  objective decrease every ``check_every`` iterations); a run that
  converges is frozen and dropped from the active batch while the
  others continue, so the batch never does more per-run work than a
  lone fit.
* **Run chunking.**  Batches are split into chunks whose scratch
  tensors fit :data:`ELEMENT_BUDGET` float64 elements, keeping
  intermediates cache-resident; chunking cannot change results because
  runs are independent.
* **Sparse-aware path.**  ``A`` may be a ``scipy.sparse`` matrix: the
  hot-loop products ``W.T @ A`` and ``A @ H.T`` become sparse matmuls
  batched through one reshaped SpMM per update, and the Frobenius
  objective is evaluated with the Gram trick ``||A||^2 - 2 tr(H'W'A) +
  tr((W'W)(HH'))`` with ``||A||^2`` cached per fit — the dense ``n x m``
  residual is never materialized.  (KL requires the dense ``WH`` and is
  rejected for sparse input.)  A dense Frobenius-loss ``A`` of
  :data:`CSR_MIN_ELEMENTS` elements or more takes this path on its CSR:
  the same bits as passing that CSR, within ulps of the dense loops.
  Smaller matrices and the KL loss stay dense.

:func:`repro.runtime.run_nmf_fits` runs all its cache misses through
one :func:`batched_nmf_fits` call, in process.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Mapping, Sequence

import numpy as np
from scipy import sparse

from repro.factorization.nmf import NMF
from repro.runtime.metrics import metrics
from repro.util.validation import check_finite, check_matrix, check_nonnegative

_EPS = np.finfo(np.float64).eps

#: Memory budget in float64 elements (~32 MB): the scratch of one solver
#: chunk here, and the rows of ``A`` resident per out-of-core row block.
ELEMENT_BUDGET = 4_000_000

#: A dense Frobenius-loss ``A`` of at least this many elements (2^17,
#: 1 MiB of float64) is fitted on its CSR.  Every matrix the program
#: builds is a 0/1 incidence with at most ~22% ones: from this size up,
#: SpMM passes over the nonzeros beat dense GEMMs over the whole array,
#: while below it CSR saves little or loses once its build and the
#: sparse call overheads are paid (``benchmarks/bench_nmf_kernels.py``
#: times both sides).
CSR_MIN_ELEMENTS = 1 << 17

Step = Callable[[np.ndarray, np.ndarray], None]
Errors = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _frobenius_error(a: np.ndarray, w: np.ndarray, h: np.ndarray) -> float:
    """``||A - WH||_F`` (not squared), the error scikit-learn reports."""
    return float(np.linalg.norm(a - w @ h))


def _kl_divergence(a: np.ndarray, w: np.ndarray, h: np.ndarray) -> float:
    """Generalized KL divergence D(A || WH), with 0 log 0 := 0."""
    wh = w @ h
    mask = a > 0
    div = float(np.sum(a[mask] * np.log(a[mask] / np.maximum(wh[mask], _EPS))))
    return div - float(a.sum()) + float(wh.sum())


# -- input handling ----------------------------------------------------------


def as_sparse_matrix(a: Any) -> sparse.csr_array:
    """Canonicalize sparse input: float64 CSR with clean duplicate-free data."""
    out = sparse.csr_array(a, dtype=np.float64)
    out.sum_duplicates()
    return out


def validate_sparse(a: Any, name: str = "A") -> sparse.csr_array:
    """Mirror the dense ``check_matrix``/``check_nonnegative``/``check_finite``."""
    arr = as_sparse_matrix(a)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.nnz:
        if float(arr.data.min()) < 0.0:
            raise ValueError(
                f"{name} must be non-negative; min entry is {arr.data.min()}"
            )
        if not np.isfinite(arr.data).all():
            raise ValueError(f"{name} must be finite (no NaN/inf)")
    return arr


def validate_input(a: Any) -> np.ndarray | sparse.csr_array:
    """The engine's view of ``A``: canonical CSR, or C-contiguous float64."""
    if sparse.issparse(a):
        return validate_sparse(a)
    return np.ascontiguousarray(check_finite(check_nonnegative(check_matrix(a))))


class _SparseOps:
    """Batched sparse products and the Gram-trick Frobenius objective.

    ``wta``/``ath`` fold the whole restart batch into a single SpMM by
    concatenating the dense factors column-wise: ``A.T @ [W_1 | ... |
    W_R]`` yields every run's ``W_r.T A`` in one pass over the nonzeros.
    """

    def __init__(self, a: sparse.csr_array) -> None:
        self.a = a
        self.at = sparse.csr_array(a.T)
        self.n, self.m = a.shape
        self.norm_sq = float(np.dot(a.data, a.data)) if a.nnz else 0.0

    def wta(self, w_stack: np.ndarray) -> np.ndarray:
        """``W_r.T @ A`` for every run: (R, n, k) -> (R, k, m)."""
        r, n, k = w_stack.shape
        wcat = w_stack.transpose(1, 0, 2).reshape(n, r * k)
        out = self.at @ wcat  # (m, R*k)
        return np.ascontiguousarray(out.reshape(self.m, r, k).transpose(1, 2, 0))

    def ath(self, h_stack: np.ndarray) -> np.ndarray:
        """``A @ H_r.T`` for every run: (R, k, m) -> (R, n, k)."""
        r, k, m = h_stack.shape
        hcat = h_stack.transpose(2, 0, 1).reshape(m, r * k)
        out = self.a @ hcat  # (n, R*k)
        return np.ascontiguousarray(out.reshape(self.n, r, k).transpose(1, 0, 2))

    def errors(self, w_stack: np.ndarray, h_stack: np.ndarray) -> np.ndarray:
        """Per-run Frobenius error via the Gram trick (no dense residual)."""
        wta = self.wta(w_stack)
        cross = (wta * h_stack).sum(axis=(1, 2))
        wtw = w_stack.transpose(0, 2, 1) @ w_stack
        hht = h_stack @ h_stack.transpose(0, 2, 1)
        gram = (wtw * hht).sum(axis=(1, 2))
        metrics.inc("kernel.gram_objective_evals", w_stack.shape[0])
        return np.sqrt(np.maximum(self.norm_sq - 2.0 * cross + gram, 0.0))


def _dense_errors(
    a: np.ndarray, w_stack: np.ndarray, h_stack: np.ndarray, loss: str
) -> np.ndarray:
    """Per-run objectives, each evaluated on its own 2-D slice.

    The slices of a C-contiguous stack have a lone 2-D factor's layout,
    so every run's error is the same bits at any batch size.
    """
    fn = _frobenius_error if loss == "frobenius" else _kl_divergence
    metrics.inc("kernel.dense_residual_evals", w_stack.shape[0])
    return np.array([fn(a, w, h) for w, h in zip(w_stack, h_stack)])


# -- masked batch driver -----------------------------------------------------


def _masked_solve(
    w_stack: np.ndarray,
    h_stack: np.ndarray,
    model: NMF,
    step: Step,
    errors: Errors,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance all runs with a per-run convergence mask.

    ``step`` applies one solver iteration in place to the active stacks;
    ``errors`` evaluates the per-run objective.  The stopping rule:
    check every ``check_every`` iterations, freeze a run once its
    relative decrease drops below ``tol``.
    Returns ``(n_iter, converged, final_err)`` per run; ``final_err``
    reuses the objective evaluated on the converging check iteration
    (the factors have not moved since) and is computed fresh only for
    runs that never converged.
    """
    runs = w_stack.shape[0]
    max_iter, tol, check_every = model.max_iter, model.tol, model.check_every
    n_iter = np.zeros(runs, dtype=np.int64)
    converged = np.zeros(runs, dtype=bool)
    final_err = np.full(runs, np.nan)
    if tol > 0:
        err_init = errors(w_stack, h_stack)
        err_prev = err_init.copy()
    active = np.arange(runs)
    it = 0
    while it < max_iter and active.size:
        full = active.size == runs
        w_act = w_stack if full else w_stack[active]
        h_act = h_stack if full else h_stack[active]
        steps = min(check_every, max_iter - it)
        for _ in range(steps):
            it += 1
            step(w_act, h_act)
        if not full:
            w_stack[active] = w_act
            h_stack[active] = h_act
        n_iter[active] = it
        if tol > 0 and it % check_every == 0:
            errs = errors(w_act, h_act)
            rel = (err_prev[active] - errs) / np.maximum(err_init[active], _EPS)
            done = rel < tol
            if done.any():
                idx = active[done]
                converged[idx] = True
                final_err[idx] = errs[done]
            err_prev[active] = errs
            active = active[~done]
    rest = np.flatnonzero(~converged)
    if rest.size:
        final_err[rest] = errors(w_stack[rest], h_stack[rest])
    return n_iter, converged, final_err


# -- solver steps ------------------------------------------------------------
#
# Each step function applies ONE solver iteration to the whole active
# batch.  The stacked matmul forms are chosen for bit-identity with the
# 2-D ops of the textbook loop: a (R, p, q) @ (R, q, s) matmul runs one
# GEMM per slice with the same operands, and scalar terms are added in
# the 2-D expression's order (left to right).


def _make_mu_frobenius_step(a: np.ndarray, model: NMF) -> Step:
    a_b = a[None]
    l1, l2 = model.l1_reg, model.l2_reg
    bufs: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}

    def step(w_act: np.ndarray, h_act: np.ndarray) -> None:
        r, n, k = w_act.shape
        m = h_act.shape[2]
        try:
            num_h, den_h, wtw, num_w, den_w, hht = bufs[(r,)]
        except KeyError:
            num_h, den_h = np.empty((r, k, m)), np.empty((r, k, m))
            num_w, den_w = np.empty((r, n, k)), np.empty((r, n, k))
            wtw, hht = np.empty((r, k, k)), np.empty((r, k, k))
            bufs.clear()  # active batches only shrink; drop stale sizes
            bufs[(r,)] = (num_h, den_h, wtw, num_w, den_w, hht)
        wt = w_act.transpose(0, 2, 1)
        # h *= (w.T @ a) / (w.T @ w @ h + l2*h + l1 + eps)
        np.matmul(wt, a_b, out=num_h)
        np.matmul(wt, w_act, out=wtw)
        np.matmul(wtw, h_act, out=den_h)
        if l2:
            den_h += l2 * h_act
        if l1:
            den_h += l1
        den_h += _EPS
        np.divide(num_h, den_h, out=num_h)
        h_act *= num_h
        ht = h_act.transpose(0, 2, 1)
        # w *= (a @ h.T) / (w @ (h @ h.T) + l2*w + l1 + eps)
        np.matmul(a_b, ht, out=num_w)
        np.matmul(h_act, ht, out=hht)
        np.matmul(w_act, hht, out=den_w)
        if l2:
            den_w += l2 * w_act
        if l1:
            den_w += l1
        den_w += _EPS
        np.divide(num_w, den_w, out=num_w)
        w_act *= num_w

    return step


def _make_mu_kl_step(a: np.ndarray, model: NMF) -> Step:
    a_b = a[None]
    l1 = model.l1_reg

    def step(w_act: np.ndarray, h_act: np.ndarray) -> None:
        # h *= (w.T @ (a / wh)) / (colsum(w) + l1 + eps)
        wh = w_act @ h_act
        wh += _EPS
        np.divide(a_b, wh, out=wh)
        den_h = w_act.sum(axis=1)[:, :, None]
        if l1:
            den_h += l1
        den_h += _EPS
        h_act *= (w_act.transpose(0, 2, 1) @ wh) / den_h
        # w *= ((a / wh) @ h.T) / (rowsum(h) + l1 + eps)
        wh = w_act @ h_act
        wh += _EPS
        np.divide(a_b, wh, out=wh)
        den_w = h_act.sum(axis=2)[:, None, :]
        if l1:
            den_w += l1
        den_w += _EPS
        w_act *= (wh @ h_act.transpose(0, 2, 1)) / den_w

    return step


def _make_hals_step(a: np.ndarray | _SparseOps, model: NMF) -> Step:
    sparse_ops = isinstance(a, _SparseOps)
    a_b = None if sparse_ops else a[None]
    l1, l2 = model.l1_reg, model.l2_reg
    k = model.n_components

    def step(w_act: np.ndarray, h_act: np.ndarray) -> None:
        wt = w_act.transpose(0, 2, 1)
        wtw = wt @ w_act
        wta = a.wta(w_act) if sparse_ops else wt @ a_b
        for j in range(k):
            # grad = wta[j] - wtw[j] @ h - l1; h[j] = max(h[j] + grad/denom, 0)
            grad = wta[:, j, :] - (wtw[:, j : j + 1, :] @ h_act)[:, 0, :]
            if l1:
                grad -= l1
            denom = wtw[:, j, j] + l2 + _EPS
            np.maximum(h_act[:, j, :] + grad / denom[:, None], 0.0,
                       out=h_act[:, j, :])
        ht = h_act.transpose(0, 2, 1)
        hht = h_act @ ht
        aht = a.ath(h_act) if sparse_ops else a_b @ ht
        for j in range(k):
            grad = aht[:, :, j] - (w_act @ hht[:, :, j : j + 1])[:, :, 0]
            if l1:
                grad -= l1
            denom = hht[:, j, j] + l2 + _EPS
            np.maximum(w_act[:, :, j] + grad / denom[:, None], 0.0,
                       out=w_act[:, :, j])

    return step


def _make_mu_frobenius_sparse_step(ops: _SparseOps, model: NMF) -> Step:
    l1, l2 = model.l1_reg, model.l2_reg

    def step(w_act: np.ndarray, h_act: np.ndarray) -> None:
        wt = w_act.transpose(0, 2, 1)
        den_h = (wt @ w_act) @ h_act
        if l2:
            den_h += l2 * h_act
        den_h += l1 + _EPS
        h_act *= ops.wta(w_act) / den_h
        ht = h_act.transpose(0, 2, 1)
        den_w = w_act @ (h_act @ ht)
        if l2:
            den_w += l2 * w_act
        den_w += l1 + _EPS
        w_act *= ops.ath(h_act) / den_w

    return step


# -- bit-exactness note: the HALS step's subtraction of ``l1`` is guarded
# by ``if l1`` — adding/subtracting an exact 0.0 is a per-element identity
# for the non-negative factors involved, so the guard cannot change bits.


def _step_pair(a: np.ndarray | sparse.csr_array, model: NMF) -> tuple[Step, Errors]:
    """The in-memory ``(step, errors)`` pair for ``model``'s solver.

    A large dense Frobenius-loss ``a`` runs on its CSR (see
    :data:`CSR_MIN_ELEMENTS`), the same bits as passing that CSR.
    """
    if (model.loss == "frobenius" and not sparse.issparse(a)
            and a.size >= CSR_MIN_ELEMENTS):
        a = as_sparse_matrix(a)
    if sparse.issparse(a):
        ops = _SparseOps(a)
        if model.solver == "mu":
            return _make_mu_frobenius_sparse_step(ops, model), ops.errors
        return _make_hals_step(ops, model), ops.errors
    if model.solver == "hals":
        step = _make_hals_step(a, model)
    elif model.loss == "frobenius":
        step = _make_mu_frobenius_step(a, model)
    else:
        step = _make_mu_kl_step(a, model)
    return step, lambda ws, hs: _dense_errors(a, ws, hs, model.loss)


def _chunk_runs(model: NMF, n: int, m: int, runs: int, *, is_sparse: bool) -> int:
    """Chunk size keeping per-chunk scratch under the element budget."""
    k = model.n_components
    if model.solver == "mu" and model.loss == "kullback-leibler":
        per_run = 2 * n * m + k * m + n * k
    elif is_sparse:
        per_run = 2 * (k * m + n * k) + k * m  # wta/ath outputs + SpMM scratch
    else:
        per_run = 3 * (k * m + n * k)
    return max(1, min(runs, ELEMENT_BUDGET // max(per_run, 1)))


def _solve_stacked(
    a: np.ndarray | sparse.csr_array,
    model: NMF,
    w0_list: Sequence[np.ndarray],
    h0_list: Sequence[np.ndarray],
    pair: tuple[Step, Errors] | None = None,
) -> list[dict[str, np.ndarray]]:
    """Solve one homogeneous group of runs, chunked to the memory budget.

    ``a`` is validated input (see :func:`validate_input`) and the starts
    are resolved; ``pair`` replaces the ``(step, errors)`` pair
    :func:`_step_pair` would choose (``benchmarks/bench_nmf_kernels.py``
    passes dense steps to time a matrix past the CSR threshold on the
    dense path).  Each run is charged its share of its chunk's wall time
    under ``nmf.fit``.
    """
    is_sparse = sparse.issparse(a)
    if is_sparse and model.loss != "frobenius":
        raise ValueError(
            "sparse input supports the frobenius loss only; "
            "densify A for kullback-leibler"
        )
    step, errors = pair if pair is not None else _step_pair(a, model)
    runs = len(w0_list)
    n, m = a.shape
    chunk = _chunk_runs(model, n, m, runs, is_sparse=is_sparse)
    out: list[dict[str, np.ndarray]] = []
    for lo in range(0, runs, chunk):
        hi = min(lo + chunk, runs)
        t0 = time.perf_counter()
        w_stack = np.ascontiguousarray(np.stack(w0_list[lo:hi]))
        h_stack = np.ascontiguousarray(np.stack(h0_list[lo:hi]))
        n_iter, converged, final_err = _masked_solve(
            w_stack, h_stack, model, step, errors
        )
        per_fit = (time.perf_counter() - t0) / (hi - lo)
        metrics.inc("kernel.batched_runs", hi - lo)
        metrics.inc("nmf.fits", hi - lo)
        for i in range(hi - lo):
            metrics.record_time("nmf.fit", per_fit)
            metrics.inc("nmf.iterations", int(n_iter[i]))
            if converged[i]:
                metrics.inc("nmf.converged")
            out.append(
                {
                    "w": w_stack[i].copy(),
                    "h": h_stack[i].copy(),
                    "err": np.float64(final_err[i]),
                    "n_iter": np.int64(n_iter[i]),
                    "converged": np.bool_(converged[i]),
                }
            )
    return out


# -- spec grouping and the public engine -------------------------------------


def _group_key(params: Mapping[str, Any]) -> tuple:
    """Hashable identity of a solver configuration (type-tagged reprs)."""
    return tuple(
        sorted((k, type(v).__name__, repr(v)) for k, v in params.items())
    )


def batched_nmf_fits(
    a: np.ndarray | sparse.spmatrix | sparse.sparray,
    specs: Sequence[Mapping[str, Any]],
) -> list[dict[str, np.ndarray]]:
    """Fit a batch of NMF specs against one matrix with the stacked engine.

    Specs follow the :func:`repro.runtime.run_nmf_fits` convention: NMF
    constructor keywords plus optional pre-drawn ``W0``/``H0``.  Every
    spec's start is resolved in spec order (``NMF._initialize``, so a
    random or NNDSVD init draws exactly as a lone ``fit_transform``
    would); specs sharing a solver configuration are then stacked and
    solved together.  Output bundles come back in spec order, each the
    same bits a one-spec batch would return.
    """
    specs = list(specs)
    if not specs:
        return []
    a = validate_input(a)
    if sparse.issparse(a):
        metrics.inc("kernel.sparse_batches")
    models: list[NMF] = []
    starts: list[tuple[np.ndarray, np.ndarray]] = []
    groups: dict[tuple, list[int]] = {}
    with metrics.timer("kernel.batch"):
        metrics.inc("kernel.batches")
        for i, spec in enumerate(specs):
            params = {k: v for k, v in spec.items() if k not in ("W0", "H0")}
            models.append(NMF(**params))
            starts.append(models[i]._initialize(a, spec.get("W0"), spec.get("H0")))
            groups.setdefault(_group_key(params), []).append(i)
        metrics.inc("kernel.groups", len(groups))
        results: dict[int, dict[str, np.ndarray]] = {}
        for indices in groups.values():
            bundles = _solve_stacked(
                a,
                models[indices[0]],
                [starts[i][0] for i in indices],
                [starts[i][1] for i in indices],
            )
            results.update(zip(indices, bundles))
    return [results[i] for i in range(len(specs))]
