"""Out-of-core online NMF: multiplicative updates over row blocks.

The in-memory engine needs the full dense ``A`` (and a dense residual)
in RAM.  At 100k+ materials × the CS2013 tag universe that is hundreds
of megabytes per copy — and at 1M rows it simply does not fit.  This
module factorizes ``A`` streamed from a memory-mapped ``.npy`` file (or
any dense array) without ever materializing more than one row block:

* every GEMM of the MU update decomposes over row blocks —
  ``W.T @ A = Σ_b W_b.T @ A_b`` and ``W.T @ W = Σ_b W_b.T @ W_b`` for the
  H update, and the W update touches each ``W_b`` with only ``A_b`` and
  the shared ``H @ H.T``;
* the Frobenius objective accumulates per-block squared residuals;
* after each block the mapped pages are dropped
  (``madvise(MADV_DONTNEED)``), so resident memory stays O(block +
  factors), not O(A), even mid-pass.

The blocked update is a ``(step, errors)`` pair for the engine's
convergence loop (:mod:`repro.factorization.kernels`), so the stopping
rule and the final-error rule are the in-memory ones.

**Bit-identity contract.**  When ``A`` fits in one block (its element
count is within ``kernels.ELEMENT_BUDGET``), the solve *is* the
in-memory engine — results are bit-identical to
:func:`repro.runtime.run_nmf_fits`, so the content-addressed cache stays
oblivious to which solver filled it.  With multiple blocks the update is
the same mathematical fixed point computed in a different summation
order; results agree to within float accumulation error (``allclose``),
and the cache keys are unchanged — pick a budget per deployment, not per
call, if bit-stable caches matter.
"""

from __future__ import annotations

import mmap
from typing import Any, Mapping, Sequence

import numpy as np
import scipy.sparse

from repro.factorization import kernels
from repro.factorization.nmf import _EPS, NMF
from repro.runtime.metrics import metrics


def row_blocks(
    n_rows: int, n_cols: int, budget: int | None = None
) -> list[tuple[int, int]]:
    """``[start, end)`` row ranges holding ≤ ``budget`` elements each.

    ``budget`` defaults to ``kernels.ELEMENT_BUDGET``.
    """
    if budget is None:
        budget = kernels.ELEMENT_BUDGET
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if n_rows == 0:
        return []
    per_block = max(budget // max(n_cols, 1), 1)
    return [
        (b0, min(b0 + per_block, n_rows)) for b0 in range(0, n_rows, per_block)
    ]


def _drop_pages(a: np.ndarray) -> None:
    """Release a memmap's resident pages; no-op for in-RAM arrays."""
    mm = getattr(a, "_mmap", None)
    advice = getattr(mmap, "MADV_DONTNEED", None)
    if mm is None or advice is None:
        return
    try:
        mm.madvise(advice)
    except (ValueError, OSError):  # pragma: no cover - platform quirks
        pass


def _blocked_error(
    a: np.ndarray, w: np.ndarray, h: np.ndarray, blocks: list[tuple[int, int]]
) -> float:
    """Frobenius error over row blocks (multi-block accumulation order)."""
    acc = 0.0
    for b0, b1 in blocks:
        resid = np.asarray(a[b0:b1]) - w[b0:b1] @ h
        flat = resid.ravel()
        acc += float(np.dot(flat, flat))
        _drop_pages(a)
    return float(np.sqrt(acc))


def _blocked_mu_pair(
    a: np.ndarray, model: NMF, blocks: list[tuple[int, int]]
) -> tuple[kernels.Step, kernels.Errors]:
    """Row-blocked MU Frobenius ``(step, errors)`` for the engine loop."""
    l2, l1, k = model.l2_reg, model.l1_reg, model.n_components

    def step(w_act: np.ndarray, h_act: np.ndarray) -> None:
        for w, h in zip(w_act, h_act):
            wta = np.zeros((k, h.shape[1]))
            wtw = np.zeros((k, k))
            for b0, b1 in blocks:
                a_blk = np.asarray(a[b0:b1])
                w_blk = w[b0:b1]
                wta += w_blk.T @ a_blk
                wtw += w_blk.T @ w_blk
                # Drop after every *block*, not every pass: resident pages
                # of ``a`` stay O(block) even while a pass walks the whole
                # file (clean pages re-fault from the page cache for free).
                _drop_pages(a)
            h *= wta / (wtw @ h + l2 * h + l1 + _EPS)
            hht = h @ h.T
            for b0, b1 in blocks:
                a_blk = np.asarray(a[b0:b1])
                w_blk = w[b0:b1]
                w_blk *= (a_blk @ h.T) / (w_blk @ hht + l2 * w_blk + l1 + _EPS)
                _drop_pages(a)

    def errors(w_stack: np.ndarray, h_stack: np.ndarray) -> np.ndarray:
        return np.array(
            [_blocked_error(a, w, h, blocks) for w, h in zip(w_stack, h_stack)]
        )

    return step, errors


def _check_blocked(a: np.ndarray, blocks: list[tuple[int, int]]) -> None:
    """Blocked counterpart of the in-memory finite/non-negative checks."""
    if not isinstance(a, np.ndarray) or a.ndim != 2:
        raise ValueError("A must be a 2-D array")
    for b0, b1 in blocks:
        blk = np.asarray(a[b0:b1])
        if not np.isfinite(blk).all():
            raise ValueError("A must not contain NaN or infinite entries")
        if np.any(blk < 0):
            raise ValueError("A must be non-negative")
        _drop_pages(a)


def outofcore_nmf_fits(
    a: np.ndarray,
    specs: Sequence[Mapping[str, Any]],
    *,
    budget: int | None = None,
) -> list[dict[str, np.ndarray]]:
    """Fit NMF specs against ``a`` streamed in row blocks.

    ``a`` is a dense 2-D float array — typically an ``np.memmap`` over a
    ``.npy`` file (see :func:`write_incidence_memmap`) whose dense size
    exceeds RAM.  Specs use the :func:`repro.runtime.run_nmf_fits`
    format and must be fully deterministic: ``solver="mu"``,
    ``loss="frobenius"``, and ``init="custom"`` with pre-drawn ``W0`` /
    ``H0`` (data-dependent inits would need their own out-of-core pass).
    Returns bundles shaped exactly like the other kernels' (``w``, ``h``,
    ``err``, ``n_iter``, ``converged``).
    """
    if scipy.sparse.issparse(a):
        raise TypeError(
            "outofcore_nmf_fits expects a dense (optionally memory-mapped) "
            "array; sparse input already fits through the sparse kernels"
        )
    blocks = row_blocks(a.shape[0], a.shape[1], budget)
    _check_blocked(a, blocks)
    out: list[dict[str, np.ndarray]] = []
    for spec in specs:
        params = {key: v for key, v in spec.items() if key not in ("W0", "H0")}
        model = NMF(**params)
        if model.solver != "mu" or model.loss != "frobenius":
            raise ValueError(
                "out-of-core kernel supports solver='mu' with "
                "loss='frobenius' only"
            )
        if model.init != "custom":
            raise ValueError(
                "out-of-core kernel requires init='custom' with pre-drawn "
                "W0/H0"
            )
        with metrics.timer("oocnmf.fit"):
            w, h = model._initialize(a, spec.get("W0"), spec.get("H0"))
            pair = None if len(blocks) == 1 else _blocked_mu_pair(a, model, blocks)
            out.extend(kernels._solve_stacked(a, model, [w], [h], pair))
        metrics.inc("oocnmf.fits")
        metrics.inc("oocnmf.blocks", len(blocks))
    return out


def write_incidence_memmap(
    repo, path, *, block_rows: int = 8192
) -> tuple[np.memmap, list[str]]:
    """Stream a repository's material × tag incidence to a ``.npy`` memmap.

    Works with the flat and sharded repositories alike (anything with
    ``materials()`` / ``n_materials``).  Columns are the sorted tag
    universe — the same convention as
    :func:`repro.materials.similarity.incidence_matrix` — so the file is
    reproducible for a given corpus regardless of shard layout.  Rows are
    written in insertion order, ``block_rows`` at a time.  Returns the
    writable memmap (flushed) and the universe; reopen with
    ``np.load(path, mmap_mode="r")`` for read-only streaming.
    """
    if block_rows < 1:
        raise ValueError(f"block_rows must be >= 1, got {block_rows}")
    universe = sorted({t for m in repo.materials() for t in m.mappings})
    tag_col = {t: j for j, t in enumerate(universe)}
    n = repo.n_materials
    shape = (n, max(len(universe), 1))
    out = np.lib.format.open_memmap(
        path, mode="w+", dtype=np.float64, shape=shape
    )
    block = np.zeros((min(block_rows, max(n, 1)), shape[1]))
    filled = 0
    base = 0
    for m in repo.materials():
        for t in m.mappings:
            block[filled, tag_col[t]] = 1.0
        filled += 1
        if filled == block.shape[0]:
            out[base : base + filled] = block[:filled]
            base += filled
            filled = 0
            block[:] = 0.0
    if filled:
        out[base : base + filled] = block[:filled]
    out.flush()
    _drop_pages(out)
    return out, universe


def _iter_jsonl_materials(corpus_path) -> "Any":
    """Yield ``(material_id, mappings)`` pairs from a JSONL corpus file.

    First occurrence of an id wins (mirroring ingestion's duplicate
    exclusion); malformed body lines and malformed material records are
    skipped — the tolerant-ingest convention, applied to the incidence
    path.  Yields pairs in file order.
    """
    from repro.corpus.stream import iter_course_records

    seen: set[str] = set()
    for record in iter_course_records(corpus_path):
        if not isinstance(record, Mapping):
            metrics.inc("oocnmf.incidence.skipped_lines")
            continue
        materials = record.get("materials", ())
        if not isinstance(materials, (list, tuple)):
            metrics.inc("oocnmf.incidence.skipped_lines")
            continue
        for mdict in materials:
            if not isinstance(mdict, Mapping) or not mdict.get("id"):
                metrics.inc("oocnmf.incidence.skipped_materials")
                continue
            mid = str(mdict["id"])
            if mid in seen:
                metrics.inc("oocnmf.incidence.skipped_materials")
                continue
            seen.add(mid)
            mappings = mdict.get("mappings", ())
            if isinstance(mappings, str) or not isinstance(
                mappings, (list, tuple)
            ):
                mappings = ()
            yield mid, [str(t) for t in mappings]


def stream_incidence_memmap(
    corpus_path, path, *, block_rows: int = 8192
) -> tuple[np.memmap, list[str]]:
    """Stream a JSONL corpus file straight into an incidence ``.npy`` memmap.

    The ingest-then-export pipeline (load → repository →
    :func:`write_incidence_memmap`) materializes every :class:`Material` object
    before the first row is written — at 1M materials, gigabytes of
    intermediary just to produce a 0/1 matrix.  This variant reads the
    JSONL corpus twice and holds only ids and tag strings:

    * pass 1 collects the tag universe and counts rows;
    * pass 2 fills ``block_rows``-row blocks and flushes each to the
      memmap.

    Columns are the **sorted** tag universe — the same convention as
    :func:`write_incidence_memmap` — so for a duplicate-free corpus the
    two functions produce the same column layout; rows follow file order
    (which for a flat-ingested corpus is insertion order).  Duplicate
    material ids keep their first occurrence, matching ingestion's
    exclusion of re-registered ids.
    """
    if block_rows < 1:
        raise ValueError(f"block_rows must be >= 1, got {block_rows}")
    universe_set: set[str] = set()
    n = 0
    for _, mappings in _iter_jsonl_materials(corpus_path):
        universe_set.update(mappings)
        n += 1
    universe = sorted(universe_set)
    tag_col = {t: j for j, t in enumerate(universe)}
    shape = (n, max(len(universe), 1))
    out = np.lib.format.open_memmap(
        path, mode="w+", dtype=np.float64, shape=shape
    )
    block = np.zeros((min(block_rows, max(n, 1)), shape[1]))
    filled = 0
    base = 0
    with metrics.timer("oocnmf.incidence.stream"):
        for _, mappings in _iter_jsonl_materials(corpus_path):
            for t in mappings:
                block[filled, tag_col[t]] = 1.0
            filled += 1
            if filled == block.shape[0]:
                out[base : base + filled] = block[:filled]
                base += filled
                filled = 0
                block[:] = 0.0
        if filled:
            out[base : base + filled] = block[:filled]
    out.flush()
    _drop_pages(out)
    metrics.inc("oocnmf.incidence.stream_rows", n)
    return out, universe
