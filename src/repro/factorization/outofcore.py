"""Out-of-core NMF: read a memory-mapped incidence once, fit its CSR.

The in-memory engine needs the full dense ``A`` in RAM.  At 100k+
materials × the CS2013 tag universe that is hundreds of megabytes per
copy — and at 1M rows it simply does not fit.  This module fits ``A``
from a memory-mapped ``.npy`` file (or any dense array) without holding
more than one row block of it.  ``A`` is the material × tag 0/1
incidence, under 1% ones at scale, so its nonzeros take a small
fraction of its dense size:

* ``A`` is read once, row block by row block.  Each block's nonzeros
  join one CSR, and the block's mapped pages are dropped
  (``madvise(MADV_DONTNEED)``) before the next block is read;
* every spec is then solved in one
  :func:`~repro.factorization.kernels.batched_nmf_fits` call on that
  CSR.

Resident memory is O(block + nnz + factors), not O(A).  A NaN, an
infinity or a negative entry is a nonzero, so the engine's check of the
CSR's values covers the whole matrix.

**Bit-identity contract.**  Results are the same bits as
:func:`repro.runtime.run_nmf_fits` on the dense ``A`` (``use_cache=False``)
for any ``budget`` and any number of blocks.  The engine fits a dense
``A`` of ``kernels.CSR_MIN_ELEMENTS`` elements or more on its CSR, and the
blocks' CSR is that CSR; a smaller ``A`` is read whole and solved dense,
as the engine would.  The content-addressed cache therefore stays
oblivious to which entry point filled it.
"""

from __future__ import annotations

import mmap
from typing import Any, Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse

from repro.factorization import kernels
from repro.factorization.nmf import NMF
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


def _read_csr(a: np.ndarray, blocks: list[tuple[int, int]]) -> scipy.sparse.csr_array:
    """The CSR of ``a``, read one row block at a time."""
    parts = []
    for b0, b1 in blocks:
        parts.append(scipy.sparse.csr_array(np.asarray(a[b0:b1], dtype=np.float64)))
        _drop_pages(a)
    return scipy.sparse.vstack(parts, format="csr")


def outofcore_nmf_fits(
    a: np.ndarray,
    specs: Sequence[Mapping[str, Any]],
    *,
    budget: int | None = None,
) -> list[dict[str, np.ndarray]]:
    """Fit NMF specs against ``a``, read once in row blocks.

    ``a`` is a dense 2-D 0/1 incidence — typically an ``np.memmap`` over
    a ``.npy`` file (see :func:`write_incidence_memmap`) whose dense size
    exceeds RAM.  Specs use the :func:`repro.runtime.run_nmf_fits`
    format and must be fully deterministic: ``solver="mu"``,
    ``loss="frobenius"``, and ``init="custom"`` with pre-drawn ``W0`` /
    ``H0``.  ``budget`` caps the elements of one row block (default
    ``kernels.ELEMENT_BUDGET``), and so the memory a block takes; it does
    not change results.  Returns the bundles ``run_nmf_fits`` returns for
    the dense ``a``, bit for bit.
    """
    if scipy.sparse.issparse(a):
        raise TypeError(
            "outofcore_nmf_fits expects a dense (optionally memory-mapped) "
            "array; sparse input already fits through the sparse kernels"
        )
    if not isinstance(a, np.ndarray) or a.ndim != 2:
        raise ValueError("A must be a 2-D array")
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
        if a.size < kernels.CSR_MIN_ELEMENTS:
            blocks, a_fit = [(0, a.shape[0])], a
        else:
            blocks = row_blocks(a.shape[0], a.shape[1], budget)
            a_fit = _read_csr(a, blocks)
        out = kernels.batched_nmf_fits(a_fit, specs)
    metrics.inc("oocnmf.fits", len(specs))
    metrics.inc("oocnmf.blocks", len(blocks))
    return out


def _write_incidence(
    path, rows: Iterable[Iterable[str]], n: int, universe: list[str],
    block_rows: int,
) -> np.memmap:
    """Write ``n`` rows of tags as a 0/1 ``.npy`` memmap over ``universe``.

    The new file maps as zeros, so only the ones are written, straight
    into the mapping, ``block_rows`` rows at a time; each block's pages
    are dropped once written (they stay in the page cache until the
    closing flush writes them back).
    """
    tag_col = {t: j for j, t in enumerate(universe)}
    out = np.lib.format.open_memmap(
        path, mode="w+", dtype=np.float64, shape=(n, max(len(universe), 1))
    )
    row_idx: list[int] = []
    col_idx: list[int] = []

    def put() -> None:
        out[row_idx, col_idx] = 1.0
        _drop_pages(out)
        row_idx.clear()
        col_idx.clear()

    for i, tags in enumerate(rows):
        for t in tags:
            row_idx.append(i)
            col_idx.append(tag_col[t])
        if (i + 1) % block_rows == 0:
            put()
    put()
    out.flush()
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
    written in insertion order, ``block_rows`` at a time, with no dense
    staging copy.  Returns the writable memmap (flushed) and the
    universe; reopen with ``np.load(path, mmap_mode="r")`` for read-only
    streaming.
    """
    if block_rows < 1:
        raise ValueError(f"block_rows must be >= 1, got {block_rows}")
    universe = sorted({t for m in repo.materials() for t in m.mappings})
    out = _write_incidence(
        path, (m.mappings for m in repo.materials()), repo.n_materials,
        universe, block_rows,
    )
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
    * pass 2 writes the ones of each ``block_rows``-row block straight
      into the memmap, as :func:`write_incidence_memmap` does.

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
    with metrics.timer("oocnmf.incidence.stream"):
        out = _write_incidence(
            path, (m for _, m in _iter_jsonl_materials(corpus_path)), n,
            universe, block_rows,
        )
    metrics.inc("oocnmf.incidence.stream_rows", n)
    return out, universe
