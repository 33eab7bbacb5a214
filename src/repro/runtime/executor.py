"""Batched NMF fits and the runtime's failure report, in the calling process.

Multi-restart NMF, consensus resampling and k-sweep model selection are
batches of independent factorizations of one matrix.
:func:`run_nmf_fits` answers each spec from the content-addressed cache
where it can and advances every miss in one stacked engine loop
(:mod:`repro.factorization.kernels`).  Every spec carries its entire
random state (pre-drawn ``W0``/``H0`` or a deterministic init), so a
cached bundle, a batch of one and a batch of many are bit-identical.

Every other batch (pipeline nodes, shard fan-out) is a plain loop at
its call site: an exception a task raises propagates unchanged.

:class:`FailureReport` is the process-global log of the faults the
runtime observed and survived: cache quarantines and lock-sanitizer
findings (see :func:`failure_report`).
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np
import scipy.sparse

from repro.runtime.cache import (
    NMF_KEY_PARAMS,
    ResultCache,
    array_digest,
    content_key,
    matrix_digest,
    result_cache,
)
from repro.runtime.metrics import metrics
from repro.runtime.sanitize import lock_factory

# -- failure report ----------------------------------------------------------


@dataclass(frozen=True)
class FailureEvent:
    """One observed failure/recovery event in the runtime or service."""

    kind: str               # "cache_quarantined" | "sanitizer.*"
    error: str = ""         # repr of the triggering exception
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "error": self.error, "detail": self.detail}


@dataclass
class FailureReport:
    """Structured log of every fault the runtime observed and survived.

    Accumulates (like metrics) until :func:`repro.runtime.reset`; the
    service's ``/metrics`` document carries its counts.
    """

    events: list[FailureEvent] = field(default_factory=list)
    _lock: threading.Lock = field(
        default_factory=lock_factory("executor.failure_report"),
        repr=False, compare=False,
    )

    def add(
        self,
        kind: str,
        *,
        error: BaseException | str = "",
        detail: str = "",
    ) -> None:
        err = repr(error) if isinstance(error, BaseException) else error
        with self._lock:
            self.events.append(FailureEvent(kind, err, detail))

    @property
    def counts(self) -> dict[str, int]:
        with self._lock:
            out: dict[str, int] = {}
            for e in self.events:
                out[e.kind] = out.get(e.kind, 0) + 1
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self.events)

    def __bool__(self) -> bool:
        return len(self) > 0

    def clear(self) -> None:
        with self._lock:
            self.events.clear()

    def to_dict(self) -> dict[str, Any]:
        with self._lock:
            events = [e.to_dict() for e in self.events]
        counts: dict[str, int] = {}
        for e in events:
            counts[e["kind"]] = counts.get(e["kind"], 0) + 1
        return {"n_events": len(events), "counts": counts, "events": events}

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        counts = self.counts
        if not counts:
            return "no failures observed"
        parts = [f"{k}={counts[k]}" for k in sorted(counts)]
        return f"{sum(counts.values())} event(s): " + ", ".join(parts)


#: Process-global failure log; cleared by :func:`repro.runtime.reset`.
_failure_report = FailureReport()


def failure_report() -> FailureReport:
    """The process-global :class:`FailureReport`."""
    return _failure_report


# -- NMF batch driver --------------------------------------------------------
#
# The one batch entry point every analysis layer shares.  A *spec* is the
# keyword dict for repro.factorization.nmf.NMF plus optional "W0"/"H0"
# arrays; the driver handles caching, the engine call and result bundling.


def _spec_key(a_digest: str, spec: Mapping[str, Any]) -> str:
    """Key for one spec; the (batch-constant) matrix digest is precomputed.

    Every scalar parameter must be declared in
    :data:`repro.runtime.cache.NMF_KEY_PARAMS` — the canonical list of
    key-bearing solver knobs that the RPR202 static rule holds in
    lockstep with the ``NMF`` dataclass.  An undeclared name means the
    key recipe and the solver have drifted, which is exactly the aliasing
    bug the check exists to prevent, so it raises rather than guessing.
    """
    unknown = set(spec) - set(NMF_KEY_PARAMS) - {"W0", "H0"}
    if unknown:
        raise ValueError(
            f"spec parameter(s) {sorted(unknown)} are not in NMF_KEY_PARAMS; "
            "declare them in repro.runtime.cache so they enter the cache key"
        )
    h = hashlib.sha256()
    # Versioned: a kernel change that moves a fit's bits changes the tag,
    # so an old disk cache cannot mix its bundles with fresh ones.
    # v2: dense inputs of 2^17 elements or more fit on their CSR.
    h.update(b"nmf-batch:v2:")
    h.update(a_digest.encode())
    params = {}
    for name, val in spec.items():
        if name in ("W0", "H0"):
            if val is not None:
                h.update(f"|{name}:".encode())
                h.update(array_digest(np.asarray(val)).encode())
            continue
        params[name] = val
    h.update(content_key("nmf", [], params).encode())
    return h.hexdigest()


def run_nmf_fits(
    a: np.ndarray,
    specs: Sequence[Mapping[str, Any]],
    *,
    cache: ResultCache | None = None,
    use_cache: bool = True,
    kernel: str | None = None,
) -> list[dict[str, np.ndarray]]:
    """Fit a batch of NMF configurations against one matrix.

    Each spec holds :class:`~repro.factorization.nmf.NMF` constructor
    keywords plus optional ``W0``/``H0`` initialization arrays.  Specs
    must be fully deterministic (pre-drawn inits or deterministic init
    schemes) — that is what makes the cache transparent.  ``a`` may
    also be a ``scipy.sparse`` matrix, which the engine keeps sparse in
    the solver hot loops; a dense ``a`` of
    :data:`~repro.factorization.kernels.CSR_MIN_ELEMENTS` elements or
    more is fitted on its CSR for the Frobenius loss, with the bits of
    that CSR input (within ulps of the dense loops).  Either way the
    cache key hashes the matrix as passed.  Returns one bundle per spec,
    in spec order, each with ``w``, ``h``, ``err``, ``n_iter``,
    ``converged``.

    Cache misses run together through
    :func:`repro.factorization.kernels.batched_nmf_fits` in this
    process.  ``kernel`` accepts only ``None`` or ``"batched"`` and
    changes nothing; it remains for existing callers.
    """
    if kernel not in (None, "batched"):
        raise ValueError(f"kernel must be None or 'batched', got {kernel!r}")
    if not scipy.sparse.issparse(a):
        a = np.ascontiguousarray(a, dtype=float)
    store = cache if cache is not None else result_cache
    results: list[dict[str, np.ndarray] | None] = [None] * len(specs)
    pending: list[tuple[int, str, Mapping[str, Any]]] = []
    with metrics.timer("runtime.nmf_batch"):
        a_digest = matrix_digest(a) if use_cache else ""
        for i, spec in enumerate(specs):
            key = _spec_key(a_digest, spec) if use_cache else ""
            if use_cache:
                hit = store.get(key)
                if hit is not None:
                    results[i] = hit
                    continue
            pending.append((i, key, spec))
        if pending:
            from repro.factorization.kernels import batched_nmf_fits

            fresh = batched_nmf_fits(a, [spec for _, _, spec in pending])
            for (i, key, _), bundle in zip(pending, fresh):
                results[i] = bundle
                if use_cache:
                    store.put(key, bundle)
        metrics.inc("runtime.nmf_fits", len(specs))
        metrics.inc("runtime.nmf_fits_computed", len(pending))
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]


def cached_nmf_fits(
    a: np.ndarray,
    specs: Sequence[Mapping[str, Any]],
    *,
    cache: ResultCache | None = None,
) -> list[dict[str, np.ndarray]] | None:
    """Cache-only variant of :func:`run_nmf_fits`: never computes.

    Returns the bundles for ``specs`` if **every** spec hits the
    content-addressed :class:`ResultCache` (memory LRU or on-disk
    ``.npz``), else ``None``.  This is the degraded-mode backend for the
    service layer: when a request's deadline is too tight for a cold fit
    or its result wait timed out, a previously computed factorization
    can still be served — flagged degraded — without touching a kernel.
    Keys are the same as :func:`run_nmf_fits`'s, so anything a normal
    request computed is servable here bit for bit.
    """
    store = cache if cache is not None else result_cache
    if not scipy.sparse.issparse(a):
        a = np.ascontiguousarray(a, dtype=float)
    a_digest = matrix_digest(a)
    out: list[dict[str, np.ndarray]] = []
    for spec in specs:
        hit = store.get(_spec_key(a_digest, spec))
        if hit is None:
            metrics.inc("runtime.nmf_degraded_miss")
            return None
        out.append(hit)
    metrics.inc("runtime.nmf_degraded_hits", len(out))
    return out
