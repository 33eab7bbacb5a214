"""Ordered task batches and the NMF batch driver, in the calling process.

Multi-restart NMF, consensus resampling and k-sweep model selection are
batches of independent factorizations of one matrix.
:func:`run_nmf_fits` answers each spec from the content-addressed cache
where it can and advances every miss in one stacked engine loop
(:mod:`repro.factorization.kernels`).  Every spec carries its entire
random state (pre-drawn ``W0``/``H0`` or a deterministic init), so a
cached bundle, a batch of one and a batch of many are bit-identical.

:func:`parallel_map` runs the other batches (pipeline waves, shard
fan-out) as an ordered loop with one error taxonomy (in full in
docs/ARCHITECTURE.md):

* a **task bug** — any exception the task itself raises — propagates
  immediately as :class:`TaskError`, carrying the task index and the
  original traceback; it is never retried;
* a **transient task failure** (:class:`TransientTaskError`, which
  injected faults subclass) is retried in place up to the retry budget.

Retries and task errors are counted in
:data:`~repro.runtime.metrics.metrics` (``executor.retry``,
``executor.task_error``) and appended to the process-global
:class:`FailureReport` (see :func:`failure_report`).  The retry budget
resolves from the ``retries=`` argument > ``configure(task_retries=)`` >
``REPRO_TASK_RETRIES`` > 2.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence, TypeVar

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
from repro.runtime.faults import (
    FaultPlan,
    TransientTaskError,
    active_fault_plan,
    apply_task_faults,
)
from repro.runtime.metrics import metrics
from repro.runtime.sanitize import lock_factory

T = TypeVar("T")
R = TypeVar("R")


# -- retry policy ------------------------------------------------------------

#: Default per-task retry budget for transient task failures.
DEFAULT_TASK_RETRIES = 2

_configured_task_retries: int | None = None


def set_default_task_retries(retries: int | None) -> None:
    """Set (or with ``None`` clear) the configured per-task retry budget."""
    global _configured_task_retries
    if retries is not None and retries < 0:
        raise ValueError(f"task retries must be >= 0, got {retries}")
    _configured_task_retries = retries


def task_retries_from_env() -> int | None:
    """Parse ``REPRO_TASK_RETRIES``; ``None`` if unset/invalid."""
    raw = os.environ.get("REPRO_TASK_RETRIES", "").strip()
    if not raw:
        return None
    try:
        n = int(raw)
    except ValueError:
        return None
    return n if n >= 0 else None


def resolve_task_retries(retries: int | None = None) -> int:
    """Effective retry budget: argument > configure() > env > default (2).

    ``0`` disables retries entirely: the first transient failure of a
    task surfaces to the caller.
    """
    if retries is not None:
        if retries < 0:
            raise ValueError(f"task retries must be >= 0, got {retries}")
        return int(retries)
    if _configured_task_retries is not None:
        return _configured_task_retries
    env = task_retries_from_env()
    return env if env is not None else DEFAULT_TASK_RETRIES


# -- error taxonomy ----------------------------------------------------------


class TaskError(RuntimeError):
    """A task-raised exception, annotated with its task index.

    The original exception rides along as ``__cause__`` / ``original``;
    ``original_traceback`` holds its formatted traceback.
    """

    def __init__(
        self, index: int, original: BaseException, original_traceback: str = ""
    ) -> None:
        super().__init__(
            f"task {index} raised {type(original).__name__}: {original}"
        )
        self.index = index
        self.original = original
        self.original_traceback = original_traceback


@dataclass(frozen=True)
class FailureEvent:
    """One observed failure/recovery event in the executor or cache."""

    kind: str               # "retry" | "task_error" | "cache_quarantined"
    task_index: int | None = None
    attempt: int = 0
    error: str = ""         # repr of the triggering exception
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "task_index": self.task_index,
            "attempt": self.attempt,
            "error": self.error,
            "detail": self.detail,
        }


@dataclass
class FailureReport:
    """Structured log of every fault the runtime observed and survived.

    Accumulates across batches (like metrics) until :func:`repro.runtime.reset`;
    the chaos CI job uploads its JSON form as a build artifact.
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
        task_index: int | None = None,
        attempt: int = 0,
        error: BaseException | str = "",
        detail: str = "",
    ) -> None:
        err = repr(error) if isinstance(error, BaseException) else error
        with self._lock:
            self.events.append(
                FailureEvent(kind, task_index, attempt, err, detail)
            )

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


# -- ordered map -------------------------------------------------------------


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    retries: int | None = None,
) -> list[R]:
    """Map ``fn`` over ``items`` in order, in the calling process.

    Each task first meets the active fault plan's ``task_error`` site,
    then runs.  A :class:`TransientTaskError` is retried up to
    ``retries`` times (resolution: argument > ``configure(task_retries=)``
    > ``REPRO_TASK_RETRIES`` > 2); any other exception, or a transient
    one out of budget, raises :class:`TaskError` for that task.
    """
    items = list(items)
    max_retries = resolve_task_retries(retries)
    plan = active_fault_plan()
    metrics.inc("executor.tasks", len(items))
    with metrics.timer("executor.map"):
        return [
            _run_task(fn, plan, i, item, max_retries)
            for i, item in enumerate(items)
        ]


def _run_task(
    fn: Callable[[T], R],
    plan: FaultPlan | None,
    index: int,
    item: T,
    max_retries: int,
) -> R:
    """One task, honoring the transient-retry budget."""
    attempt = 0
    while True:
        try:
            if plan is not None:
                apply_task_faults(plan, index, attempt)
            return fn(item)
        except TransientTaskError as exc:
            if attempt >= max_retries:
                _failure_report.add(
                    "task_error", task_index=index, attempt=attempt, error=exc
                )
                metrics.inc("executor.task_error")
                raise TaskError(index, exc, traceback.format_exc()) from exc
            attempt += 1
            _failure_report.add(
                "retry", task_index=index, attempt=attempt, error=exc,
                detail="transient task failure",
            )
            metrics.inc("executor.retry")
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:
            _failure_report.add(
                "task_error", task_index=index, attempt=attempt, error=exc
            )
            metrics.inc("executor.task_error")
            raise TaskError(index, exc, traceback.format_exc()) from exc


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
    h.update(b"nmf-batch:")
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
    the solver hot loops.  Returns one bundle per spec, in spec order,
    each with ``w``, ``h``, ``err``, ``n_iter``, ``converged``.

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
    service layer: when a broker lane is open or a request's deadline is
    too tight for a cold fit, a previously computed factorization can
    still be served — flagged degraded — without touching a kernel.
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
