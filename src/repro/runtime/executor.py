"""Process-pool fan-out for the library's embarrassingly parallel loops.

Multi-restart NMF, consensus resampling, and k-sweep model selection all
have the same shape: N independent factorizations of the same matrix that
differ only in their starting point.  This module fans such batches out
across a :class:`~concurrent.futures.ProcessPoolExecutor` while keeping
the results **bit-identical** to the serial path:

* every task carries its *entire* random state explicitly — either a
  pre-drawn initialization (``W0``/``H0``) or a
  :class:`numpy.random.SeedSequence` child derived with
  :meth:`~numpy.random.SeedSequence.spawn` — so the amount of randomness
  one task consumes can never perturb another;
* tasks are dispatched and collected in submission order, so reductions
  over the results see the same sequence regardless of completion order;
* worker count 1 (the default) bypasses the pool entirely.

Fault tolerance (the error taxonomy, in full, lives in
docs/ARCHITECTURE.md):

* a **task bug** — any exception the task itself raises — propagates
  immediately, wrapped in :class:`TaskError` carrying the task index and
  the original traceback; it is *never* retried or masked by a serial
  re-run;
* a **transient task failure** (:class:`TransientTaskError`, which
  injected faults subclass) is retried in place up to the retry budget;
* an **infrastructure failure** — a dead worker
  (``BrokenProcessPool``), a per-task timeout, an OS-level pool error —
  triggers a pool rebuild with deterministic exponential backoff and a
  bounded per-task retry; a task that exhausts its budget is
  *quarantined*: executed serially in the parent as the last resort;
* an **unpicklable payload** degrades the remaining batch to the serial
  loop (the work is still valid — parallelism is only an optimization).

Every event is counted in :data:`~repro.runtime.metrics.metrics`
(``executor.retry``, ``executor.pool_rebuild``, ``executor.task_timeout``,
``executor.quarantined``, …) and appended to the process-global
:class:`FailureReport` (see :func:`failure_report`).

Worker selection: explicit ``workers=`` argument > ``configure(workers=)``
> the ``REPRO_WORKERS`` environment variable (an integer, or ``auto`` for
the CPU count) > serial.  Timeouts and retries resolve the same way from
``REPRO_TASK_TIMEOUT`` / ``REPRO_TASK_RETRIES``.

NMF batches (:func:`run_nmf_fits`) run their cache misses through the
stacked engine in :mod:`repro.factorization.kernels` — one Python loop
iteration advancing every restart — in this process, and fan out one
spec per pool task only for large dense matrices with ``workers > 1``,
where BLAS time dwarfs pickling.  Both paths run the same engine and
return bit-identical bundles, so the cache layer is oblivious to which
one ran.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
import pickle
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
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

#: Default worker count set via :func:`repro.runtime.configure`;
#: ``None`` defers to the environment.
_configured_workers: int | None = None


def set_default_workers(workers: int | None) -> None:
    """Set (or with ``None`` clear) the configured default worker count."""
    global _configured_workers
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _configured_workers = workers


def workers_from_env() -> int | None:
    """Parse ``REPRO_WORKERS`` (int or ``auto``); ``None`` if unset/invalid."""
    raw = os.environ.get("REPRO_WORKERS", "").strip().lower()
    if not raw:
        return None
    if raw == "auto":
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        return None
    return max(n, 1)


def resolve_workers(workers: int | None = None) -> int:
    """Effective worker count: argument > configure() > env > 1."""
    if workers is not None:
        return max(int(workers), 1)
    if _configured_workers is not None:
        return _configured_workers
    env = workers_from_env()
    if env is not None:
        return env
    return 1


# -- retry / timeout policy --------------------------------------------------

#: Default per-task retry budget for transient and infrastructure failures.
DEFAULT_TASK_RETRIES = 2

#: Base and cap of the deterministic exponential backoff between pool
#: rebuilds (seconds): ``min(base * 2**rebuild, cap)``.
_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 2.0

_configured_task_timeout: float | None = None
_configured_task_retries: int | None = None


def set_default_task_timeout(timeout: float | None) -> None:
    """Set (or with ``None`` clear) the configured per-task timeout."""
    global _configured_task_timeout
    if timeout is not None and timeout <= 0:
        raise ValueError(f"task timeout must be > 0 seconds, got {timeout}")
    _configured_task_timeout = timeout


def task_timeout_from_env() -> float | None:
    """Parse ``REPRO_TASK_TIMEOUT`` (seconds); ``None`` if unset/invalid."""
    raw = os.environ.get("REPRO_TASK_TIMEOUT", "").strip()
    if not raw:
        return None
    try:
        val = float(raw)
    except ValueError:
        return None
    return val if val > 0 else None


def resolve_task_timeout(timeout: float | None = None) -> float | None:
    """Effective per-task timeout: argument > configure() > env > none."""
    if timeout is not None:
        if timeout <= 0:
            raise ValueError(f"task timeout must be > 0 seconds, got {timeout}")
        return float(timeout)
    if _configured_task_timeout is not None:
        return _configured_task_timeout
    return task_timeout_from_env()


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

    ``0`` disables retries entirely: the first transient or
    infrastructure failure of a task surfaces to the caller.
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
    ``original_traceback`` preserves the formatted traceback from the
    process that raised it (workers' tracebacks don't survive pickling
    otherwise).
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

    kind: str               # "retry" | "pool_rebuild" | "task_timeout" | ...
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


# -- task wrapper ------------------------------------------------------------


class _FaultyCall:
    """Picklable task wrapper that applies the active fault plan.

    Carries the plan by value so worker processes make the same
    deterministic injection decisions as the parent would.
    """

    def __init__(self, fn: Callable[[T], R], plan: FaultPlan | None) -> None:
        self.fn = fn
        self.plan = plan

    def __call__(self, payload: tuple[int, int, bool, T]) -> R:
        index, attempt, in_worker, item = payload
        if self.plan is not None:
            apply_task_faults(self.plan, index, attempt, in_worker=in_worker)
        return self.fn(item)


def _is_pickling_error(exc: BaseException) -> bool:
    """Whether ``exc`` reports an unpicklable payload (deterministic)."""
    if isinstance(exc, pickle.PicklingError):
        return True
    return isinstance(exc, (TypeError, AttributeError)) and "pickle" in str(exc).lower()


def _raised_in_worker(exc: BaseException) -> bool:
    """Whether ``exc`` was raised by the task in a worker process.

    ``concurrent.futures`` chains a ``_RemoteTraceback`` onto exceptions
    it ferries across the process boundary; exceptions raised locally by
    the pool machinery carry no such cause.  This is what separates a
    task-raised ``OSError`` (a task bug) from an OS-level pool failure
    (infrastructure, retried).
    """
    cause = exc.__cause__
    return cause is not None and type(cause).__name__ == "_RemoteTraceback"


class _PoolRecovery(Exception):
    """Internal: the pool must be torn down and unfinished tasks retried."""

    def __init__(self, kind: str, waiting_on: int, error: BaseException) -> None:
        super().__init__(kind)
        self.kind = kind            # "pool_rebuild" | "task_timeout"
        self.waiting_on = waiting_on
        self.error = error


class _SerialDegrade(Exception):
    """Internal: the payload can't cross the process boundary."""

    def __init__(self, error: BaseException) -> None:
        super().__init__(str(error))
        self.error = error


# -- parallel map ------------------------------------------------------------


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    workers: int | None = None,
    timeout: float | None = None,
    retries: int | None = None,
) -> list[R]:
    """Map ``fn`` over ``items``, preserving order, surviving infrastructure.

    Serial when the resolved worker count is 1 (or there is at most one
    item); otherwise per-task ``submit`` on a
    :class:`ProcessPoolExecutor` with at most one worker per item,
    collected in submission order.

    Failure handling follows the module taxonomy: task bugs raise
    :class:`TaskError` immediately (never a silent serial re-run);
    transient task failures and infrastructure failures are retried up
    to ``retries`` (resolution: argument > ``configure(task_retries=)``
    > ``REPRO_TASK_RETRIES`` > 2), with pool rebuilds and deterministic
    exponential backoff; a task out of budget after infrastructure
    failures runs serially in the parent (quarantine);
    an unpicklable payload degrades the batch to the serial loop, counted
    under ``executor.fallback``.  ``timeout`` bounds the wait per task
    (resolution: argument > ``configure(task_timeout=)`` >
    ``REPRO_TASK_TIMEOUT`` > unbounded).
    """
    items = list(items)
    n_workers = min(resolve_workers(workers), max(len(items), 1))
    task_timeout = resolve_task_timeout(timeout)
    max_retries = resolve_task_retries(retries)
    call = _FaultyCall(fn, active_fault_plan())
    metrics.inc("executor.tasks", len(items))
    t0 = time.perf_counter()
    try:
        if n_workers <= 1 or len(items) <= 1:
            metrics.inc("executor.serial_batches")
            return _serial_map(call, items, max_retries)
        return _pool_map(call, items, n_workers, task_timeout, max_retries)
    finally:
        metrics.record_time("executor.map", time.perf_counter() - t0)


def _run_serial_task(
    call: _FaultyCall, index: int, item: Any, attempt: int, max_retries: int
) -> Any:
    """One task in the parent process, honoring the transient-retry budget."""
    while True:
        try:
            return call((index, attempt, False, item))
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
                detail="transient task failure (serial)",
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


def _serial_map(call: _FaultyCall, items: list, max_retries: int) -> list:
    return [
        _run_serial_task(call, i, item, 0, max_retries)
        for i, item in enumerate(items)
    ]


def _teardown_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly dismantle a pool we no longer trust.

    Workers are terminated first (a hung or poisoned worker would
    otherwise keep the executor's manager thread — and with it,
    interpreter shutdown — blocked forever); the shutdown then returns
    without waiting.  Only used on recovery/degrade paths — a healthy
    pool gets a normal ``shutdown(wait=True)``.
    """
    # Terminate before shutdown: with live-but-untrusted workers, a
    # plain shutdown(wait=False) leaves the manager thread joining a
    # queue no one will drain and deadlocks interpreter exit.
    procs = getattr(pool, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.terminate()
        except (OSError, ValueError):
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _harvest_done(
    futures: Mapping[int, concurrent.futures.Future],
    results: list,
    unfinished: set[int],
) -> None:
    """Salvage results that completed before a pool-level failure."""
    for i in list(unfinished):
        fut = futures.get(i)
        if fut is None or not fut.done() or fut.cancelled():
            continue
        if fut.exception() is None:
            results[i] = fut.result()
            unfinished.discard(i)


def _pool_map(
    call: _FaultyCall,
    items: list,
    n_workers: int,
    task_timeout: float | None,
    max_retries: int,
) -> list:
    n = len(items)
    results: list = [None] * n
    unfinished: set[int] = set(range(n))
    attempts = [0] * n
    rebuilds = 0
    degraded = False
    pool: ProcessPoolExecutor | None = None
    # Pre-flight: an unpicklable fn (lambda, closure) can never cross
    # the process boundary.  Catching it here — before anything is
    # submitted — keeps the payload out of the pool's feeder thread,
    # which would otherwise fail asynchronously on every queued task.
    try:
        pickle.dumps(call)
    except Exception as exc:
        _failure_report.add("fallback", error=exc)
        metrics.inc("executor.fallback")
        return _serial_map(call, items, max_retries)
    try:
        while unfinished:
            # Quarantine tasks whose pool budget is exhausted: the last
            # resort is running them in the parent, serially.
            for i in sorted(unfinished):
                if attempts[i] > max_retries:
                    _failure_report.add(
                        "quarantined", task_index=i, attempt=attempts[i],
                        detail="retry budget exhausted; running serially",
                    )
                    metrics.inc("executor.quarantined")
                    results[i] = _run_serial_task(
                        call, i, items[i], attempts[i], attempts[i]
                    )
                    unfinished.discard(i)
            if not unfinished:
                break
            if pool is None:
                try:
                    pool = ProcessPoolExecutor(max_workers=n_workers)
                except (OSError, NotImplementedError) as exc:
                    # No usable pool on this platform: the work itself is
                    # still valid — do it here.
                    degraded = True
                    _failure_report.add("fallback", error=exc)
                    metrics.inc("executor.fallback")
                    for i in sorted(unfinished):
                        results[i] = _run_serial_task(
                            call, i, items[i], attempts[i], max_retries
                        )
                    unfinished.clear()
                    break
            futures: dict[int, concurrent.futures.Future] = {}
            try:
                for i in sorted(unfinished):
                    futures[i] = pool.submit(
                        call, (i, attempts[i], True, items[i])
                    )
                _collect(
                    futures, results, unfinished, attempts,
                    pool, call, items, task_timeout, max_retries,
                )
            except BrokenProcessPool as exc:
                # The pool died at (re)submission time.
                _harvest_done(futures, results, unfinished)
                _failure_report.add("pool_rebuild", error=exc)
                metrics.inc("executor.pool_rebuild")
                for i in unfinished:
                    attempts[i] += 1
                    metrics.inc("executor.retry")
                _teardown_pool(pool)
                pool = None
                time.sleep(min(_BACKOFF_BASE_S * (2 ** rebuilds), _BACKOFF_CAP_S))
                rebuilds += 1
            except _SerialDegrade as deg:
                degraded = True
                _harvest_done(futures, results, unfinished)
                _failure_report.add("fallback", error=deg.error)
                metrics.inc("executor.fallback")
                _teardown_pool(pool)
                pool = None
                for i in sorted(unfinished):
                    results[i] = _run_serial_task(
                        call, i, items[i], attempts[i], max_retries
                    )
                unfinished.clear()
            except _PoolRecovery as rec:
                _harvest_done(futures, results, unfinished)
                if rec.kind == "task_timeout":
                    _failure_report.add(
                        "task_timeout", task_index=rec.waiting_on,
                        attempt=attempts[rec.waiting_on],
                        detail=f"no result within {task_timeout}s",
                    )
                    metrics.inc("executor.task_timeout")
                else:
                    _failure_report.add(
                        "pool_rebuild", task_index=rec.waiting_on,
                        attempt=attempts[rec.waiting_on], error=rec.error,
                    )
                metrics.inc("executor.pool_rebuild")
                # The pool is unusable; every unfinished task gets a fresh
                # attempt so deterministic injections can't repeat forever.
                for i in unfinished:
                    attempts[i] += 1
                    metrics.inc("executor.retry")
                # Kills the hung/poisoned workers too ("task killed").
                _teardown_pool(pool)
                pool = None
                time.sleep(min(_BACKOFF_BASE_S * (2 ** rebuilds), _BACKOFF_CAP_S))
                rebuilds += 1
        if pool is not None:
            # Healthy completion: every submitted task resolved, workers
            # are idle — an orderly shutdown costs nothing.
            pool.shutdown(wait=True)
            pool = None
        if not degraded:
            metrics.inc("executor.parallel_batches")
        return results
    finally:
        if pool is not None:
            # Abnormal exit (a TaskError is propagating): don't wait on
            # workers that may still be mid-task or hung.
            _teardown_pool(pool)


def _collect(
    futures: dict[int, concurrent.futures.Future],
    results: list,
    unfinished: set[int],
    attempts: list[int],
    pool: ProcessPoolExecutor,
    call: _FaultyCall,
    items: list,
    task_timeout: float | None,
    max_retries: int,
) -> None:
    """Collect one round of futures in submission order.

    Transient task failures are resubmitted into the same (healthy)
    pool; pool-level failures raise :class:`_PoolRecovery` /
    :class:`_SerialDegrade` for the caller to handle.
    """
    for i in sorted(futures):
        if i not in unfinished:
            continue
        while True:
            try:
                results[i] = futures[i].result(timeout=task_timeout)
                unfinished.discard(i)
                break
            except TransientTaskError as exc:
                if attempts[i] >= max_retries:
                    _failure_report.add(
                        "task_error", task_index=i, attempt=attempts[i],
                        error=exc,
                    )
                    metrics.inc("executor.task_error")
                    raise TaskError(i, exc, traceback.format_exc()) from exc
                attempts[i] += 1
                _failure_report.add(
                    "retry", task_index=i, attempt=attempts[i], error=exc,
                    detail="transient task failure",
                )
                metrics.inc("executor.retry")
                futures[i] = pool.submit(
                    call, (i, attempts[i], True, items[i])
                )
            except BrokenProcessPool as exc:
                raise _PoolRecovery("pool_rebuild", i, exc) from None
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:
                timed_out = isinstance(
                    exc, (concurrent.futures.TimeoutError, TimeoutError)
                ) and not futures[i].done()
                if timed_out:
                    # The wait expired; the task is still running (hung).
                    raise _PoolRecovery(
                        "task_timeout", i, TimeoutError(f"task {i} timed out")
                    ) from None
                if _is_pickling_error(exc):
                    raise _SerialDegrade(exc) from None
                if isinstance(exc, OSError) and not _raised_in_worker(exc):
                    # OS-level pool machinery failure, not a task bug.
                    raise _PoolRecovery("pool_rebuild", i, exc) from None
                _failure_report.add(
                    "task_error", task_index=i, attempt=attempts[i], error=exc
                )
                metrics.inc("executor.task_error")
                raise TaskError(i, exc, traceback.format_exc()) from exc


#: The process pool only pays off for a matrix of at least this many
#: elements — below it, in-process batch dispatch beats pickling.
_POOL_MIN_ELEMS = 200_000


def spawn_seeds(seed: Any, n: int) -> list[np.random.SeedSequence]:
    """``n`` independent child seeds derived from ``seed``.

    The children are statistically independent streams with a
    deterministic derivation (``SeedSequence.spawn``), so a batch seeded
    this way produces the same results whether its tasks run serially, in
    any process layout, or in any completion order.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    elif isinstance(seed, np.random.Generator):
        ss = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
    else:
        ss = np.random.SeedSequence(seed)
    return ss.spawn(n)


# -- NMF batch driver --------------------------------------------------------
#
# The one fan-out every analysis layer shares.  A *spec* is the keyword
# dict for repro.factorization.nmf.NMF plus optional "W0"/"H0" arrays;
# the driver handles caching, dispatch, and result bundling.


def _fit_nmf_task(payload: tuple) -> dict[str, np.ndarray]:
    """Worker-side single fit.  Module-level for picklability."""
    a, spec = payload
    from repro.factorization.kernels import batched_nmf_fits

    return batched_nmf_fits(a, [spec])[0]


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
    workers: int | None = None,
    cache: ResultCache | None = None,
    use_cache: bool = True,
    kernel: str | None = None,
) -> list[dict[str, np.ndarray]]:
    """Fit a batch of NMF configurations against one matrix.

    Each spec holds :class:`~repro.factorization.nmf.NMF` constructor
    keywords plus optional ``W0``/``H0`` initialization arrays.  Specs
    must be fully deterministic (pre-drawn inits or deterministic init
    schemes) — that is what makes the cache and the process pool
    transparent.  ``a`` may also be a ``scipy.sparse`` matrix, which the
    engine keeps sparse in the solver hot loops.  Returns one bundle per
    spec, in spec order, each with ``w``, ``h``, ``err``, ``n_iter``,
    ``converged``.

    Cache misses run through
    :func:`repro.factorization.kernels.batched_nmf_fits` in this
    process, or — when ``workers > 1``, more than one dense spec misses
    and ``a`` has at least ``_POOL_MIN_ELEMS`` elements — one spec per
    process-pool task through the same engine.  Both produce
    bit-identical bundles; under an active fault plan with retries
    enabled, pool recovery reproduces the fault-free results bit for
    bit (pre-drawn state means a retried task cannot consume different
    randomness).  ``kernel`` accepts only ``None`` or ``"batched"`` and
    changes nothing; it remains for existing callers.
    """
    if kernel not in (None, "batched"):
        raise ValueError(f"kernel must be None or 'batched', got {kernel!r}")
    is_sparse = scipy.sparse.issparse(a)
    if not is_sparse:
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
            todo = [spec for _, _, spec in pending]
            if (
                not is_sparse
                and len(todo) > 1
                and resolve_workers(workers) > 1
                and a.size >= _POOL_MIN_ELEMS
            ):
                metrics.inc("runtime.nmf_strategy.pool")
                fresh = parallel_map(
                    _fit_nmf_task, [(a, spec) for spec in todo], workers=workers
                )
            else:
                from repro.factorization.kernels import batched_nmf_fits

                metrics.inc("runtime.nmf_strategy.batched")
                fresh = batched_nmf_fits(a, todo)
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
