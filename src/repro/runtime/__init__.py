"""repro.runtime — execution substrate for the paper's analyses.

The analyses are batches of independent factorizations (multi-restart
NMF, consensus resampling, k-sweep model selection) and highly
repetitive (the same factorization of the same matrix recomputed across
figures, benchmarks, and examples).  This package supplies the three
primitives that exploit that, in the calling process:

* :mod:`~repro.runtime.executor` — the NMF batch driver (one stacked
  engine call per batch of cache misses, pre-drawn initializations) and
  the process-global :class:`FailureReport`;
* :mod:`~repro.runtime.cache` — content-addressed memoization of
  factorization results (in-memory LRU + optional on-disk layer);
* :mod:`~repro.runtime.metrics` — named counters, wall-time timers, and
  cache statistics behind one :func:`summary` report.

Typical configuration, once, at process start::

    import repro.runtime as runtime
    runtime.configure(cache_dir="~/.cache/repro")
    ...
    print(runtime.summary())

or from the environment: ``REPRO_CACHE_DIR=/path``.
"""

from __future__ import annotations

import os

from repro.runtime.cache import (
    NMF_KEY_PARAMS,
    CacheStats,
    ResultCache,
    array_digest,
    content_key,
    matrix_digest,
    result_cache,
)
from repro.runtime.executor import (
    FailureEvent,
    FailureReport,
    failure_report,
    run_nmf_fits,
)
from repro.runtime.faults import (
    FaultPlan,
    active_fault_plan,
    fault_plan_from_env,
    parse_fault_plan,
    set_fault_plan,
)
from repro.runtime.metrics import (
    HistogramStat,
    MetricsRegistry,
    TimerStat,
    metrics,
)
from repro.runtime.sanitize import (
    LockSanitizer,
    LockViolation,
    make_condition,
    make_lock,
    make_rlock,
    sanitizer,
    set_sanitize,
)
from repro.runtime import sanitize as _sanitize

__all__ = [
    "CacheStats",
    "FailureEvent",
    "FailureReport",
    "FaultPlan",
    "HistogramStat",
    "MetricsRegistry",
    "NMF_KEY_PARAMS",
    "ResultCache",
    "TimerStat",
    "active_fault_plan",
    "array_digest",
    "configure",
    "content_key",
    "failure_report",
    "fault_plan_from_env",
    "LockSanitizer",
    "LockViolation",
    "make_condition",
    "make_lock",
    "make_rlock",
    "sanitizer",
    "set_sanitize",
    "matrix_digest",
    "metrics",
    "parse_fault_plan",
    "reset",
    "result_cache",
    "run_nmf_fits",
    "set_fault_plan",
    "summary",
]


def configure(
    *,
    cache_dir: str | os.PathLike | None | object = ...,
    cache_enabled: bool | None = None,
    cache_max_entries: int | None = None,
    fault_plan: FaultPlan | str | None | object = ...,
    sanitize: bool | str | None | object = ...,
) -> None:
    """Configure the process-global runtime in one call.

    ``cache_dir=None`` switches the cache to memory-only;
    ``fault_plan`` arms cache fault injection (a
    :class:`FaultPlan` or ``REPRO_FAULTS``-syntax string; ``None``
    disarms, deferring to the environment); ``sanitize`` arms the lock
    sanitizer for locks created *afterwards* (``"locks"``/``True`` on,
    ``False`` off, ``None`` defers to ``REPRO_SANITIZE`` — enable before
    building the service stack, or via the environment to cover
    module-global locks).  Omitted keywords keep their current values.
    """
    if fault_plan is not ...:
        set_fault_plan(fault_plan)  # type: ignore[arg-type]
    if sanitize is not ...:
        set_sanitize(sanitize)  # type: ignore[arg-type]
    result_cache.configure(
        cache_dir=cache_dir,
        enabled=cache_enabled,
        max_entries=cache_max_entries,
    )


def summary() -> str:
    """Metrics/cache report, plus failure events and sanitizer findings."""
    parts = [metrics.summary()]
    report = failure_report()
    if report:
        parts.append(report.summary())
    counters = sanitizer().counters()
    if counters.get("sanitizer.violations"):
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
        parts.append(f"sanitizer: {pairs}")
    return "\n".join(parts)


def reset() -> None:
    """Reset metrics, the memory cache, the failure report, the sanitizer."""
    metrics.reset()
    result_cache.clear()
    result_cache.stats = CacheStats()
    failure_report().clear()
    _sanitize.reset()
