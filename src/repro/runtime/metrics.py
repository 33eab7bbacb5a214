"""Lightweight named counters and wall-time timers.

A process-global :class:`MetricsRegistry` collects what the analysis
runtime does — factorizations solved, solver iterations, cache hits and
misses, seconds spent in each hot region — so that a benchmark or a CLI
run can end with one ``runtime.summary()`` report instead of ad-hoc
prints.  Everything is optional and cheap: a counter bump is a dict add
under a lock, a timer is two ``perf_counter`` calls.  Every task runs in
the calling process, so the registry sees all of them.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.runtime.sanitize import lock_factory

#: Histogram bucket geometry: bucket 0 holds values ≤ ``_HIST_MIN``;
#: bucket ``i`` (i ≥ 1) holds ``(_HIST_MIN * r^(i-1), _HIST_MIN * r^i]``
#: with ratio ``r = 2^0.25`` (~19% wide), so quantile estimates carry at
#: most ~9% relative error while a full latency range (1µs .. minutes)
#: needs only ~110 sparse buckets.
_HIST_MIN = 1e-6
_HIST_RATIO = 2.0 ** 0.25
_HIST_LOG_RATIO = math.log(_HIST_RATIO)


@dataclass
class HistogramStat:
    """Log-bucketed distribution of one named quantity (typically seconds).

    Buckets are geometric and stored sparsely, so memory stays bounded
    under unbounded request streams while p50/p99 remain accurate to the
    bucket width.  Exact min/max/total are tracked alongside, and
    quantile estimates are clamped into ``[min, max]`` so single-sample
    histograms report the exact value.
    """

    counts: dict[int, int] = field(default_factory=dict)
    count: int = 0
    total: float = 0.0
    min_value: float = math.inf
    max_value: float = 0.0

    @staticmethod
    def bucket_of(value: float) -> int:
        if value <= _HIST_MIN:
            return 0
        return int(math.log(value / _HIST_MIN) / _HIST_LOG_RATIO) + 1

    def add(self, value: float) -> None:
        if value < 0.0:
            value = 0.0
        idx = self.bucket_of(value)
        self.counts[idx] = self.counts.get(idx, 0) + 1
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 <= q <= 1``) from bucket midpoints."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = max(math.ceil(q * self.count), 1)
        running = 0
        for idx in sorted(self.counts):
            running += self.counts[idx]
            if running >= rank:
                if idx == 0:
                    est = _HIST_MIN
                else:
                    # Geometric midpoint of the bucket's bounds.
                    est = _HIST_MIN * _HIST_RATIO ** (idx - 0.5)
                return min(max(est, self.min_value), self.max_value)
        return self.max_value  # pragma: no cover - counts always sum to count

    def to_dict(self) -> dict[str, float | int]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min_value if self.count else 0.0,
            "max": self.max_value,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


@dataclass
class TimerStat:
    """Accumulated wall-time for one named region."""

    total_s: float = 0.0
    count: int = 0
    max_s: float = 0.0

    def add(self, elapsed: float) -> None:
        self.total_s += elapsed
        self.count += 1
        if elapsed > self.max_s:
            self.max_s = elapsed

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


@dataclass
class MetricsRegistry:
    """Thread-safe registry of named counters, timers, and histograms."""

    counters: dict[str, int] = field(default_factory=dict)
    timers: dict[str, TimerStat] = field(default_factory=dict)
    histograms: dict[str, HistogramStat] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=lock_factory("metrics.registry"), repr=False
    )

    # -- counters ------------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (creating it at zero)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        with self._lock:
            return self.counters.get(name, 0)

    # -- timers --------------------------------------------------------------

    def record_time(self, name: str, elapsed_s: float) -> None:
        """Fold an externally measured duration into timer ``name``."""
        with self._lock:
            self.timers.setdefault(name, TimerStat()).add(elapsed_s)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """``with metrics.timer("nmf.fit"): ...`` wall-time context."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.record_time(name, time.perf_counter() - t0)

    # -- histograms ----------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Fold one sample into histogram ``name`` (creating it empty).

        The service layer records per-endpoint request latencies here;
        the broker records batch sizes.  Values are unit-agnostic —
        latencies are seconds by convention (``*.latency`` names).
        """
        with self._lock:
            self.histograms.setdefault(name, HistogramStat()).add(value)

    @contextmanager
    def latency(self, name: str) -> Iterator[None]:
        """``with metrics.latency("service.search"): ...`` histogram timing."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - t0)

    def histogram(self, name: str) -> HistogramStat:
        """Copy of histogram ``name`` (empty if never observed)."""
        with self._lock:
            stat = self.histograms.get(name)
            if stat is None:
                return HistogramStat()
            return HistogramStat(
                counts=dict(stat.counts),
                count=stat.count,
                total=stat.total,
                min_value=stat.min_value,
                max_value=stat.max_value,
            )

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict copy of all metrics (counters + timers + histograms)."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "timers": {
                    k: {
                        "total_s": v.total_s,
                        "count": v.count,
                        "mean_s": v.mean_s,
                        "max_s": v.max_s,
                    }
                    for k, v in self.timers.items()
                },
                "histograms": {
                    k: v.to_dict() for k, v in self.histograms.items()
                },
            }

    def cache_stats(self, prefix: str = "cache") -> dict[str, int | float]:
        """Hit/miss/rate view over the ``{prefix}.hit``/``.miss`` counters."""
        hits = self.get(f"{prefix}.hit")
        misses = self.get(f"{prefix}.miss")
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
        }

    def summary(self) -> str:
        """Human-readable report of everything recorded so far."""
        snap = self.snapshot()
        lines = ["== runtime metrics =="]
        if snap["counters"]:
            lines.append("counters:")
            for name in sorted(snap["counters"]):
                lines.append(f"  {name:<32s} {snap['counters'][name]}")
        if snap["timers"]:
            lines.append("timers:")
            for name in sorted(snap["timers"]):
                t = snap["timers"][name]
                lines.append(
                    f"  {name:<32s} total {t['total_s']:8.3f}s  "
                    f"n={t['count']:<6d} mean {t['mean_s'] * 1e3:8.2f}ms"
                )
        if snap["histograms"]:
            lines.append("histograms:")
            for name in sorted(snap["histograms"]):
                h = snap["histograms"][name]
                lines.append(
                    f"  {name:<32s} n={h['count']:<6d} "
                    f"p50 {h['p50'] * 1e3:8.2f}ms  p99 {h['p99'] * 1e3:8.2f}ms"
                )
        cs = self.cache_stats()
        if cs["hits"] or cs["misses"]:
            lines.append(
                f"cache: {cs['hits']} hit(s), {cs['misses']} miss(es) "
                f"({cs['hit_rate']:.0%} hit rate)"
            )
        if len(lines) == 1:
            lines.append("(nothing recorded)")
        return "\n".join(lines)

    def reset(self) -> None:
        """Drop every metric (tests and benchmark isolation)."""
        with self._lock:
            self.counters.clear()
            self.timers.clear()
            self.histograms.clear()


#: The process-global registry every library component records into.
metrics = MetricsRegistry()
