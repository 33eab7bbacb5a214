"""Closed-loop load generator for the analysis service.

Locust-style but stdlib-only: ``concurrency`` worker threads each own a
keep-alive :class:`~repro.service.client.ServiceClient` and issue
requests back-to-back (closed loop — a worker's next request starts when
its previous response lands).  The request mix is a weighted endpoint
distribution; request parameters are drawn from the served corpus
(``GET /corpus``) with a seeded per-worker RNG, so a run is
reproducible.

NMF-bearing requests draw from a disjoint seed range per run
(``nmf_seed_base``) — with varying seeds every request is a distinct
solve, so measured throughput is kernel throughput, not cache-hit
throughput.  Set ``vary_nmf_seeds=False`` to measure the cached regime
instead.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.service.client import ClientPool, ServiceClient
from repro.service.state import DEGRADE_FLOOR_S

DEFAULT_MIX = "search=4,similar=2,coverage=2,typing=1,flavors=1,anchors=1"
#: NMF-heavy mix for overload phases — pressure lands on the heavy gate.
CHAOS_MIX = "search=2,similar=1,typing=2,flavors=1,anchors=1"
#: Per-request budget of the chaos drill's tight-deadline phase (20 ms):
#: below the server's degrade floor, so each NMF request the baseline
#: already fitted is answered from the result cache, flagged degraded.
TIGHT_DEADLINE_MS = DEGRADE_FLOOR_S * 1e3 / 2.5

_ENDPOINTS = (
    "search", "similar", "coverage", "typing", "flavors", "anchors", "healthz",
)


def parse_mix(spec: str) -> dict[str, float]:
    """Parse ``"search=4,typing=1"`` into endpoint weights."""
    mix: dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, raw = part.partition("=")
        name = name.strip()
        if name not in _ENDPOINTS:
            raise ValueError(
                f"unknown endpoint {name!r}; choose from {_ENDPOINTS}"
            )
        try:
            weight = float(raw) if raw else 1.0
        except ValueError:
            raise ValueError(f"bad weight in mix part {part!r}") from None
        if weight < 0:
            raise ValueError(f"negative weight in mix part {part!r}")
        if weight > 0:
            mix[name] = mix.get(name, 0.0) + weight
    if not mix:
        raise ValueError(f"empty request mix {spec!r}")
    return mix


def _quantile(sorted_values: list[float], q: float) -> float:
    """Exact nearest-rank quantile of a pre-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(int(math.ceil(q * len(sorted_values))), 1)
    return sorted_values[rank - 1]


@dataclass
class _EndpointStats:
    latencies_s: list[float] = field(default_factory=list)
    errors: int = 0
    shed: int = 0
    deadline_exceeded: int = 0
    degraded: int = 0
    deadline_violations: int = 0

    def to_dict(self) -> dict:
        values = sorted(self.latencies_s)
        count = len(values)
        return {
            "count": count,
            "errors": self.errors,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
            "degraded": self.degraded,
            "deadline_violations": self.deadline_violations,
            "mean_s": (sum(values) / count) if count else 0.0,
            "p50_s": _quantile(values, 0.50),
            "p90_s": _quantile(values, 0.90),
            "p99_s": _quantile(values, 0.99),
            "max_s": values[-1] if count else 0.0,
        }


@dataclass
class LoadReport:
    """Aggregate result of one load-generation run.

    Every response lands in exactly one bucket: a latency sample
    (HTTP 200 — ``degraded`` additionally counts the 200s served from
    cache), ``shed`` (503 at the admission gate), ``deadline_exceeded``
    (504), or ``errors`` (anything else).  ``deadline_violations``
    counts responses — any bucket — that took longer than the request
    deadline plus scheduling grace: the client-visible "did anyone
    block past their deadline" check.
    """

    concurrency: int
    duration_s: float
    total_requests: int
    total_errors: int
    requests_per_s: float
    endpoints: dict[str, dict]
    error_samples: list[str]
    shed: int = 0
    deadline_exceeded: int = 0
    degraded: int = 0
    deadline_violations: int = 0
    overall_p99_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "concurrency": self.concurrency,
            "duration_s": self.duration_s,
            "total_requests": self.total_requests,
            "total_errors": self.total_errors,
            "requests_per_s": self.requests_per_s,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
            "degraded": self.degraded,
            "deadline_violations": self.deadline_violations,
            "overall_p99_s": self.overall_p99_s,
            "endpoints": dict(sorted(self.endpoints.items())),
            "error_samples": self.error_samples[:10],
        }

    def summary(self) -> str:
        lines = [
            f"{self.total_requests} requests over {self.duration_s:.2f}s "
            f"at concurrency {self.concurrency} — "
            f"{self.requests_per_s:.1f} req/s, {self.total_errors} errors, "
            f"{self.shed} shed, {self.deadline_exceeded} past-deadline, "
            f"{self.degraded} degraded"
        ]
        for name, stats in sorted(self.endpoints.items()):
            lines.append(
                f"  {name:<9} n={stats['count']:<5} "
                f"p50={stats['p50_s'] * 1e3:8.2f}ms "
                f"p99={stats['p99_s'] * 1e3:8.2f}ms "
                f"errors={stats['errors']}"
            )
        return "\n".join(lines)


class RequestFactory:
    """Deterministic request construction over a served corpus."""

    def __init__(
        self,
        corpus: dict,
        *,
        nmf_k: int = 4,
        nmf_restarts: int = 2,
        vary_nmf_seeds: bool = True,
        nmf_seed_base: int = 0,
    ) -> None:
        self.course_ids = list(corpus.get("course_ids", ()))
        self.material_ids = list(corpus.get("material_ids", ()))
        self.tag_ids = list(corpus.get("tag_ids", ()))
        if not self.course_ids or not self.material_ids:
            raise ValueError("served corpus has no courses or materials")
        self.nmf_k = nmf_k
        self.nmf_restarts = nmf_restarts
        self.vary_nmf_seeds = vary_nmf_seeds
        self.nmf_seed_base = nmf_seed_base

    def _nmf_seed(self, request_index: int) -> int:
        if not self.vary_nmf_seeds:
            return self.nmf_seed_base
        return self.nmf_seed_base + request_index

    def make(
        self, rng: random.Random, endpoint: str, request_index: int
    ) -> tuple[str, str, dict | None]:
        """Build ``(method, path, body)`` for one request."""
        if endpoint == "healthz":
            return "GET", "/healthz", None
        if endpoint == "search":
            n_tags = rng.randint(1, min(3, len(self.tag_ids)) or 1)
            tags = rng.sample(self.tag_ids, n_tags) if self.tag_ids else []
            return "POST", "/search", {
                "queries": [{"tags": tags}],
                "limit": 10,
            }
        if endpoint == "similar":
            return "POST", "/similar", {
                "material_id": rng.choice(self.material_ids),
                "limit": 10,
            }
        if endpoint == "coverage":
            return "POST", "/coverage", {
                "course_id": rng.choice(self.course_ids),
            }
        if endpoint == "typing":
            return "POST", "/typing", {
                "k": self.nmf_k,
                "seed": self._nmf_seed(request_index),
                "n_restarts": self.nmf_restarts,
            }
        if endpoint == "flavors":
            return "POST", "/flavors", {
                "k": 3,
                "seed": self._nmf_seed(request_index),
                "n_restarts": self.nmf_restarts,
            }
        if endpoint == "anchors":
            return "POST", "/anchors", {
                "course_id": rng.choice(self.course_ids),
                "seed": self._nmf_seed(request_index),
                "n_restarts": self.nmf_restarts,
            }
        raise ValueError(f"unknown endpoint {endpoint!r}")


def _pick(rng: random.Random, names: list[str], cumulative: list[float]) -> str:
    x = rng.random() * cumulative[-1]
    for name, edge in zip(names, cumulative):
        if x < edge:
            return name
    return names[-1]


#: Client-side slack on top of the server deadline before a response
#: counts as a violation: network + thread-scheduling noise, not policy.
_DEADLINE_GRACE_S = 1.0


def run_load(
    host: str,
    port: int,
    *,
    concurrency: int = 8,
    duration_s: float | None = 5.0,
    requests_per_worker: int | None = None,
    mix: str | dict[str, float] = DEFAULT_MIX,
    seed: int = 0,
    nmf_k: int = 4,
    nmf_restarts: int = 2,
    vary_nmf_seeds: bool = True,
    nmf_seed_base: int = 0,
    timeout: float = 120.0,
    deadline_ms: float | None = None,
    pool: ClientPool | None = None,
) -> LoadReport:
    """Drive the service with a closed-loop thread-per-client workload.

    Stops after ``duration_s`` seconds (workers finish their in-flight
    request) or, if ``requests_per_worker`` is given, after exactly that
    many requests per worker — the deterministic mode CI smoke uses.

    ``deadline_ms`` attaches a budget to every request (and arms the
    per-response deadline-violation check).  ``pool`` reuses an existing
    :class:`ClientPool`'s keep-alive connections instead of building a
    fresh cohort — pass the same pool across phases of a multi-phase
    run so phase boundaries don't measure TCP handshakes.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    if duration_s is None and requests_per_worker is None:
        raise ValueError("need duration_s or requests_per_worker")
    weights = parse_mix(mix) if isinstance(mix, str) else dict(mix)
    names = sorted(weights)
    cumulative: list[float] = []
    running = 0.0
    for name in names:
        running += weights[name]
        cumulative.append(running)

    probe = ServiceClient(host, port, timeout=timeout)
    try:
        status, corpus = probe.get("/corpus")
        if status != 200:
            raise RuntimeError(f"GET /corpus failed with {status}: {corpus}")
    finally:
        probe.close()
    factory = RequestFactory(
        corpus,
        nmf_k=nmf_k,
        nmf_restarts=nmf_restarts,
        vary_nmf_seeds=vary_nmf_seeds,
        nmf_seed_base=nmf_seed_base,
    )

    per_worker_stats: list[dict[str, _EndpointStats]] = [
        {} for _ in range(concurrency)
    ]
    error_samples: list[str] = []
    samples_lock = threading.Lock()
    start_gate = threading.Event()
    deadline_holder: list[float] = []
    budget_s = (deadline_ms / 1e3) if deadline_ms is not None else None

    def classify(
        bucket: _EndpointStats, endpoint: str, status: int, doc: dict,
        elapsed: float,
    ) -> None:
        if budget_s is not None and elapsed > budget_s + _DEADLINE_GRACE_S:
            bucket.deadline_violations += 1
        if status == 200:
            bucket.latencies_s.append(elapsed)
            if isinstance(doc, dict) and doc.get("degraded"):
                bucket.degraded += 1
        elif status == 503 and doc.get("shed"):
            bucket.shed += 1
        elif status == 504:
            bucket.deadline_exceeded += 1
        else:
            bucket.errors += 1
            with samples_lock:
                error_samples.append(
                    f"{endpoint}: HTTP {status} {doc.get('error')}"
                )

    def worker(widx: int) -> None:
        rng = random.Random(seed * 1_000_003 + widx)
        stats = per_worker_stats[widx]
        client = (
            pool.client(widx)
            if pool is not None
            else ServiceClient(host, port, timeout=timeout)
        )
        start_gate.wait()
        request_index = widx * 1_000_000  # disjoint per-worker NMF seed ranges
        issued = 0
        try:
            while True:
                if requests_per_worker is not None and issued >= requests_per_worker:
                    break
                if deadline_holder and time.perf_counter() >= deadline_holder[0]:
                    break
                endpoint = _pick(rng, names, cumulative)
                method, path, body = factory.make(rng, endpoint, request_index)
                request_index += 1
                issued += 1
                bucket = stats.setdefault(endpoint, _EndpointStats())
                t0 = time.perf_counter()
                try:
                    status, doc = client.request(
                        method, path, body, deadline_ms=deadline_ms
                    )
                except Exception as exc:  # noqa: BLE001 — record, keep looping
                    elapsed = time.perf_counter() - t0
                    if (
                        budget_s is not None
                        and elapsed > budget_s + _DEADLINE_GRACE_S
                    ):
                        bucket.deadline_violations += 1
                    bucket.errors += 1
                    with samples_lock:
                        error_samples.append(f"{endpoint}: {exc}")
                    continue
                classify(
                    bucket, endpoint, status, doc, time.perf_counter() - t0
                )
        finally:
            if pool is None:
                client.close()

    threads = [
        threading.Thread(target=worker, args=(w,), name=f"loadgen-{w}")
        for w in range(concurrency)
    ]
    for t in threads:
        t.start()
    t_start = time.perf_counter()
    if duration_s is not None:
        deadline_holder.append(t_start + duration_s)
    start_gate.set()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t_start

    merged: dict[str, _EndpointStats] = {}
    all_latencies: list[float] = []
    for stats in per_worker_stats:
        for name, bucket in stats.items():
            agg = merged.setdefault(name, _EndpointStats())
            agg.latencies_s.extend(bucket.latencies_s)
            agg.errors += bucket.errors
            agg.shed += bucket.shed
            agg.deadline_exceeded += bucket.deadline_exceeded
            agg.degraded += bucket.degraded
            agg.deadline_violations += bucket.deadline_violations
            all_latencies.extend(bucket.latencies_s)
    total_requests = sum(
        len(b.latencies_s)
        + b.errors + b.shed + b.deadline_exceeded
        for b in merged.values()
    )
    total_errors = sum(b.errors for b in merged.values())
    all_latencies.sort()
    return LoadReport(
        concurrency=concurrency,
        duration_s=elapsed,
        total_requests=total_requests,
        total_errors=total_errors,
        requests_per_s=(total_requests / elapsed) if elapsed > 0 else 0.0,
        endpoints={name: b.to_dict() for name, b in merged.items()},
        error_samples=error_samples,
        shed=sum(b.shed for b in merged.values()),
        deadline_exceeded=sum(
            b.deadline_exceeded for b in merged.values()
        ),
        degraded=sum(b.degraded for b in merged.values()),
        deadline_violations=sum(
            b.deadline_violations for b in merged.values()
        ),
        overall_p99_s=_quantile(all_latencies, 0.99),
    )


# -- chaos / overload orchestration -------------------------------------------


@dataclass
class ChaosReport:
    """Result of :func:`run_chaos_load`: three phases + invariant checks.

    ``violations`` is empty when every overload invariant held: no
    client blocked past its deadline (+grace), every response fell in a
    known bucket (no 500s), the p99 of *admitted* requests under
    overload stayed within ``p99_budget``× the unloaded p99, and the
    tight-deadline phase served at least one degraded answer.
    """

    phases: dict[str, dict]
    shed: int
    deadline_exceeded: int
    degraded: int
    errors: int
    deadline_violations: int
    p99_ratio: float
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
            "degraded": self.degraded,
            "errors": self.errors,
            "deadline_violations": self.deadline_violations,
            "p99_ratio": self.p99_ratio,
            "violations": list(self.violations),
            "phases": dict(self.phases),
        }

    def summary(self) -> str:
        verdict = "OK" if self.ok else "VIOLATIONS"
        lines = [
            f"chaos loadtest: {verdict} — shed={self.shed} "
            f"deadline_exceeded={self.deadline_exceeded} "
            f"degraded={self.degraded} errors={self.errors} "
            f"deadline_violations={self.deadline_violations} "
            f"p99_ratio={self.p99_ratio:.2f}"
        ]
        lines.extend(f"  VIOLATION: {v}" for v in self.violations)
        return "\n".join(lines)


def run_chaos_load(
    host: str,
    port: int,
    *,
    concurrency: int = 4,
    burst_concurrency: int | None = None,
    requests_per_worker: int = 25,
    seed: int = 0,
    deadline_ms: float = 2000.0,
    mix: str | dict[str, float] = CHAOS_MIX,
    nmf_k: int = 4,
    nmf_restarts: int = 2,
    p99_budget: float = 3.0,
    timeout: float = 120.0,
) -> ChaosReport:
    """Seeded overload/chaos scenario against a running service.

    Three phases over one shared :class:`ClientPool` (connections are
    reused across phase boundaries):

    1. **baseline** — closed-loop at ``concurrency``, fixed NMF seeds
       (warms the result cache and measures the unloaded p99);
    2. **overload** — a burst at ``burst_concurrency`` (default
       4×``concurrency``) with per-request deadlines: the admission
       gates must shed the excess (503) and late requests must 504,
       while admitted requests stay within ``p99_budget``× the
       baseline p99;
    3. **tight** — the baseline's requests again (same ``seed``, fixed
       NMF seeds), each with a ``TIGHT_DEADLINE_MS`` budget below the
       server's degrade floor: every NMF request is answered from the
       factorizations phase 1 cached, flagged degraded.

    Returns a :class:`ChaosReport`; ``report.ok`` is the pass/fail the
    CI smoke gate asserts on.
    """
    burst = burst_concurrency or concurrency * 4
    phases: dict[str, dict] = {}
    violations: list[str] = []
    with ClientPool(host, port, timeout=timeout) as pool:
        baseline = run_load(
            host, port,
            concurrency=concurrency,
            duration_s=None,
            requests_per_worker=requests_per_worker,
            mix=mix,
            seed=seed,
            nmf_k=nmf_k,
            nmf_restarts=nmf_restarts,
            vary_nmf_seeds=False,
            nmf_seed_base=seed,
            timeout=timeout,
            pool=pool,
        )
        phases["baseline"] = baseline.to_dict()

        overload = run_load(
            host, port,
            concurrency=burst,
            duration_s=None,
            requests_per_worker=requests_per_worker,
            mix=mix,
            seed=seed + 1,
            nmf_k=nmf_k,
            nmf_restarts=nmf_restarts,
            vary_nmf_seeds=False,
            nmf_seed_base=seed,
            timeout=timeout,
            deadline_ms=deadline_ms,
            pool=pool,
        )
        phases["overload"] = overload.to_dict()

        tight = run_load(
            host, port,
            concurrency=concurrency,
            duration_s=None,
            requests_per_worker=requests_per_worker,
            mix=mix,
            seed=seed,
            nmf_k=nmf_k,
            nmf_restarts=nmf_restarts,
            vary_nmf_seeds=False,
            nmf_seed_base=seed,
            timeout=timeout,
            deadline_ms=TIGHT_DEADLINE_MS,
            pool=pool,
        )
        phases["tight"] = tight.to_dict()

    reports = [baseline, overload, tight]
    shed = sum(r.shed for r in reports)
    deadline_exceeded = sum(r.deadline_exceeded for r in reports)
    degraded = sum(r.degraded for r in reports)
    errors = sum(r.total_errors for r in reports)
    deadline_violations = sum(r.deadline_violations for r in reports)

    if deadline_violations:
        violations.append(
            f"{deadline_violations} response(s) arrived later than "
            f"deadline + {_DEADLINE_GRACE_S:.0f}s grace"
        )
    if errors:
        samples = "; ".join(
            s for r in reports for s in r.error_samples[:3]
        )
        violations.append(
            f"{errors} unclassified error response(s): {samples}"
        )
    p99_ratio = 0.0
    if baseline.overall_p99_s > 0 and overload.overall_p99_s > 0:
        p99_ratio = overload.overall_p99_s / baseline.overall_p99_s
        if p99_ratio > p99_budget:
            violations.append(
                f"admitted p99 under overload is {p99_ratio:.2f}x the "
                f"unloaded p99 (budget {p99_budget:.1f}x) — admission "
                "is letting queues build"
            )
    if tight.degraded == 0:
        violations.append(
            f"no degraded response under a {TIGHT_DEADLINE_MS:.0f} ms "
            "budget after the baseline warmed the cache — the degrade "
            "path is dead"
        )

    return ChaosReport(
        phases=phases,
        shed=shed,
        deadline_exceeded=deadline_exceeded,
        degraded=degraded,
        errors=errors,
        deadline_violations=deadline_violations,
        p99_ratio=p99_ratio,
        violations=violations,
    )
