"""Request broker: micro-batching for the analysis service.

Every concurrent request that reaches an NMF-bearing endpoint (typing,
flavors, anchors) ultimately calls :func:`repro.runtime.run_nmf_fits`
with a handful of specs; every search request ultimately calls
``search_many`` with a handful of queries.  Served one request at a
time, none of the batched-kernel amortization built in PR 3 is
reachable.  The broker restores it:

* requests enter a **lane** (one per request family).  The lane is
  work-conserving: an idle lane dispatches a request the moment it
  arrives, and requests that arrive while a batch is running queue up
  and dispatch together — up to ``max_batch`` of them — as soon as the
  kernel returns.  Nothing ever waits on a timer, so batches form only
  from load the lane could not have served sooner anyway;
* each batch dispatches as **one** kernel call — NMF jobs grouped
  by matrix are concatenated into a single ``run_nmf_fits`` (identical
  jobs dedupe to one solve), search jobs grouped by (tree, limit) are
  flattened into a single ``search_many``;
* each request's *finish* continuation slices its share of the batch
  result and builds its response.  The lane thread resolves futures with
  the **raw** slice only; ``finish`` runs lazily on the thread that
  waits on the :class:`PendingResult`, so response building for a batch
  of N parallelizes across N handler threads instead of serializing on
  the dispatcher.

Because ``run_nmf_fits`` is bit-identical across batch compositions and
shares the content-addressed cache, a coalesced response is byte-equal
to the response the same request would get alone — batching is purely a
throughput lever.

``coalesce=False`` routes every request through the *same* dispatch
code inline on its caller thread (batch of one): the measurable
no-batching baseline for ``BENCH_service.json``.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Sequence

from repro.runtime.executor import run_nmf_fits
from repro.runtime.metrics import metrics
from repro.runtime.sanitize import make_condition, make_lock
from repro.service.admission import Deadline, DeadlineExceeded


class BrokerClosed(RuntimeError):
    """Raised for requests submitted to a broker that is shutting down."""


@dataclass
class NmfJob:
    """One request's share of a coalesced NMF batch.

    ``matrix`` is the kernel input (dense or sparse); ``group`` keys
    which jobs may share a kernel call (same matrix object).  ``specs``
    are fully deterministic (pre-drawn inits), so slicing them out of a
    larger batch cannot change their results.  ``dedup_key`` (optional)
    marks jobs whose (matrix, specs) are identical: they share one solve
    and each still runs its own ``finish`` (on its own waiting thread —
    ``finish`` must therefore not mutate the raw bundles it receives).
    ``deadline`` (optional) lets the dispatcher drop the job with
    :class:`DeadlineExceeded` if it expires while still queued.
    """

    matrix: Any
    group: Hashable
    specs: list
    finish: Callable[[Sequence[dict]], Any]
    dedup_key: Hashable | None = None
    deadline: Deadline | None = None


@dataclass
class SearchJob:
    """One request's share of a coalesced ``search_many`` batch."""

    queries: list
    tree: Any
    limit: int | None
    finish: Callable[[Sequence[list]], Any]
    deadline: Deadline | None = None


class PendingResult:
    """A coalesced request's handle: raw batch slice + lazy ``finish``.

    The dispatcher resolves the inner future with the request's raw
    result slice; ``result()`` then runs the job's ``finish`` on the
    *calling* thread (memoized, so repeated calls are safe).  A batch
    failure or a ``finish`` error raises here — the request fails, never
    its batch siblings.
    """

    __slots__ = ("_fut", "_finish", "_lock", "_done", "_value", "_exc")

    def __init__(self, fut: Future, finish: Callable) -> None:
        self._fut = fut
        self._finish = finish
        self._lock = make_lock("broker.pending")
        self._done = False
        self._value: Any = None
        self._exc: BaseException | None = None

    def result(self, timeout: float | None = None):
        raw = self._fut.result(timeout)
        with self._lock:
            if not self._done:
                try:
                    self._value = self._finish(raw)
                except BaseException as exc:
                    self._exc = exc
                self._done = True
            if self._exc is not None:
                raise self._exc
            return self._value


def _resolve(fut: Future, result_slice) -> None:
    if not fut.done():
        fut.set_result(result_slice)


def _fail(batch: list[tuple[Any, Future]], exc: BaseException) -> None:
    for _, fut in batch:
        if not fut.done():
            fut.set_exception(exc)


class _Lane:
    """One work-conserving queue with a dispatcher thread.

    States: *idle* (queue empty, dispatcher waiting) → *dispatching*
    (the dispatcher took everything queued, up to ``max_batch``, and
    handed it to the dispatch callable).  Arrivals during a dispatch
    queue up and form the next batch the moment the kernel returns; an
    arrival at an idle lane dispatches at once, as a batch of one.
    """

    def __init__(
        self,
        name: str,
        dispatch: Callable[[list], None],
        max_batch: int,
    ) -> None:
        self.name = name
        self._dispatch = dispatch
        self._max_batch = max_batch
        self._cond = make_condition("broker.lane")
        self._queue: list[tuple[Any, Future]] = []
        self._closing = False
        self._thread = threading.Thread(
            target=self._run, name=f"broker-{name}", daemon=True
        )
        self._thread.start()

    def submit(self, job) -> Future:
        fut: Future = Future()
        with self._cond:
            if self._closing:
                raise BrokerClosed(f"broker lane {self.name!r} is closed")
            self._queue.append((job, fut))
            self._cond.notify_all()
        return fut

    def close(self) -> None:
        """Drain: queued jobs dispatch, then the thread exits."""
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        self._thread.join()

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closing:
                    self._cond.wait()
                if not self._queue:  # closing and fully drained
                    return
                batch = self._queue[: self._max_batch]
                del self._queue[: self._max_batch]
            _run_batch(self.name, self._dispatch, batch)


def _run_batch(
    name: str,
    dispatch: Callable[[list], None],
    batch: list,
    _unused: object = None,  # e2ebench/traced_server.py passes a 4th argument
) -> None:
    # Requests whose deadline expired while queued never reach the
    # backend: they fail with DeadlineExceeded here, before dispatch,
    # so a wedged lane cannot also waste kernel time on dead requests.
    live: list = []
    expired: list = []
    for job, fut in batch:
        deadline = job.deadline
        if deadline is not None and deadline.expired():
            expired.append((job, fut))
        else:
            live.append((job, fut))
    if name == "nmf":
        if expired:
            metrics.inc("broker.nmf.expired", len(expired))
        metrics.inc("broker.nmf.batches")
        metrics.inc("broker.nmf.requests", len(live))
        metrics.observe("broker.nmf.batch_size", float(len(live)))
        timer = metrics.timer("broker.nmf.dispatch")
    else:
        if expired:
            metrics.inc("broker.search.expired", len(expired))
        metrics.inc("broker.search.batches")
        metrics.inc("broker.search.requests", len(live))
        metrics.observe("broker.search.batch_size", float(len(live)))
        timer = metrics.timer("broker.search.dispatch")
    if expired:
        _fail(
            expired,
            DeadlineExceeded(
                f"deadline expired in the {name!r} queue before dispatch"
            ),
        )
    if not live:
        return
    with timer:
        try:
            dispatch(live)
        except BaseException as exc:  # defensive: dispatch itself failed
            _fail(live, exc)


class RequestBroker:
    """Two coalescing lanes — ``nmf`` and ``search`` — over the runtime.

    ``search_many`` is the batched query callable (typically the sharded
    repository's bound method).  Each NMF batch runs as one stacked
    engine call: that is the point of coalescing.  A failing kernel call
    fails the requests of its group only, with the kernel's own
    exception.
    """

    def __init__(
        self,
        *,
        search_many: Callable | None = None,
        max_batch: int = 32,
        coalesce: bool = True,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._search_many = search_many
        self.coalesce = coalesce
        self.max_batch = max_batch
        self._closed = False
        self._nmf_lane: _Lane | None = None
        self._search_lane: _Lane | None = None
        if coalesce:
            self._nmf_lane = _Lane("nmf", self._dispatch_nmf, max_batch)
            self._search_lane = _Lane(
                "search", self._dispatch_search, max_batch
            )

    # -- submission ----------------------------------------------------------

    def submit_nmf(self, job: NmfJob) -> PendingResult:
        if self._nmf_lane is not None:
            return PendingResult(self._nmf_lane.submit(job), job.finish)
        return self._inline("nmf", self._dispatch_nmf, job)

    def submit_search(self, job: SearchJob) -> PendingResult:
        if self._search_lane is not None:
            return PendingResult(self._search_lane.submit(job), job.finish)
        return self._inline("search", self._dispatch_search, job)

    def _inline(self, name: str, dispatch, job) -> PendingResult:
        """No-coalescing mode: same dispatch path, batch of exactly one."""
        if self._closed:
            raise BrokerClosed(f"broker lane {name!r} is closed")
        fut: Future = Future()
        _run_batch(name, dispatch, [(job, fut)])
        return PendingResult(fut, job.finish)

    def close(self) -> None:
        """Drain both lanes; afterwards submissions raise BrokerClosed."""
        self._closed = True
        for lane in (self._nmf_lane, self._search_lane):
            if lane is not None:
                lane.close()

    # -- dispatchers ---------------------------------------------------------

    def _dispatch_nmf(self, batch: list[tuple[NmfJob, Future]]) -> None:
        groups: dict[Hashable, list[tuple[NmfJob, Future]]] = {}
        for job, fut in batch:
            groups.setdefault(job.group, []).append((job, fut))
        for group_jobs in groups.values():
            # Dedup identical (matrix, specs) requests: one solve, many
            # finishes.  Jobs without a dedup key never alias.
            unique: dict[Hashable, list[tuple[NmfJob, Future]]] = {}
            order: list[Hashable] = []
            for job, fut in group_jobs:
                key = job.dedup_key if job.dedup_key is not None else object()
                if key not in unique:
                    unique[key] = []
                    order.append(key)
                unique[key].append((job, fut))
            deduped = len(group_jobs) - len(order)
            if deduped:
                metrics.inc("broker.nmf.deduped", deduped)
            specs: list = []
            slices: dict[Hashable, tuple[int, int]] = {}
            for key in order:
                rep = unique[key][0][0]
                slices[key] = (len(specs), len(specs) + len(rep.specs))
                specs.extend(rep.specs)
            matrix = unique[order[0]][0][0].matrix
            try:
                bundles = run_nmf_fits(matrix, specs)
            except BaseException as exc:
                _fail(group_jobs, exc)
                continue
            for key in order:
                lo, hi = slices[key]
                for _job, fut in unique[key]:
                    _resolve(fut, bundles[lo:hi])

    def _dispatch_search(self, batch: list[tuple[SearchJob, Future]]) -> None:
        if self._search_many is None:
            _fail(batch, RuntimeError("broker has no search_many callable"))
            return
        groups: dict[tuple, list[tuple[SearchJob, Future]]] = {}
        for job, fut in batch:
            groups.setdefault((id(job.tree), job.limit), []).append((job, fut))
        for group_jobs in groups.values():
            tree = group_jobs[0][0].tree
            limit = group_jobs[0][0].limit
            flat: list = []
            spans: list[tuple[int, int]] = []
            for job, _ in group_jobs:
                spans.append((len(flat), len(flat) + len(job.queries)))
                flat.extend(job.queries)
            try:
                results = self._search_many(flat, tree=tree, limit=limit)
            except BaseException as exc:
                _fail(group_jobs, exc)
                continue
            for (_job, fut), (lo, hi) in zip(group_jobs, spans):
                _resolve(fut, results[lo:hi])
