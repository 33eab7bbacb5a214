"""Analysis-as-a-service: a threaded stdlib HTTP JSON API.

``ReproService`` wraps a :class:`~repro.service.state.ServiceState` and a
:class:`~repro.service.broker.RequestBroker` behind a
:class:`~http.server.ThreadingHTTPServer`.  Handler threads do the cheap
per-request work (parse, validate, serialize); anything touching an NMF
kernel or a batched search is expressed as a broker job, so concurrent
requests coalesce into single kernel calls while each handler blocks on
its own future.  Everything runs in the server process: shard queries
fan out serially over shards held in memory, and no worker process is
started.

Endpoints (all JSON; POST bodies are JSON objects, GET uses query
strings):

====================  ======================================================
``GET /healthz``      liveness, corpus counts, admission state
``GET /metrics``      runtime metrics snapshot (counters, timers,
                      latency histograms, cache stats, failure report)
``GET /corpus``       served ids (courses, sample of materials, tags) —
                      what a load generator needs to form requests
``POST /search``      one or many :class:`SearchQuery` documents
``POST /similar``     Jaccard neighbours of a material
``POST /coverage``    guideline coverage report for a course
``POST /typing``      corpus/family NNMF course typing (Figure 2)
``POST /flavors``     family flavor analysis (Figures 5/7)
``POST /anchors``     anchor-point module recommendations (§5)
====================  ======================================================

Overload behaviour (see docs/ARCHITECTURE.md "Overload & recovery"):
every data route passes an :class:`AdmissionGate` for its endpoint
class — ``heavy`` for the NMF-bearing analyses, ``cheap`` for reads —
and carries a monotonic :class:`Deadline` parsed from the
``X-Deadline-Ms`` header / ``deadline_ms`` param (server default
otherwise).  Shed requests answer 503 with ``Retry-After``; requests
whose budget runs out answer 504, unless a cached factorization can
answer an NMF request instead: that document is served flagged
``"degraded": true``.

Shutdown drains: queued admission waiters shed with a fast 503, the
accept loop stops, in-flight handlers run to completion (handler
threads are joined), then queued broker batches flush.  During draining
new requests get 503 with ``Connection: close``.
"""

from __future__ import annotations

import json
import math
import threading
import time
from concurrent.futures import TimeoutError as _FutureTimeout
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qsl, urlsplit

from repro.runtime import sanitize
from repro.runtime.executor import failure_report
from repro.runtime.metrics import metrics
from repro.service.admission import (
    CHEAP,
    HEAVY,
    AdmissionGate,
    AdmissionShed,
    Deadline,
    DeadlineExceeded,
    NO_DEADLINE,
)
from repro.service.broker import BrokerClosed, NmfJob, RequestBroker
from repro.service.state import (
    DEGRADE_FLOOR_S,
    ServiceError,
    ServiceState,
    parse_number,
)

_MAX_BODY = 8 * 1024 * 1024

#: NMF-bearing routes gated as the ``heavy`` endpoint class.
_HEAVY_ROUTES = frozenset({"/typing", "/flavors", "/anchors"})
#: Control-plane routes that bypass admission entirely (they must stay
#: observable precisely when the gates are refusing everything else).
_UNGATED_ROUTES = frozenset({"/healthz", "/metrics"})


class _Server(ThreadingHTTPServer):
    # ThreadingHTTPServer defaults to daemon handler threads, which are
    # *not* tracked or joined — the opposite of draining.  Non-daemon
    # threads are appended to ``_threads`` and joined by server_close().
    daemon_threads = False
    block_on_close = True
    # The socketserver default backlog (5) drops connections when a
    # client cohort dials in simultaneously; size it for load tests.
    request_queue_size = 128
    service: "ReproService"


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Idle keep-alive connections would otherwise block the drain join
    # forever; a read timeout closes them.
    timeout = 5.0
    # Nagle + delayed ACK costs ~40ms per small keep-alive response.
    disable_nagle_algorithm = True

    server: _Server

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # metrics, not stderr lines

    def do_GET(self) -> None:
        self._handle(is_post=False)

    def do_POST(self) -> None:
        self._handle(is_post=True)

    def _read_params(self, is_post: bool) -> dict:
        if not is_post:
            query = urlsplit(self.path).query
            return dict(parse_qsl(query))
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            # Where the body ends is unknown, so the connection cannot
            # carry another request.
            self.close_connection = True
            raise ServiceError(400, f"invalid Content-Length: {raw_length!r}")
        if length > _MAX_BODY:
            raise ServiceError(413, f"body too large ({length} bytes)")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            doc = json.loads(raw)
        except ValueError as exc:
            raise ServiceError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(doc, dict):
            raise ServiceError(400, "body must be a JSON object")
        return doc

    def _deadline(self, params: dict) -> Deadline:
        """Per-request budget: header beats param beats server default."""
        raw = self.headers.get("X-Deadline-Ms")
        if raw is None:
            raw = params.get("deadline_ms")
        if raw is None:
            budget = self.server.service.state.config.default_deadline_s
            return Deadline.after(budget) if budget is not None else NO_DEADLINE
        ms = parse_number(raw, "deadline_ms")
        if ms <= 0:
            raise ServiceError(400, f"deadline_ms must be > 0, got {raw!r}")
        return Deadline.after(ms / 1000.0)

    def _handle(self, *, is_post: bool) -> None:
        service = self.server.service
        path = urlsplit(self.path).path.rstrip("/") or "/"
        name = path.lstrip("/").split("/", 1)[0] or "root"
        t0 = time.perf_counter()
        retry_after: float | None = None
        try:
            if service.draining:
                raise ServiceError(503, "service is shutting down")
            params = self._read_params(is_post)
            deadline = self._deadline(params)
            gate = service.gate_for(path)
            if gate is None:
                doc = service.route(path, params, deadline)
            else:
                gate.admit(deadline)
                try:
                    doc = service.route(path, params, deadline)
                finally:
                    gate.release()
            status = 200
        except ServiceError as exc:
            status, doc = exc.status, {"error": exc.message}
        except AdmissionShed as exc:
            retry_after = exc.retry_after_s
            status, doc = 503, {
                "error": str(exc), "shed": True, "reason": exc.reason,
            }
        except DeadlineExceeded as exc:
            status, doc = 504, {"error": str(exc), "deadline_exceeded": True}
        except BrokerClosed:
            status, doc = 503, {"error": "service is shutting down"}
        except Exception as exc:  # noqa: BLE001 — a request must not kill its thread
            status, doc = 500, {"error": f"{type(exc).__name__}: {exc}"}
        elapsed = time.perf_counter() - t0
        metrics.observe(f"service.latency.{name}", elapsed)
        metrics.inc("service.requests")
        if status >= 400:
            metrics.inc("service.errors")
            if status == 400:
                metrics.inc("service.errors.400")
            elif status == 404:
                metrics.inc("service.errors.404")
            elif status == 413:
                metrics.inc("service.errors.413")
            elif status == 503:
                metrics.inc("service.errors.503")
            elif status == 504:
                metrics.inc("service.errors.504")
            else:
                metrics.inc("service.errors.500")
        payload = json.dumps(doc).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            if retry_after is not None:
                self.send_header(
                    "Retry-After", str(max(1, math.ceil(retry_after)))
                )
            if service.draining or self.close_connection:
                self.send_header("Connection", "close")
                self.close_connection = True
            self.end_headers()
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            metrics.inc("service.client_disconnects")
            self.close_connection = True


class ReproService:
    """One server: state + broker + HTTP front end.

    Usable as a context manager::

        with ReproService(state) as service:
            host, port = service.address
            ...

    ``close()`` is the graceful-drain sequence; ``final_metrics`` holds
    the metrics snapshot taken after the drain completed.
    """

    def __init__(
        self,
        state: ServiceState,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.state = state
        config = state.config
        self.broker = RequestBroker(
            search_many=self._search_many,
            max_batch=config.max_batch,
            coalesce=config.coalesce,
        )
        self.gates: dict[str, AdmissionGate] = {
            CHEAP: AdmissionGate(
                CHEAP,
                max_inflight=config.max_inflight_cheap,
                max_queue=config.max_queue_cheap,
            ),
            HEAVY: AdmissionGate(
                HEAVY,
                max_inflight=config.max_inflight_heavy,
                max_queue=config.max_queue_heavy,
            ),
        }
        self._host = host
        self._port = port
        self._httpd: _Server | None = None
        self._thread: threading.Thread | None = None
        self._t0 = 0.0
        self.draining = False
        self.final_metrics: dict | None = None

    def _search_many(self, queries, *, tree, limit):
        return self.state.repo.search_many(queries, tree=tree, limit=limit)

    @property
    def address(self) -> tuple[str, int]:
        return self._host, self._port

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self._port}"

    def start(self) -> tuple[str, int]:
        if self._httpd is not None:
            return self.address
        self._httpd = _Server((self._host, self._port), _Handler)
        self._httpd.service = self
        self._port = self._httpd.server_address[1]
        self._t0 = time.perf_counter()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-service",
            daemon=True,
        )
        self._thread.start()
        metrics.inc("service.starts")
        return self.address

    def close(self) -> dict:
        """Drain and stop; idempotent.  Returns the final metrics snapshot.

        Order matters: shed the admission queues (a request parked at a
        gate would otherwise hang the handler join below — it holds a
        handler thread but will never get a slot once traffic stops),
        stop accepting, join in-flight handler threads (they may still
        be blocked on broker futures — the broker is alive), then flush
        the broker's queued batches.
        """
        if self._httpd is None:
            return self.final_metrics or metrics.snapshot()
        self.draining = True
        for gate in self.gates.values():
            gate.drain()  # queued waiters wake and answer a fast 503
        self._httpd.shutdown()  # stop the accept loop
        self._httpd.server_close()  # joins non-daemon handler threads
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.broker.close()  # flush queued batches
        metrics.inc("service.shutdowns")
        self.final_metrics = metrics.snapshot()
        self._httpd = None
        self._thread = None
        return self.final_metrics

    def __enter__(self) -> "ReproService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- routing -------------------------------------------------------------

    def gate_for(self, path: str) -> AdmissionGate | None:
        """The admission gate for ``path`` (``None`` = ungated)."""
        if path in _UNGATED_ROUTES:
            return None
        return self.gates[HEAVY if path in _HEAVY_ROUTES else CHEAP]

    def route(
        self, path: str, params: dict, deadline: Deadline = NO_DEADLINE
    ) -> dict:
        state = self.state
        if path == "/healthz":
            doc = state.healthz(params)
            doc["admission"] = {
                cls: gate.snapshot() for cls, gate in self.gates.items()
            }
            # No worker processes: the server's own footprint is the
            # whole footprint.  Kept for clients that sum RSS over it.
            doc["resident_pids"] = []
            return doc
        if path == "/metrics":
            return self.metrics_doc()
        if path == "/corpus":
            return state.corpus_info(params)
        if path == "/coverage":
            return state.coverage(params)
        if path == "/similar":
            return state.similar(params)
        if path == "/search":
            job = state.search_job(params)
            job.deadline = deadline
            pending = self.broker.submit_search(job)
            return self._await(pending, deadline)
        if path == "/typing":
            return self._nmf_result(state.typing_job(params), deadline)
        if path == "/flavors":
            return self._nmf_result(state.flavors_job(params), deadline)
        if path == "/anchors":
            job = state.anchors_job(params)
            if isinstance(job, dict):
                return job
            return self._nmf_result(job, deadline)
        raise ServiceError(404, f"no route {path!r}")

    def _await(self, pending, deadline: Deadline) -> dict:
        """Wait for a broker result, bounded by the request's budget.

        The wait expiring fails only *this* request — its coalesced
        batch-mates keep their futures and their own budgets.
        """
        try:
            return pending.result(timeout=deadline.remaining())
        except _FutureTimeout:
            metrics.inc("service.deadline.wait_expired")
            raise DeadlineExceeded(
                "deadline exceeded waiting for the batch result"
            ) from None

    def _nmf_result(self, job: NmfJob, deadline: Deadline) -> dict:
        """Submit an NMF job with the degrade ladder around it.

        Decision order: a remaining budget below ``DEGRADE_FLOOR_S`` is
        too tight for any cold fit, so the cached-factorization path is
        tried first; otherwise, or on a cache miss, the job is
        submitted, and a result wait that times out tries the cache
        before giving up with 504.  Degraded answers are bit-identical
        to live fits of the same specs — they come from the same
        checksummed result cache.
        """
        state = self.state
        remaining = deadline.remaining()
        if remaining is not None and remaining < DEGRADE_FLOOR_S:
            doc = state.degraded_nmf(job)
            if doc is not None:
                return doc
        deadline.require()
        job.deadline = deadline
        pending = self.broker.submit_nmf(job)
        try:
            return self._await(pending, deadline)
        except DeadlineExceeded:
            doc = state.degraded_nmf(job)
            if doc is not None:
                return doc
            raise

    def metrics_doc(self) -> dict:
        doc = metrics.snapshot()
        doc["uptime_s"] = time.perf_counter() - self._t0
        doc["failures"] = dict(failure_report().counts)
        doc["admission"] = {
            cls: gate.snapshot() for cls, gate in self.gates.items()
        }
        if sanitize.enabled():
            doc["sanitizer"] = sanitize.report_doc()
        return doc


def serve_forever(
    service: ReproService, on_ready: Callable[[str, int], None] | None = None
) -> None:
    """Run until interrupted, then drain (the ``repro serve`` loop).

    ``on_ready(host, port)`` runs once the service is accepting, inside
    the interrupt handling: a SIGINT that lands while it runs still
    drains the service.
    """
    try:
        host, port = service.start()
        if on_ready is not None:
            on_ready(host, port)
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
