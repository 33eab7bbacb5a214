"""Analysis-as-a-service: the long-lived server over the repro library.

Layers, bottom up:

* :mod:`~repro.service.broker` — request coalescing: concurrent
  NMF-bearing requests micro-batch into single
  :func:`repro.runtime.run_nmf_fits` calls, concurrent searches into
  single ``search_many`` calls, behind per-request futures.
* :mod:`~repro.service.state` — the warm corpus (a sharded repository
  queried in-process, cached family matrices) and the endpoint logic,
  HTTP-free.
* :mod:`~repro.service.admission` — the overload controls: bounded
  admission gates per endpoint class and monotonic request deadlines.
* :mod:`~repro.service.server` — the threaded stdlib HTTP JSON front
  end with graceful request draining.
* :mod:`~repro.service.client` / :mod:`~repro.service.loadgen` — a
  keep-alive client (GET-only reconnect retry, pooled connections)
  and the closed-loop load generator — including the 3-phase
  overload/chaos scenario — behind ``BENCH_service.json`` and the CI
  smoke job.
"""

from repro.service.admission import (
    CHEAP,
    HEAVY,
    NO_DEADLINE,
    AdmissionGate,
    AdmissionShed,
    Deadline,
    DeadlineExceeded,
)
from repro.service.broker import (
    BrokerClosed,
    NmfJob,
    PendingResult,
    RequestBroker,
    SearchJob,
)
from repro.service.client import ClientPool, ServiceClient
from repro.service.loadgen import (
    CHAOS_MIX,
    DEFAULT_MIX,
    ChaosReport,
    LoadReport,
    RequestFactory,
    parse_mix,
    run_chaos_load,
    run_load,
)
from repro.service.server import ReproService, serve_forever
from repro.service.state import (
    ServiceConfig,
    ServiceError,
    ServiceState,
    parse_query,
)

__all__ = [
    "CHEAP",
    "HEAVY",
    "NO_DEADLINE",
    "AdmissionGate",
    "AdmissionShed",
    "Deadline",
    "DeadlineExceeded",
    "BrokerClosed",
    "NmfJob",
    "PendingResult",
    "RequestBroker",
    "SearchJob",
    "ClientPool",
    "ServiceClient",
    "CHAOS_MIX",
    "DEFAULT_MIX",
    "ChaosReport",
    "LoadReport",
    "RequestFactory",
    "parse_mix",
    "run_chaos_load",
    "run_load",
    "ReproService",
    "serve_forever",
    "ServiceConfig",
    "ServiceError",
    "ServiceState",
    "parse_query",
]
