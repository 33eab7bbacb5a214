"""Performance P8 — analysis-as-a-service: broker coalescing.

The service layer (PR 8) must pay for itself: a long-lived server with a
request-coalescing broker has to beat the same server answering each
request by itself.  Five phases, streamed into ``BENCH_service.json``:

* **identity** — served ``/typing``, ``/flavors``, ``/coverage``,
  ``/search``, ``/similar`` responses are asserted byte-equal (JSON
  round-trip) to direct library calls on the same corpus.  Coalescing
  must be a pure throughput lever.
* **coalescing** — the headline floor: a closed-loop load of NMF-bearing
  requests (distinct seeds, so the result cache never hides a solve) at
  ``CONCURRENCY`` clients against a ``coalesce=False`` baseline server
  and a coalescing one.  Each server runs in its **own process** (booted
  through ``repro serve``, stopped with SIGINT) so client-side CPU never
  shares the GIL with the measured server.  Best-of-``REPEATS``
  throughput must differ by ``SPEEDUP_FLOOR``; mean broker batch size
  (scraped from ``/metrics``) is recorded as evidence the win comes from
  micro-batching.
* **mixed** — the default endpoint mix at 8 clients against a subprocess
  server: client-observed per-endpoint p50/p99, zero errors.
* **chaos** (PR 10) — the 3-phase overload/chaos scenario from
  :func:`repro.service.run_chaos_load` against a ``repro serve``
  server: baseline, burst-with-deadlines, then the baseline replayed
  with a budget under the degrade floor.  Asserted: zero hung clients,
  zero unclassified errors, every response one of success / 503-shed /
  504-deadline / degraded-from-cache, degraded answers in the
  tight-deadline phase, and admitted p99 within ``P99_BUDGET`` of
  unloaded p99.
* **persistence** (PR 10) — ``--state-dir`` round trip: a cold boot
  persists the corpus, a warm boot reloads it and must serve
  byte-identical documents; both boot-to-ready times are recorded.

``--smoke`` shrinks durations and skips the speedup and p99 floors (CI
boxes are too noisy to gate on); the committed JSON comes from a full
run.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro.runtime as runtime
from repro.service import (
    ReproService,
    ServiceConfig,
    ServiceState,
    run_chaos_load,
    run_load,
)
from repro.service.client import ServiceClient

CONCURRENCY = 32
MAX_BATCH = 24  # below the cohort: a saturated lane dispatches capped batches
NMF_RESTARTS = 2
DURATION_S = 6.0
REPEATS = 3  # best-of, alternating baseline/coalesced
SPEEDUP_FLOOR = 2.0  # coalesced vs per-request req/s, NMF-bearing mix
N_SHARDS = 3

_RESULTS: dict[str, dict] = {}
_OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_service.json"


def _flush() -> None:
    _OUT.write_text(json.dumps(
        {
            "bench": "service",
            "numpy": np.__version__,
            "concurrency": CONCURRENCY,
            "max_batch": MAX_BATCH,
            "nmf_restarts": NMF_RESTARTS,
            "speedup_floor": SPEEDUP_FLOOR,
            "phases": _RESULTS,
        },
        indent=2,
        sort_keys=True,
    ) + "\n")


def _config(*, coalesce: bool) -> ServiceConfig:
    return ServiceConfig(
        n_shards=N_SHARDS,
        coalesce=coalesce,
        max_batch=MAX_BATCH,
    )


def _roundtrip(doc):
    return json.loads(json.dumps(doc, sort_keys=True))


_ROOT = pathlib.Path(__file__).resolve().parent.parent


@contextlib.contextmanager
def _spawned_server(*extra_args: str, banner: list[str] | None = None):
    """Boot ``repro serve`` in its own process; yield (host, port).

    The serve command prints ``... on http://host:port`` once the corpus
    is warm, so reading up to that line doubles as the readiness gate
    (``--state-dir`` boots print a persistence line first; all startup
    lines are appended to ``banner`` when given).  SIGINT on exit
    exercises the graceful drain every single run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_CACHE_DIR", None)  # memory-only cache: no run-to-run reuse
    cmd = [
        sys.executable, "-m", "repro.cli", "serve",
        "--port", "0",
        "--max-batch", str(MAX_BATCH),
        "--shards", str(N_SHARDS),
        *extra_args,
    ]
    proc = subprocess.Popen(cmd, stderr=subprocess.PIPE, text=True, env=env)
    try:
        m = None
        for _ in range(10):
            line = proc.stderr.readline()
            if banner is not None:
                banner.append(line)
            m = re.search(r"on http://([\d.]+):(\d+)", line)
            if m or not line:
                break
        assert m, f"server did not report an address: {line!r}"
        yield m.group(1), int(m.group(2))
    finally:
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=30)


@pytest.fixture(scope="module")
def corpus(dataset):
    tree, courses, _ = dataset
    return tree, courses


def test_served_bit_identity(corpus):
    """Every served response == the same computation called directly."""
    tree, courses = corpus
    runtime.reset()
    direct = ServiceState(tree, courses, config=_config(coalesce=True))
    state = ServiceState(tree, courses, config=_config(coalesce=True))
    checked: list[str] = []
    with ReproService(state) as svc, ServiceClient(*svc.address) as client:
        # NMF-bearing endpoints: run the job's specs through the library
        # kernel by hand, finish by hand, compare to the served JSON.
        for path, job_of in (
            ("/typing", direct.typing_job),
            ("/flavors", direct.flavors_job),
        ):
            params = {"k": 4, "seed": 901, "n_restarts": NMF_RESTARTS}
            job = job_of(params)
            bundles = runtime.run_nmf_fits(job.matrix, job.specs)
            want = job.finish(bundles)
            status, got = client.post(path, params)
            assert status == 200
            assert _roundtrip(got) == _roundtrip(want), path
            checked.append(path)
        # Search: one batched search_many against the direct state's repo.
        queries = [{"tags": [t]} for t in sorted(tree.tag_ids())[:4]]
        job = direct.search_job({"queries": queries, "limit": 10})
        want = job.finish([
            r for r in direct.repo.search_many(
                job.queries, tree=tree, limit=10
            )
        ])
        status, got = client.post("/search", {"queries": queries, "limit": 10})
        assert status == 200
        assert _roundtrip(got) == _roundtrip(want)
        checked.append("/search")
        # Stateless endpoints.
        for path, fn in (("/coverage", direct.coverage),
                         ("/similar", direct.similar)):
            params = {"course_id": courses[0].id}
            if path == "/similar":
                mid = sorted(m.id for c in courses for m in c.materials)[0]
                params = {"material_id": mid}
            status, got = client.post(path, params)
            assert status == 200
            assert _roundtrip(got) == _roundtrip(fn(params)), path
            checked.append(path)
    _RESULTS["identity"] = {"bit_identical": True, "endpoints": checked}
    _flush()


def test_coalescing_throughput(smoke):
    """Coalesced NMF-bearing throughput >= SPEEDUP_FLOOR x per-request."""
    duration = 1.5 if smoke else DURATION_S
    repeats = 1 if smoke else REPEATS
    runs: dict[str, list[dict]] = {"baseline": [], "coalesced": []}
    batch_sizes: list[dict] = []
    seed_base = 0

    def one(coalesce: bool) -> dict:
        nonlocal seed_base
        seed_base += 100_000_000  # distinct seeds: no cache hit ever repeats
        # Admission must not be the binding constraint here: the phase
        # measures coalescing, so the heavy gate admits the whole cohort
        # (the default in-flight ceiling of 8 would cap batches at 8).
        extra = (
            "--max-inflight-heavy", str(CONCURRENCY),
            "--max-queue-heavy", str(2 * CONCURRENCY),
        )
        if not coalesce:
            extra = ("--no-coalesce", *extra)
        with _spawned_server(*extra) as (host, port):
            rep = run_load(
                host, port,
                concurrency=CONCURRENCY,
                duration_s=duration,
                mix="typing=1",
                seed=2,
                nmf_restarts=NMF_RESTARTS,
                nmf_seed_base=seed_base,
            )
            if coalesce:
                with ServiceClient(host, port) as probe:
                    status, doc = probe.get("/metrics")
                assert status == 200
                hist = doc["histograms"].get("broker.nmf.batch_size")
                if hist:
                    batch_sizes.append(
                        {"mean": hist["mean"], "count": hist["count"]}
                    )
        assert rep.total_errors == 0, rep.error_samples
        return rep.to_dict()

    for _ in range(repeats):
        runs["baseline"].append(one(False))
        runs["coalesced"].append(one(True))

    best = {
        k: max(r["requests_per_s"] for r in v) for k, v in runs.items()
    }
    speedup = best["coalesced"] / best["baseline"]
    _RESULTS["coalescing"] = {
        "server": "subprocess",
        "duration_s": duration,
        "repeats": repeats,
        "best_requests_per_s": best,
        "speedup": speedup,
        "mean_batch_size": batch_sizes,
        "runs": runs,
    }
    _flush()
    assert all(b["mean"] > 2.0 for b in batch_sizes)  # coalescing happened
    if not smoke:
        assert speedup >= SPEEDUP_FLOOR, (
            f"coalesced {best['coalesced']:.1f} req/s vs baseline "
            f"{best['baseline']:.1f} req/s = {speedup:.2f}x "
            f"< floor {SPEEDUP_FLOOR}x"
        )


def test_mixed_workload_latency(smoke):
    """Default endpoint mix at 8 clients: per-endpoint p50/p99, 0 errors."""
    with _spawned_server() as (host, port):
        rep = run_load(
            host, port,
            concurrency=8,
            duration_s=1.5 if smoke else DURATION_S,
            seed=5,
            nmf_restarts=NMF_RESTARTS,
            nmf_seed_base=900_000_000,
        )
    assert rep.total_errors == 0, rep.error_samples
    _RESULTS["mixed"] = {"server": "subprocess", **rep.to_dict()}
    _flush()


P99_BUDGET = 3.0  # admitted p99 under chaos <= 3x the unloaded p99


def test_overload_chaos(smoke):
    """3-phase overload/chaos: every response classified, no hung client."""
    with _spawned_server() as (host, port):
        report = run_chaos_load(
            host, port,
            concurrency=3 if smoke else 6,
            requests_per_worker=8 if smoke else 25,
            seed=7,
            deadline_ms=2000.0,
            nmf_restarts=NMF_RESTARTS,
            p99_budget=1e9 if smoke else P99_BUDGET,
        )
    assert report.ok, report.violations
    assert report.deadline_violations == 0  # no client blocked past budget
    assert report.degraded > 0  # the tight-deadline phase served from cache
    _RESULTS["chaos"] = report.to_dict()
    _flush()


def test_warm_restart_persistence(smoke, tmp_path):
    """--state-dir round trip: warm boot serves byte-identical documents."""
    state_dir = str(tmp_path / "state")
    typing_params = {"k": 4, "seed": 913, "n_restarts": NMF_RESTARTS}
    search_params = {"query": {"text": "lecture"}, "limit": 10}

    def probe(host, port):
        with ServiceClient(host, port) as client:
            status, typing = client.post("/typing", typing_params)
            assert status == 200
            status, search = client.post("/search", search_params)
            assert status == 200
        return _roundtrip(typing), _roundtrip(search)

    boots = {}
    cold_banner: list[str] = []
    t0 = time.perf_counter()
    with _spawned_server(
        "--state-dir", state_dir, banner=cold_banner
    ) as (host, port):
        boots["cold_boot_s"] = time.perf_counter() - t0
        cold = probe(host, port)
    assert any("state persisted" in line for line in cold_banner), cold_banner

    warm_banner: list[str] = []
    t0 = time.perf_counter()
    with _spawned_server(
        "--state-dir", state_dir, banner=warm_banner
    ) as (host, port):
        boots["warm_boot_s"] = time.perf_counter() - t0
        warm = probe(host, port)
    assert any("warm restart" in line for line in warm_banner), warm_banner
    assert warm == cold  # byte-identical across the restart
    _RESULTS["persistence"] = {
        "bit_identical_across_restart": True,
        "endpoints": ["/typing", "/search"],
        **{k: round(v, 3) for k, v in boots.items()},
    }
    _flush()
