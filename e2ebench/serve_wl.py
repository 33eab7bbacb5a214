"""Workload ``serve-mixed``: ``repro serve --shards 2`` in its own process,
serving a generated ~10k-material JSON corpus.

Load is a closed loop of 2 keep-alive clients (= ``nproc``) in this
process, sending a fixed seeded sequence of the load generator's default
mix in blocks of 11: search 4, similar 2, coverage 2, typing 1, flavors 1,
anchors 1.  Every NMF request carries a distinct seed, so the result cache
never hides a solve.

* job: ``/typing``, ``/flavors`` (a CS1 or DS family) and ``/anchors``;
* query: ``/search`` only.  Half the reads are ``/search`` (~15 ms, most
  of it the broker's coalescing window) and half ``/similar``/
  ``/coverage`` (~3-5 ms): a p50 over all reads would sit on the gap
  between the two modes and flip, so those two are per-layer numbers.

This is the socket-to-last-byte path: the job/query split exposes trades
such as a shorter coalescing window that speeds ``/search`` but slows the
NMF endpoints.
"""

from __future__ import annotations

import json
import os
import queue
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time

import common
import serve_client
import tracing

N_COURSES = 373  # ~10k materials
#: Fixed corpus (see report_wl.CORPUS_SEED); ``--seed`` draws the requests.
CORPUS_SEED = 2023
N_SHARDS = 2
N_CLIENTS = 2
MIX = (("search", 4), ("similar", 2), ("coverage", 2),
       ("typing", 1), ("flavors", 1), ("anchors", 1))
JOBS = ("typing", "flavors", "anchors")
#: Blocks of 11 requests per second of ``--seconds`` (~75 requests/s on a
#: 2-core x86 box, so a run lasts about ``--seconds``).
BLOCKS_PER_S = 6
NMF_RESTARTS = 2
#: Every SAMPLE-th /search, /typing and /flavors reply is checked against
#: the direct ServiceState computation.
SAMPLE = 8
#: Op ids of warm-up requests start here (timed ops are 0..n-1).
WARMUP_OP = 1_000_000
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0
#: How far an op's server-side layer self times may exceed its client
#: latency: the request span ends only when the handler thread gets the
#: interpreter lock back after writing the last byte, which can be after
#: the client has read that byte.
TOL_S = 0.05


# -- the request sequence -------------------------------------------------------


def plan(seed: int, seconds: int, courses) -> list:
    """The seeded request sequence [(op, path, body), ...]."""
    rng = random.Random(seed)
    tags = sorted({t for c in courses for m in c.materials for t in m.mappings})
    mids = sorted(m.id for c in courses for m in c.materials)
    cids = [c.id for c in courses]
    labelled = [c.id for c in courses if c.labels]
    nmf_seed = (seed % 1000) * 100_000 + 1_000  # warm-up uses the 1000 below
    kinds = [k for k, w in MIX for _ in range(w)]
    out = []
    for _ in range(max(4, BLOCKS_PER_S * seconds)):
        block = list(kinds)
        rng.shuffle(block)
        for kind in block:
            op = len(out)
            if kind == "search":
                body = {"queries": [{"tags": rng.sample(tags, rng.randint(1, 3))}],
                        "limit": 10}
            elif kind == "similar":
                body = {"material_id": rng.choice(mids), "limit": 10}
            elif kind == "coverage":
                body = {"course_id": rng.choice(cids)}
            elif kind == "typing":
                body = {"k": 4, "seed": nmf_seed + op, "n_restarts": NMF_RESTARTS}
            elif kind == "flavors":
                body = {"k": 3, "label": rng.choice(("CS1", "DS")),
                        "seed": nmf_seed + op, "n_restarts": NMF_RESTARTS}
            else:
                body = {"course_id": rng.choice(labelled), "seed": nmf_seed + op,
                        "n_restarts": NMF_RESTARTS}
            out.append((op, "/" + kind, body))
    return out


def warmup_requests(seed: int, courses) -> list:
    """Set-up traffic: every endpoint once, and every family matrix built."""
    nmf_seed = (seed % 1000) * 100_000
    labels = sorted({lab.value for c in courses for lab in c.labels})
    labelled = next(c.id for c in courses if c.labels)
    mid = courses[0].materials[0].id
    tag = sorted(courses[0].materials[0].mappings)[0]
    bodies = [
        ("/search", {"queries": [{"tags": [tag]}], "limit": 10}),
        ("/similar", {"material_id": mid, "limit": 10}),
        ("/coverage", {"course_id": courses[0].id}),
        ("/typing", {"k": 4, "seed": nmf_seed, "n_restarts": NMF_RESTARTS}),
        *[("/typing", {"k": 3, "label": lab, "seed": nmf_seed + i + 1,
                       "n_restarts": NMF_RESTARTS})
          for i, lab in enumerate(labels)],
        ("/flavors", {"k": 3, "label": "CS1", "seed": nmf_seed + 100,
                      "n_restarts": NMF_RESTARTS}),
        ("/anchors", {"course_id": labelled, "seed": nmf_seed + 101,
                      "n_restarts": NMF_RESTARTS}),
    ]
    return [(WARMUP_OP + i, path, body) for i, (path, body) in enumerate(bodies)]


# -- the server process -----------------------------------------------------------


class Server:
    """One server process (own session, so a stuck one is killed whole)."""

    def __init__(self, cmd: list) -> None:
        self.proc = subprocess.Popen(
            cmd, env=common.child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        self.lines: queue.Queue = queue.Queue()
        self.log: list[str] = []
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.port = 0

    def _read(self) -> None:
        for line in self.proc.stderr:
            self.log.append(line)
            self.lines.put(line)
        self.lines.put(None)

    def wait_ready(self) -> int:
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while True:
            try:
                line = self.lines.get(timeout=max(deadline - time.perf_counter(), 0))
            except queue.Empty:
                line = None
            if line is None:
                raise RuntimeError("server did not come up:\n" + "".join(self.log))
            found = re.search(r"serving .* on http://[\d.]+:(\d+)", line)
            if found:
                self.port = int(found.group(1))
                return self.port

    def stop(self) -> None:
        """SIGINT (drain, as an operator would), then kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        self._reader.join(timeout=STOP_TIMEOUT_S)

    def get(self, path: str) -> dict:
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """Server plus its resident shard workers (sum of VmHWM)."""
        pids = [self.proc.pid, *[p for p in self.get("/healthz")["resident_pids"] if p]]
        return sum(common.vm_hwm_mb(pid) for pid in pids)


def _start(cmd: list, warmup: list) -> Server:
    server = Server(cmd)
    try:
        port = server.wait_ready()
        replies, _, _ = serve_client.closed_loop(
            "127.0.0.1", port, warmup, 1, lambda i: True
        )
        bad = [r.body for r in replies if r.status != 200]
        if bad:
            raise RuntimeError(f"warm-up request failed: {bad[0][:200]!r}")
    except BaseException:
        server.stop()
        raise
    return server


# -- driving ----------------------------------------------------------------------------


def drive(ctx) -> tuple:
    from repro.curriculum import load_cs2013
    from repro.io.json_io import save_courses

    import inputs

    courses = inputs.labelled_corpus(load_cs2013(), N_COURSES, CORPUS_SEED)
    corpus = ctx.workdir / "courses.json"
    save_courses(courses, corpus)
    requests = plan(ctx.seed, ctx.seconds, courses)
    warmup = warmup_requests(ctx.seed, courses)
    del courses
    plain_cmd = [sys.executable, "-m", "repro.cli", "serve", str(corpus),
                 "--shards", str(N_SHARDS), "--port", "0"]
    kinds = [path[1:] for _, path, _ in requests]
    seen: dict = {}
    sampled = []
    for i, kind in enumerate(kinds):
        if kind in ("search", "typing", "flavors"):
            seen[kind] = seen.get(kind, 0) + 1
            if seen[kind] % SAMPLE == 1:
                sampled.append(i)
    keep_set = set(sampled)

    setup = []
    server = None
    for _ in range(1 if ctx.trace else common.SETUP_REPS):
        if server is not None:
            server.stop()
        t0 = time.perf_counter()
        server = _start(plain_cmd, warmup)
        setup.append(time.perf_counter() - t0)
    try:
        replies, wall, cpu = serve_client.closed_loop(
            "127.0.0.1", server.port, requests, N_CLIENTS, keep_set.__contains__
        )
        rss = server.peak_rss_mb()
    finally:
        server.stop()

    failed_ops = {i for i, r in enumerate(replies) if r.status != 200}
    failed_ops |= _check(corpus, requests, replies, sampled)
    notes = [f"{len(failed_ops)} failed or wrong replies"] if failed_ops else []
    attempted = len(requests)

    if ctx.trace:
        values, layer_notes, t_failed = _traced(ctx, corpus, requests, warmup,
                                                replies, wall, cpu)
        notes += layer_notes
        failed_ops |= t_failed
    else:
        jobs = [r.seconds for r, k in zip(replies, kinds) if k in JOBS]
        searches = [r.seconds for r, k in zip(replies, kinds) if k == "search"]
        values = common.end_to_end(
            jobs, searches, rss, attempted, len(failed_ops), wall_s=wall
        )
        values["setup_s"] = statistics.median(setup)
    if notes:
        print("serve-mixed: " + "; ".join(notes), file=sys.stderr)
    return not notes, attempted, len(failed_ops), values


def _check(corpus, requests, replies, sampled) -> set:
    """Sampled replies vs the direct ServiceState computation."""
    from repro.curriculum import load_cs2013
    from repro.io.json_io import load_courses
    from repro.runtime import run_nmf_fits
    from repro.service import ServiceConfig, ServiceState

    state = ServiceState(
        load_cs2013(), load_courses(corpus),
        config=ServiceConfig(n_shards=N_SHARDS, resident=False),
    )
    wrong = set()
    for i in sampled:
        _, path, body = requests[i]
        reply = replies[i]
        if reply.status != 200:
            continue  # already counted
        if path == "/search":
            job = state.search_job(body)
            doc = job.finish(state.repo.search_many(
                job.queries, tree=job.tree, limit=job.limit))
        else:
            job = (state.typing_job if path == "/typing" else state.flavors_job)(body)
            doc = job.finish(run_nmf_fits(job.matrix, job.specs, kernel="batched"))
        if json.loads(json.dumps(doc)) != json.loads(reply.body):
            wrong.add(i)
    return wrong


def _metric_delta(before: dict, after: dict) -> dict:
    out = {}
    b, a = before["counters"], after["counters"]
    for name in a:
        out[name] = a[name] - b.get(name, 0)
    for name, hist in after["histograms"].items():
        prev = before["histograms"].get(name, {"count": 0, "total": 0.0})
        out[name + ".count"] = hist["count"] - prev["count"]
        out[name + ".total"] = hist["total"] - prev["total"]
    return out


def _traced(ctx, corpus, requests, warmup, plain, plain_wall, plain_cpu):
    """Per-layer numbers: the same sequence against a traced server."""
    spans_path = ctx.workdir / "server-spans.json"
    traced_cmd = [sys.executable, str(common.BENCH_DIR / "traced_server.py"),
                  str(corpus), "--shards", str(N_SHARDS),
                  "--spans-out", str(spans_path)]
    server = _start(traced_cmd, warmup)
    try:
        before = server.get("/metrics")
        replies, _, _ = serve_client.closed_loop(
            "127.0.0.1", server.port, requests, N_CLIENTS, lambda i: False
        )
        after = server.get("/metrics")
    finally:
        server.stop()
    failed = {i for i, r in enumerate(replies) if r.status != 200}
    spans = common.read_json(spans_path)
    delta = _metric_delta(before, after)
    values, notes = _layers(spans, requests, replies, plain, delta)
    values["loadgen.cpu_frac"] = plain_cpu / plain_wall
    return values, notes, failed


#: Handler-thread span -> per-op self-time metric.
OP_LAYERS = {
    "service.request": "service.http_ms",
    "service.admit_wait": "service.admit_wait_ms",
    "service.job_build": "service.job_build_ms",
    "service.finish": "service.finish_ms",
    "broker.wait": "broker.wait_ms",
    "materials.similar": "materials.similar_ms",
    "analysis.typing": "analysis.typing_ms",
    "analysis.flavors": "analysis.flavors_ms",
    "anchors.recommend": "anchors.recommend_ms",
}


def _layers(spans, requests, replies, plain, delta):
    """Per-layer metrics of the traced pass, plus problems found."""
    kinds = [path[1:] for _, path, _ in requests]
    ops = {op: (kind, r.seconds) for op, (kind, r) in enumerate(zip(kinds, replies))}
    untraced: dict = {}
    for kind, r in zip(kinds, plain):
        untraced.setdefault(kind, []).append(r.seconds)
    values = dict.fromkeys(common.PER_LAYER, 0.0)
    op_values, notes = tracing.reduce_ops(
        spans, "service.request", OP_LAYERS, ops, untraced, TOL_S,
        expected=["service.route", "broker.batch", "factorization.nmf",
                  "materials.search", "io.load", "materials.ingest"],
    )
    values.update(op_values)
    n_ops = len(ops)
    timed = [s for s in spans if s["op"] in ops]

    def inclusive_ms(name):
        return sum(s["end"] - s["start"] for s in timed if s["name"] == name) / n_ops * 1e3

    values["service.request_ms"] = inclusive_ms("service.request")
    values["service.route_ms"] = inclusive_ms("service.route")
    values["service.response_kb"] = sum(r.size for r in replies) / n_ops / 1e3

    # Broker-thread spans: one kernel call serves the ops it lists.
    batch_ids = {s["id"] for s in spans if s["name"] == "broker.batch"
                 and any(o in ops for o in s["ops"])}
    under = [s for s in spans if s["parent"] in batch_ids]
    under_selfs = tracing.layer_self_s(under)
    values["materials.search_ms"] = under_selfs.get("materials.search", 0.0) / n_ops * 1e3
    values["factorization.nmf_ms"] = under_selfs.get("factorization.nmf", 0.0) / n_ops * 1e3
    fits = [s for s in under if s["name"] == "factorization.nmf"]
    values["factorization.fits"] = sum(s["fits"] for s in fits)
    values["factorization.iterations"] = sum(s["iters"] for s in fits)
    values["anchors.calls"] = sum(1 for s in timed if s["name"] == "anchors.recommend")

    values["factorization.fits_computed"] = delta.get("runtime.nmf_fits_computed", 0)
    hits, misses = delta.get("cache.hit", 0), delta.get("cache.miss", 0)
    values["runtime.cache_hit_ratio"] = hits / max(hits + misses, 1)
    for lane in ("nmf", "search"):
        count = delta.get(f"broker.{lane}.batch_size.count", 0)
        values[f"broker.{lane}_batch_size"] = (
            delta.get(f"broker.{lane}.batch_size.total", 0.0) / max(count, 1))
    values["materials.resident_bytes_per_query"] = (
        delta.get("shard.resident.bytes_shipped", 0)
        / max(delta.get("shard.resident.queries", 0), 1))
    values["service.shed"] = (delta.get("service.shed.heavy", 0)
                              + delta.get("service.shed.cheap", 0))
    for kind in ("similar", "coverage"):
        values[f"endpoint.{kind}_p50_ms"] = common.pct(untraced[kind], 50) * 1e3

    # Server start-up (no op): corpus load and ingest.
    start = [s for s in spans if s["name"] in ("io.load", "materials.ingest")]
    start_selfs = tracing.layer_self_s(start)
    values["io.load_ms"] = start_selfs.get("io.load", 0.0) * 1e3
    values["materials.ingest_ms"] = start_selfs.get("materials.ingest", 0.0) * 1e3
    ingest = [s for s in start if s["name"] == "materials.ingest"]
    if ingest:
        values["materials.ingest_per_s"] = sum(s["materials"] for s in ingest) / sum(
            s["end"] - s["start"] for s in ingest)
    return values, notes
