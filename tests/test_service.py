"""Service-layer suite (PR 8).

Three contracts under test:

* **coalescing** — concurrent requests micro-batch into single kernel
  calls (batch sizes > 1, dedup, one ``search_many`` per burst) and the
  ``coalesce=False`` baseline flows through the same dispatch code;
* **bit-identity** — every served JSON document equals the one computed
  by direct library calls (floats survive JSON via repr round-trip);
* **draining** — in-flight requests complete during shutdown, queued
  broker batches flush, and the broker's lane threads exit.

Shard queries run in the server process: serving starts no child
process.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.runtime as runtime
import repro.service.broker as broker_mod
from repro.analysis import analyze_flavors, build_course_matrix, type_courses
from repro.anchors.recommender import recommend_for_course
from repro.factorization.nmf import nmf_restart_specs
from repro.materials import CourseLabel, coverage
from repro.runtime import run_nmf_fits
from repro.runtime.metrics import metrics
from repro.service import (
    BrokerClosed,
    NmfJob,
    ReproService,
    RequestBroker,
    SearchJob,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceState,
    parse_mix,
    parse_query,
    run_load,
)
from repro.service.loadgen import _quantile


@pytest.fixture(autouse=True)
def _isolated_runtime():
    runtime.reset()
    yield
    runtime.reset()


@pytest.fixture(scope="module")
def service(dataset):
    tree, courses, _ = dataset
    state = ServiceState(
        tree, courses,
        config=ServiceConfig(n_shards=3),
    )
    with ReproService(state) as svc:
        yield svc


@pytest.fixture()
def client(service):
    host, port = service.address
    with ServiceClient(host, port) as c:
        yield c


def _json_roundtrip(doc):
    return json.loads(json.dumps(doc))


# -- broker ------------------------------------------------------------------


def _err_specs(a, seed, n=2):
    return nmf_restart_specs(a, 2, seed=seed, n_restarts=n)


def _errs_job(a, seed):
    return NmfJob(
        matrix=a,
        group=id(a),
        specs=_err_specs(a, seed),
        finish=lambda bundles: [float(b["err"]) for b in bundles],
        dedup_key=("t", seed),
    )


def _search_job(*queries, tree=None, limit=7, finish=list):
    return SearchJob(
        queries=list(queries), tree=tree, limit=limit, finish=finish
    )


def _echo_search(queries, *, tree, limit):
    return [[(q, limit)] for q in queries]


class _Gate:
    """Holds a broker lane so requests queue deterministically behind it.

    Every backend call blocks in :meth:`enter` until :meth:`release`.
    :meth:`hold` submits an occupant, waits until its dispatch is inside
    the backend, and releases on exit: requests submitted inside the
    ``with`` queue behind the running occupant and dispatch together as
    the next batch.  ``calls`` records what each backend call was given.
    """

    def __init__(self) -> None:
        self.calls: list = []
        self._entered = threading.Event()
        self._open = threading.Event()

    def enter(self, what) -> None:
        self.calls.append(what)
        self._entered.set()
        assert self._open.wait(timeout=60), "gate never released"

    def release(self) -> None:
        self._open.set()

    @contextlib.contextmanager
    def hold(self, submit_occupant):
        try:
            submit_occupant()
            assert self._entered.wait(timeout=30), "occupant never dispatched"
            yield
        finally:
            self.release()


def _gated_nmf(gate: _Gate):
    """``run_nmf_fits`` behind ``gate``; records each call's spec count."""

    def run(matrix, specs, **kwargs):
        gate.enter(len(specs))
        return run_nmf_fits(matrix, specs, **kwargs)

    return run


def _gated_search(gate: _Gate, backend=_echo_search):
    """``backend`` as ``search_many`` behind ``gate``; records each call."""

    def search_many(queries, *, tree, limit):
        gate.enter(list(queries))
        return backend(queries, tree=tree, limit=limit)

    return search_many


@pytest.fixture()
def nmf_gate(monkeypatch):
    gate = _Gate()
    monkeypatch.setattr(broker_mod, "run_nmf_fits", _gated_nmf(gate))
    yield gate
    gate.release()


def _wait_until(predicate, what: str, timeout: float = 30.0) -> None:
    deadline = time.perf_counter() + timeout
    while not predicate():
        assert time.perf_counter() < deadline, f"timed out: {what}"
        time.sleep(0.005)


def _queued(broker, lane: str = "nmf") -> int:
    """Jobs waiting in a lane's queue behind the running batch."""
    return len(getattr(broker, f"_{lane}_lane")._queue)


class TestBroker:
    @pytest.fixture()
    def a(self):
        rng = np.random.default_rng(3)
        return np.abs(rng.normal(size=(18, 12)))

    def test_concurrent_requests_coalesce_and_match_direct(self, a, nmf_gate):
        broker = RequestBroker(max_batch=32)
        try:
            seeds = list(range(6))
            with nmf_gate.hold(lambda: broker.submit_nmf(_errs_job(a, 99))):
                with ThreadPoolExecutor(max_workers=6) as pool:
                    futs = list(pool.map(
                        lambda s: broker.submit_nmf(_errs_job(a, s)), seeds
                    ))
            got = [f.result(timeout=60) for f in futs]
        finally:
            broker.close()
        assert nmf_gate.calls == [2, 12]  # occupant, then one batch of 6
        for seed, errs in zip(seeds, got):
            direct = [
                float(b["err"])
                for b in run_nmf_fits(a, _err_specs(a, seed))
            ]
            assert errs == direct
        hist = metrics.histogram("broker.nmf.batch_size")
        assert hist is not None and hist.max_value > 1.0

    def test_identical_requests_dedupe_to_one_solve(self, a, nmf_gate):
        broker = RequestBroker()
        try:
            with nmf_gate.hold(lambda: broker.submit_nmf(_errs_job(a, 99))):
                with ThreadPoolExecutor(max_workers=4) as pool:
                    futs = list(pool.map(
                        lambda _: broker.submit_nmf(_errs_job(a, 9)), range(4)
                    ))
            got = [f.result(timeout=60) for f in futs]
        finally:
            broker.close()
        assert got[0] == got[1] == got[2] == got[3]
        assert nmf_gate.calls == [2, 2]  # four requests, one solve
        snap = metrics.snapshot()["counters"]
        assert snap.get("broker.nmf.deduped", 0) >= 1

    def test_inline_baseline_matches_coalesced(self, a):
        coalesced = RequestBroker()
        inline = RequestBroker(coalesce=False)
        try:
            lhs = coalesced.submit_nmf(_errs_job(a, 4)).result(timeout=60)
            rhs = inline.submit_nmf(_errs_job(a, 4)).result(timeout=60)
        finally:
            coalesced.close()
            inline.close()
        assert lhs == rhs

    def test_search_burst_is_one_backend_call(self):
        gate = _Gate()
        broker = RequestBroker(search_many=_gated_search(gate))
        try:
            with gate.hold(lambda: broker.submit_search(_search_job("hold"))):
                with ThreadPoolExecutor(max_workers=5) as pool:
                    futs = list(pool.map(
                        lambda i: broker.submit_search(
                            _search_job(f"q{i}", f"r{i}")
                        ),
                        range(5),
                    ))
            got = [f.result(timeout=30) for f in futs]
        finally:
            broker.close()
        # the occupant, then one flattened backend call for the burst
        assert [len(c) for c in gate.calls] == [1, 10]
        for i, per_query in enumerate(got):
            assert per_query == [[(f"q{i}", 7)], [(f"r{i}", 7)]]

    def test_max_batch_caps_each_dispatch(self):
        gate = _Gate()
        broker = RequestBroker(search_many=_gated_search(gate), max_batch=2)
        try:
            with gate.hold(lambda: broker.submit_search(_search_job("hold"))):
                pending = [
                    broker.submit_search(_search_job(f"q{i}"))
                    for i in range(5)
                ]
            got = [p.result(timeout=30) for p in pending]
        finally:
            broker.close()
        # 2, 2 and 1 jobs per dispatch, in arrival order
        assert gate.calls == [["hold"], ["q0", "q1"], ["q2", "q3"], ["q4"]]
        assert got == [[[(f"q{i}", 7)]] for i in range(5)]

    def test_request_failure_does_not_poison_batch(self, a, nmf_gate):
        broker = RequestBroker()
        bad = NmfJob(
            matrix=a, group=id(a), specs=_err_specs(a, 1),
            finish=lambda bundles: 1 / 0,
        )
        try:
            with nmf_gate.hold(lambda: broker.submit_nmf(_errs_job(a, 99))):
                with ThreadPoolExecutor(max_workers=2) as pool:
                    f_bad = pool.submit(broker.submit_nmf, bad).result()
                    f_ok = pool.submit(
                        broker.submit_nmf, _errs_job(a, 2)
                    ).result()
            with pytest.raises(ZeroDivisionError):
                f_bad.result(timeout=60)
            assert f_ok.result(timeout=60)  # sibling request unharmed
        finally:
            broker.close()
        assert nmf_gate.calls == [2, 4]  # both rode one batch

    def test_close_drains_queued_jobs_then_rejects(self, a, nmf_gate):
        broker = RequestBroker()
        with nmf_gate.hold(lambda: broker.submit_nmf(_errs_job(a, 99))):
            fut = broker.submit_nmf(_errs_job(a, 5))  # queued, not running
            closer = threading.Thread(target=broker.close)
            closer.start()
            _wait_until(lambda: broker._nmf_lane._closing, "lane closing")
            assert _queued(broker) == 1
        closer.join(timeout=60)
        assert not closer.is_alive()
        assert fut.result(timeout=60)  # close flushed the queued job
        with pytest.raises(BrokerClosed):
            broker.submit_nmf(_errs_job(a, 6))

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError, match="max_batch"):
            RequestBroker(max_batch=0)


# -- coalescing is purely a throughput lever ---------------------------------

_MATRICES = tuple(
    np.abs(np.random.default_rng(seed).normal(size=shape))
    for seed, shape in ((11, (9, 6)), (12, (7, 5)))
)
_SEARCH_GROUPS = (("tree-a", 3), ("tree-b", 5))
# (lane, matrix or search group, seed): small seeds repeat, so batches
# hit both the per-matrix grouping and the dedup of identical jobs.
_JOB_DRAWS = st.tuples(
    st.sampled_from(("nmf", "search")), st.integers(0, 1), st.integers(0, 2)
)


def _echo_tree_search(queries, *, tree, limit):
    return [[(q, tree, limit)] for q in queries]


def _bundle_values(bundles):
    return [
        (b["w"].tolist(), b["h"].tolist(), float(b["err"])) for b in bundles
    ]


def _boom(_raw):
    return 1 / 0


def _drawn_job(lane, group, seed, *, bad=False):
    if lane == "nmf":
        a = _MATRICES[group]
        return NmfJob(
            matrix=a, group=id(a), specs=_err_specs(a, seed),
            finish=_boom if bad else _bundle_values,
            dedup_key=(group, seed),
        )
    tree, limit = _SEARCH_GROUPS[group]
    return _search_job(
        f"q{seed}", f"r{seed}", tree=tree, limit=limit,
        finish=_boom if bad else list,
    )


def _submit(broker, job):
    if isinstance(job, NmfJob):
        return broker.submit_nmf(job)
    return broker.submit_search(job)


def _outcome(pending):
    try:
        return "ok", pending.result(timeout=60)
    except ZeroDivisionError:
        return "raised", None


class TestCoalescedEqualsInline:
    @settings(max_examples=25, deadline=None)
    @given(
        draws=st.lists(_JOB_DRAWS, min_size=1, max_size=8),
        bad=_JOB_DRAWS,
        bad_at=st.integers(0, 8),
    )
    def test_answer_independent_of_batch_mates(self, draws, bad, bad_at):
        jobs = [(d, False) for d in draws]
        bad_at %= len(jobs) + 1
        jobs.insert(bad_at, (bad, True))

        runtime.reset()  # cold cache: the batch really solves
        nmf_gate, search_gate = _Gate(), _Gate()
        gated = _gated_nmf(nmf_gate)
        with mock.patch.object(broker_mod, "run_nmf_fits", gated):
            broker = RequestBroker(
                search_many=_gated_search(search_gate, _echo_tree_search)
            )
            try:
                with nmf_gate.hold(
                    lambda: broker.submit_nmf(_drawn_job("nmf", 0, 99))
                ), search_gate.hold(
                    lambda: broker.submit_search(_drawn_job("search", 0, 99))
                ):
                    pending = [
                        _submit(broker, _drawn_job(*d, bad=b)) for d, b in jobs
                    ]
                got = [_outcome(p) for p in pending]
            finally:
                broker.close()

        runtime.reset()  # the inline answers must not come from that cache
        inline = RequestBroker(coalesce=False, search_many=_echo_tree_search)
        want = [
            _outcome(_submit(inline, _drawn_job(*d, bad=b))) for d, b in jobs
        ]
        assert got == want
        assert got[bad_at] == ("raised", None)


# -- bit-identity ------------------------------------------------------------


class TestBitIdentity:
    def test_typing_matches_direct_library_call(self, service, client, dataset):
        _, courses, matrix = dataset
        status, doc = client.post(
            "/typing", {"k": 4, "seed": 11, "n_restarts": 2}
        )
        assert status == 200
        direct = type_courses(
            service.state.matrix, 4, seed=11, n_restarts=2
        )
        assert doc["reconstruction_err"] == direct.reconstruction_err
        assert doc["w"] == _json_roundtrip(direct.w.tolist())
        assert doc["course_ids"] == list(direct.matrix.course_ids)
        assert doc["dominant_types"] == {
            cid: direct.dominant_type(cid)
            for cid in direct.matrix.course_ids
        }

    def test_flavors_matches_direct_library_call(self, service, client, dataset):
        tree, courses, _ = dataset
        status, doc = client.post(
            "/flavors", {"k": 3, "seed": 2, "n_restarts": 2, "label": "CS1"},
        )
        assert status == 200
        family = build_course_matrix(
            list(courses), tree=tree, label=CourseLabel.CS1
        )
        direct = analyze_flavors(family, tree, 3, seed=2, n_restarts=2)
        assert doc["reconstruction_err"] == direct.typing.reconstruction_err
        assert doc["strongest_courses"] == [
            direct.strongest_course(t) for t in range(direct.k)
        ]
        for served, prof in zip(doc["profiles"], direct.profiles):
            assert served["describe"] == prof.describe()
            assert served["area_mass"] == _json_roundtrip(
                dict(sorted(prof.area_mass.items()))
            )
            assert served["top_tags"] == _json_roundtrip(
                [[t, v] for t, v in prof.top_tags]
            )

    def test_anchors_explicit_flavors_matches_recommender(
        self, service, client, dataset
    ):
        _, courses, _ = dataset
        course = courses[0]
        status, doc = client.post(
            "/anchors",
            {"course_id": course.id, "flavors": ["cs1-algorithmic"], "top": 4},
        )
        assert status == 200 and doc["discovered"] is False
        direct = recommend_for_course(course, flavors=["cs1-algorithmic"])
        assert len(doc["recommendations"]) == min(4, len(direct.recommendations))
        for served, rec in zip(doc["recommendations"], direct.top(4)):
            assert served["module"] == rec.module.id
            assert served["score"] == rec.score
            assert served["anchor_coverage"] == rec.anchor_coverage
            assert served["missing_anchors"] == list(rec.missing_anchors)

    def test_anchors_discovery_rides_the_nmf_lane(self, service, client):
        course_id = service.state.matrix.course_ids[0]
        status, doc = client.post(
            "/anchors", {"course_id": course_id, "seed": 3, "n_restarts": 2}
        )
        assert status == 200 and doc["discovered"] is True
        assert doc["exemplar"] in service.state.matrix.course_ids
        # the discovered flavor must be the exemplar's dominant archetype
        mixture = service.state._mixtures.get(doc["exemplar"])
        if mixture:
            assert doc["flavors"] == [max(mixture, key=lambda a: mixture[a])]

    def test_coverage_matches_direct(self, service, client, dataset):
        tree, courses, _ = dataset
        course = courses[3]
        status, doc = client.post("/coverage", {"course_id": course.id})
        assert status == 200
        direct = coverage(course, tree)
        assert doc["fraction"] == direct.fraction
        assert doc["core1"] == [direct.core1_covered, direct.core1_total]
        assert doc["by_area"] == _json_roundtrip(
            {a: list(v) for a, v in sorted(direct.by_area.items())}
        )
        assert doc["meets_core_requirements"] == direct.meets_core_requirements()

    def test_search_matches_repository(self, service, client):
        tags = list(service.state.matrix.tag_ids[:2])
        status, doc = client.post(
            "/search", {"queries": [{"tags": tags}, {"text": "lab"}], "limit": 5},
        )
        assert status == 200
        direct = service.state.repo.search_many(
            [parse_query({"tags": tags}), parse_query({"text": "lab"})],
            tree=service.state.tree,
            limit=5,
        )
        assert doc["results"] == [
            [{"id": r.material.id, "score": r.score} for r in hits]
            for hits in direct
        ]

    def test_similar_matches_repository(self, service, client):
        material_id = next(service.state.repo.materials()).id
        status, doc = client.post(
            "/similar", {"material_id": material_id, "limit": 4}
        )
        assert status == 200
        direct = service.state.repo.find_similar(material_id, limit=4)
        assert doc["results"] == [
            {"id": r.material.id, "score": r.score} for r in direct
        ]

    def test_concurrent_mixed_seeds_each_match_direct(self, service):
        """Coalesced batches slice correctly: every request in a concurrent
        burst gets exactly the solve its own parameters demand."""
        host, port = service.address
        seeds = list(range(8))

        def fetch(seed):
            with ServiceClient(host, port) as c:
                return c.post(
                    "/typing", {"k": 4, "seed": seed, "n_restarts": 2}
                )

        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(fetch, seeds))
        for seed, (status, doc) in zip(seeds, got):
            assert status == 200
            direct = type_courses(
                service.state.matrix, 4, seed=seed, n_restarts=2
            )
            assert doc["reconstruction_err"] == direct.reconstruction_err
            assert doc["w"] == _json_roundtrip(direct.w.tolist())


# -- HTTP surface ------------------------------------------------------------


class TestHttpSurface:
    def test_healthz_and_metrics(self, service, client):
        status, doc = client.get("/healthz")
        assert status == 200 and doc["status"] == "ok"
        assert doc["resident_pids"] == []
        status, doc = client.get("/metrics")
        assert status == 200
        assert {"counters", "timers", "histograms", "failures"} <= set(doc)

    def test_queries_start_no_child_process(self, service, client):
        tags = list(service.state.matrix.tag_ids[:2])
        status, _ = client.post("/search", {"query": {"tags": tags}})
        assert status == 200
        material_id = next(service.state.repo.materials()).id
        status, _ = client.post("/similar", {"material_id": material_id})
        assert status == 200
        assert multiprocessing.active_children() == []

    def test_corpus_lists_what_loadgen_needs(self, service, client):
        status, doc = client.get("/corpus")
        assert status == 200
        assert doc["course_ids"] and doc["material_ids"] and doc["tag_ids"]
        assert doc["n_materials"] == service.state.repo.n_materials

    def test_get_with_query_string(self, service, client):
        course_id = service.state.matrix.course_ids[0]
        status, doc = client.get(f"/coverage?course_id={course_id}")
        assert status == 200 and doc["course_id"] == course_id

    @pytest.mark.parametrize(
        "path,body,status,fragment",
        [
            ("/nosuch", {}, 404, "no route"),
            ("/typing", {"k": "wat"}, 400, "k must be an integer"),
            ("/typing", {"k": 0}, 400, "k must be >= 1"),
            ("/typing", {"label": "Quantum"}, 400, "label must be one of"),
            ("/coverage", {}, 400, "course_id is required"),
            ("/coverage", {"course_id": "ghost"}, 404, "no course"),
            ("/similar", {"material_id": "ghost"}, 404, "no material"),
            ("/search", {}, 400, "provide 'query' or 'queries'"),
            ("/search", {"queries": [{"tags": "oops"}]}, 400, "list of strings"),
            ("/search", {"queries": [{"nope": 1}]}, 400, "unknown query fields"),
            ("/anchors", {"course_id": "ghost"}, 404, "no course"),
            ("/search", {"queries": [{"tags": 5}]}, 400, "list of strings"),
            ("/search", {"queries": [{"tags": None}]}, 400, "list of strings"),
            ("/typing", {"seed": -1}, 400, "seed must be >= 0"),
            ("/typing", {"k": None}, 400, "k must be an integer"),
            (
                "/anchors", {"course_id": "uncc-2214-krs", "flavors": 5},
                400, "flavors must be a list of strings",
            ),
            ("/typing", {"k": 17}, 400, "k must be <= 16"),
            ("/typing", {"n_restarts": 17}, 400, "n_restarts must be <= 16"),
            ("/typing", {"k": float("inf")}, 400, "k must be an integer"),
            ("/chaos", {"op": "trip_breaker", "lane": "nmf"}, 404, "no route"),
            # a JSON body carries JSON types: no bool or float for an int
            ("/typing", {"k": True}, 400, "k must be an integer"),
            ("/typing", {"k": 3.9}, 400, "k must be an integer"),
            ("/typing", {"seed": True}, 400, "seed must be an integer"),
            (
                "/search", {"queries": [{"tags": []}], "limit": True},
                400, "limit must be an integer",
            ),
            (
                "/search", {"query": {"text": {"a": 1}}},
                400, "text must be a string",
            ),
            (
                "/search", {"query": {"tags": ["x"], "author": 5}},
                400, "author must be a string",
            ),
            (
                "/coverage", {"course_id": ["uncc-2214-krs"]},
                400, "course_id must be a string",
            ),
            (
                "/similar", {"material_id": ["uncc-2214-krs/lecture-01"]},
                400, "material_id must be a string",
            ),
            (
                "/similar",
                {"material_id": "uncc-2214-krs/lecture-01", "limit": 2.5},
                400, "limit must be an integer",
            ),
            (
                "/flavors", {"membership_threshold": "nan"},
                400, "membership_threshold must be finite",
            ),
            (
                "/flavors", {"membership_threshold": True},
                400, "membership_threshold must be a number",
            ),
            (
                "/anchors",
                {"course_id": "uncc-2214-krs", "top": True, "flavors": []},
                400, "top must be an integer",
            ),
            ("/typing", {"deadline_ms": True}, 400, "deadline_ms must be a number"),
            ("/typing", {"label": ["CS1"]}, 400, "label must be a string"),
        ],
    )
    def test_request_errors(self, client, path, body, status, fragment):
        got_status, doc = client.post(path, body)
        assert got_status == status
        assert fragment in doc["error"]

    def test_invalid_json_body_is_400(self, service):
        import http.client as hc

        host, port = service.address
        conn = hc.HTTPConnection(host, port, timeout=30)
        try:
            conn.request(
                "POST", "/typing", body=b"{nope",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            doc = json.loads(response.read())
            assert response.status == 400
            assert "invalid JSON body" in doc["error"]
        finally:
            conn.close()

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_invalid_content_length_is_400(self, service, length):
        """A Content-Length the server cannot parse closes the connection
        after a 400, since the body's end is unknown."""
        import socket

        request = (
            f"POST /typing HTTP/1.1\r\nHost: test\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {length}\r\n\r\n{{}}"
        ).encode()
        with socket.create_connection(service.address, timeout=30) as sock:
            sock.sendall(request)
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), head
        assert b"Connection: close" in head
        assert "invalid Content-Length" in json.loads(body)["error"]

    def test_latency_histograms_recorded(self, service, client):
        client.get("/healthz")
        status, doc = client.get("/metrics")
        assert status == 200
        hist = doc["histograms"].get("service.latency.healthz")
        assert hist is not None and hist["count"] >= 1
        assert hist["p99"] >= hist["p50"] > 0


# -- draining and shutdown ---------------------------------------------------


class TestDraining:
    def test_close_completes_inflight_and_reaps_workers(
        self, dataset, nmf_gate
    ):
        tree, courses, _ = dataset
        state = ServiceState(
            tree, courses,
            config=ServiceConfig(n_shards=2, max_batch=64),
        )
        service = ReproService(state)
        host, port = service.start()

        results = {}

        def queued_request():
            with ServiceClient(host, port) as c:
                results["typing"] = c.post(
                    "/typing", {"k": 3, "seed": 41, "n_restarts": 2}
                )

        def close():
            results["final"] = service.close()

        t = threading.Thread(target=queued_request)
        closer = threading.Thread(target=close)
        with nmf_gate.hold(lambda: service.broker.submit_nmf(
            state.typing_job({"k": 3, "seed": 40, "n_restarts": 2})
        )):
            t.start()
            # queued behind the held batch, so close() must wait for both
            # the handler thread and the broker flush
            _wait_until(lambda: _queued(service.broker) == 1, "request queued")
            closer.start()
            closer.join(timeout=0.2)
            assert closer.is_alive()
        closer.join(timeout=60)
        t.join(timeout=30)
        assert not closer.is_alive() and not t.is_alive()
        final = results["final"]
        status, doc = results["typing"]
        assert status == 200 and doc["k"] == 3

        # this service's broker lane threads are gone (other services'
        # lanes may coexist in the process)
        for lane in (service.broker._nmf_lane, service.broker._search_lane):
            assert lane is not None and not lane._thread.is_alive()
        assert final is service.final_metrics
        assert final["counters"].get("service.shutdowns") == 1

        # new connections are refused after close
        with pytest.raises(OSError):
            with ServiceClient(host, port, timeout=2) as c:
                c.get("/healthz")

    def test_close_is_idempotent(self, dataset):
        tree, courses, _ = dataset
        state = ServiceState(tree, courses, config=ServiceConfig(n_shards=2))
        service = ReproService(state)
        service.start()
        first = service.close()
        assert service.close() is first


# -- state validation and config ---------------------------------------------


class TestState:
    def test_family_matrix_cached_and_stable(self, service):
        lhs = service.state.family_matrix("CS1")
        rhs = service.state.family_matrix("CS1")
        assert lhs is rhs  # stable object => stable broker group token

    def test_family_matrix_unknown_label(self, service):
        with pytest.raises(ServiceError) as err:
            service.state.family_matrix("Quantum")
        assert err.value.status == 400

    def test_resident_config_rejected(self):
        assert ServiceConfig().resident is False
        with pytest.raises(ValueError, match="resident=True"):
            ServiceConfig(resident=True)

    def test_parse_query_roundtrips_filters(self):
        q = parse_query({
            "tags": ["t1", "t2"], "text": "x", "type": "lab",
            "min_mastery": "usage", "min_bloom": "apply",
        })
        assert q.tags == frozenset({"t1", "t2"})
        assert q.mtype is not None and q.mtype.value == "lab"
        with pytest.raises(ServiceError):
            parse_query({"type": "hologram"})
        with pytest.raises(ServiceError):
            parse_query("not-a-dict")


# -- load generator ----------------------------------------------------------


class TestLoadgen:
    def test_parse_mix(self):
        assert parse_mix("search=4,typing=1") == {"search": 4.0, "typing": 1.0}
        assert parse_mix("coverage") == {"coverage": 1.0}
        with pytest.raises(ValueError, match="unknown endpoint"):
            parse_mix("teleport=1")
        with pytest.raises(ValueError, match="empty"):
            parse_mix("search=0")

    def test_quantile_exact(self):
        values = sorted(float(v) for v in range(1, 101))
        assert _quantile(values, 0.50) == 50.0
        assert _quantile(values, 0.99) == 99.0
        assert _quantile([], 0.5) == 0.0

    def test_closed_loop_run_has_zero_errors(self, service):
        host, port = service.address
        report = run_load(
            host, port,
            concurrency=4,
            duration_s=None,
            requests_per_worker=6,
            seed=5,
            nmf_restarts=2,
        )
        assert report.total_requests == 24
        assert report.total_errors == 0
        assert report.requests_per_s > 0
        for stats in report.endpoints.values():
            assert stats["errors"] == 0
            assert stats["p99_s"] >= stats["p50_s"] > 0
        assert "0 errors" in report.summary()

    def test_reproducible_workload(self, service):
        host, port = service.address
        kwargs = dict(
            concurrency=2, duration_s=None, requests_per_worker=5,
            seed=9, nmf_restarts=2,
        )
        lhs = run_load(host, port, **kwargs)
        rhs = run_load(host, port, **kwargs)
        assert (
            {k: v["count"] for k, v in lhs.endpoints.items()}
            == {k: v["count"] for k, v in rhs.endpoints.items()}
        )


# -- overload: admission, deadlines, degraded mode ---------------------------


def _overload_service(dataset, **cfg):
    """A dedicated service with overload knobs turned for the test."""
    tree, courses, _ = dataset
    cfg.setdefault("n_shards", 2)
    state = ServiceState(tree, courses, config=ServiceConfig(**cfg))
    return ReproService(state)


def _warm_typing(svc, body):
    """Fit a ``/typing`` request outside the broker; its live document.

    The direct :func:`run_nmf_fits` call stores every spec in the
    result cache that degraded serving reads.
    """
    job = svc.state.typing_job(body)
    return _json_roundtrip(job.finish(run_nmf_fits(job.matrix, job.specs)))


def _occupy_nmf_lane(svc):
    """An occupant for ``nmf_gate.hold``: an uncached fit that holds the lane."""
    return lambda: svc.broker.submit_nmf(
        svc.state.typing_job({"k": 3, "seed": 2100, "n_restarts": 2})
    )


def _raw_response(host, port, method, path, body=None):
    """One request via http.client so headers are observable."""
    import http.client as hc

    conn = hc.HTTPConnection(host, port, timeout=30)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        doc = json.loads(response.read() or b"{}")
        return response.status, dict(response.getheaders()), doc
    finally:
        conn.close()


class TestOverload:
    def test_deadline_504_leaves_batch_mates_unaffected(
        self, dataset, nmf_gate
    ):
        # Both requests queue behind a held batch; the tight deadline
        # expires there first.  Its 504 must not disturb the batch-mate,
        # which rides the next dispatch to a 200.
        with _overload_service(dataset) as svc:
            host, port = svc.address
            results = {}

            def req(name, body, deadline_ms):
                with ServiceClient(host, port) as c:
                    results[name] = c.post(
                        "/typing", body, deadline_ms=deadline_ms
                    )

            tight = threading.Thread(target=req, args=(
                "tight", {"k": 3, "seed": 2101, "n_restarts": 2}, 100.0,
            ))
            roomy = threading.Thread(target=req, args=(
                "roomy", {"k": 3, "seed": 2102, "n_restarts": 2}, None,
            ))
            with nmf_gate.hold(lambda: svc.broker.submit_nmf(
                svc.state.typing_job({"k": 3, "seed": 2100, "n_restarts": 2})
            )):
                tight.start()
                roomy.start()
                _wait_until(lambda: _queued(svc.broker) == 2, "both queued")
                tight.join(timeout=30)
            roomy.join(timeout=60)
            status, doc = results["tight"]
            assert status == 504 and doc["deadline_exceeded"] is True
            status, doc = results["roomy"]
            assert status == 200 and doc["k"] == 3
            assert metrics.get("broker.nmf.expired") >= 1

    def test_invalid_deadline_rejected(self, dataset):
        with _overload_service(dataset) as svc:
            host, port = svc.address
            with ServiceClient(host, port) as c:
                status, doc = c.post(
                    "/typing", {"k": 2, "deadline_ms": "soon"}
                )
                assert status == 400 and "deadline_ms" in doc["error"]
                status, doc = c.post(
                    "/typing", {"k": 2, "deadline_ms": -5}
                )
                assert status == 400

    def test_queue_full_sheds_503_with_retry_after(self, dataset, nmf_gate):
        with _overload_service(
            dataset, max_inflight_heavy=1, max_queue_heavy=0,
        ) as svc:
            host, port = svc.address
            done = {}

            def occupy():
                with ServiceClient(host, port) as c:
                    done["slow"] = c.post(
                        "/typing", {"k": 3, "seed": 2103, "n_restarts": 2}
                    )

            t = threading.Thread(target=occupy)
            # the occupant holds the only heavy slot while its batch is held
            with nmf_gate.hold(t.start):
                assert svc.gates["heavy"].snapshot()["inflight"] == 1
                status, headers, doc = _raw_response(
                    host, port, "POST", "/typing", {"k": 3, "seed": 2104},
                )
            assert status == 503
            assert doc["shed"] is True and doc["reason"] == "queue_full"
            assert int(headers["Retry-After"]) >= 1
            assert metrics.get("service.shed.heavy") >= 1
            t.join(timeout=60)
            assert done["slow"][0] == 200  # the occupant was untouched

    def test_deadline_below_floor_serves_cached_fit_degraded(
        self, dataset, nmf_gate
    ):
        with _overload_service(dataset) as svc:
            body = {"k": 3, "seed": 2105, "n_restarts": 2}
            warm = _warm_typing(svc, body)
            with ServiceClient(*svc.address) as c:
                status, doc = c.post("/typing", body, deadline_ms=20.0)
            # answered from the cache, bit-identical, no kernel call
            assert status == 200 and doc.pop("degraded") is True
            assert doc == warm
            assert nmf_gate.calls == []
            assert metrics.get("service.degraded") == 1

    def test_result_wait_timeout_serves_cached_fit_degraded(
        self, dataset, nmf_gate
    ):
        with _overload_service(dataset) as svc:
            body = {"k": 3, "seed": 2106, "n_restarts": 2}
            warm = _warm_typing(svc, body)
            with nmf_gate.hold(_occupy_nmf_lane(svc)):
                with ServiceClient(*svc.address) as c:
                    status, doc = c.post("/typing", body, deadline_ms=300.0)
            assert status == 200 and doc.pop("degraded") is True
            assert doc == warm
            assert metrics.get("service.deadline.wait_expired") == 1
            assert metrics.get("service.degraded") == 1

    @pytest.mark.parametrize("deadline_ms", [300.0, 20.0])
    def test_uncached_fit_past_deadline_is_504(
        self, dataset, nmf_gate, deadline_ms
    ):
        with _overload_service(dataset) as svc:
            with nmf_gate.hold(_occupy_nmf_lane(svc)):
                with ServiceClient(*svc.address) as c:
                    status, doc = c.post(
                        "/typing", {"k": 3, "seed": 2107, "n_restarts": 2},
                        deadline_ms=deadline_ms,
                    )
            assert status == 504 and doc["deadline_exceeded"] is True
            assert metrics.get("service.degraded") == 0

    def test_drain_sheds_gate_queued_requests_fast(self, dataset, nmf_gate):
        # Regression: a request queued *behind the admission gate* at
        # shutdown must get a fast 503, not hang the drain join.
        with _overload_service(
            dataset, max_inflight_heavy=1, max_queue_heavy=8,
        ) as svc:
            host, port = svc.address
            results = {}

            def occupant():
                with ServiceClient(host, port) as c:
                    results["occupant"] = c.post(
                        "/typing", {"k": 3, "seed": 2107, "n_restarts": 2}
                    )

            def queued():
                with ServiceClient(host, port) as c:
                    results["queued"] = c.post(
                        "/typing", {"k": 3, "seed": 2108, "n_restarts": 2}
                    )

            t1 = threading.Thread(target=occupant)
            t2 = threading.Thread(target=queued)
            closer = threading.Thread(target=svc.close)
            gate = svc.gates["heavy"]
            # the occupant holds the only heavy slot while its batch is held
            with nmf_gate.hold(t1.start):
                t2.start()
                _wait_until(
                    lambda: gate.snapshot()["waiting"] == 1, "never queued"
                )
                t0 = time.perf_counter()
                closer.start()
                t2.join(timeout=30)  # shed while the occupant still runs
                assert not t2.is_alive()
            closer.join(timeout=30)
            drain_s = time.perf_counter() - t0
            t1.join(timeout=30)
            assert not t1.is_alive() and not closer.is_alive()
            # the in-flight occupant finished; the queued one was shed
            assert results["occupant"][0] == 200
            status, doc = results["queued"]
            assert status == 503 and doc["reason"] == "draining"
            assert drain_s < 20.0

    def test_healthz_metrics_expose_overload_state(self, service, client):
        status, doc = client.get("/healthz")
        assert status == 200
        assert "breakers" not in doc
        assert doc["admission"]["heavy"]["max_inflight"] >= 1
        status, doc = client.get("/metrics")
        assert "breakers" not in doc
        assert "admission" in doc
