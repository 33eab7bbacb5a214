"""Concurrent serving under the lock sanitizer.

The claim is cross-cutting: a broker-fronted service under concurrent
load must (a) keep serving bit-identical results, and (b) do so without
a single lock-order inversion observed by the runtime sanitizer.  The
static RPR5xx rules prove the ordering discipline about the code; this
test checks the same property on the live system.

``/search`` and ``/similar`` run the shard fan-out in the server
process; ``/typing`` rides along for the broker's NMF lane.  Each
document is compared with its direct twin, computed without the
service.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.runtime as runtime
from repro.analysis import type_courses
from repro.runtime import sanitize
from repro.service import (
    ReproService,
    ServiceClient,
    ServiceConfig,
    ServiceState,
)


def _json_roundtrip(doc):
    return json.loads(json.dumps(doc))


@pytest.fixture
def sanitized():
    """Sanitizer armed, everything restored after.

    The sanitizer must be enabled *before* the service stack is built:
    instrumentation is decided at lock creation.
    """
    runtime.reset()
    sanitize.set_sanitize("locks")
    sanitize.reset()
    yield
    sanitize.set_sanitize(None)
    sanitize.reset()
    runtime.reset()


class TestServiceChaosWithSanitizer:
    def test_crashy_service_bit_identical_and_inversion_free(
        self, dataset, sanitized
    ):
        tree, courses, _ = dataset
        seeds = list(range(6))
        state = ServiceState(
            tree, courses,
            config=ServiceConfig(n_shards=2),
        )
        tags = list(state.matrix.tag_ids[:3])
        material_ids = [m.id for m in state.repo.materials()][:6]
        requests = (
            [("/typing", {"k": 4, "seed": s, "n_restarts": 2}) for s in seeds]
            + [
                ("/search", {"queries": [{"tags": [t]}, {"text": "lab"}]})
                for t in tags
            ]
            + [("/similar", {"material_id": m}) for m in material_ids]
        )

        # Direct twins, computed without the service.
        typings = {
            seed: type_courses(state.matrix, 4, seed=seed, n_restarts=2)
            for seed in seeds
        }

        def twin(path, body):
            if path == "/search":
                job = state.search_job(body)
                return job.finish(state.repo.search_many(
                    job.queries, tree=job.tree, limit=job.limit
                ))
            return state.similar(body)

        expected = {
            i: _json_roundtrip(twin(path, body))
            for i, (path, body) in enumerate(requests)
            if path != "/typing"
        }

        with ReproService(state) as svc:
            host, port = svc.address

            def fetch(request):
                with ServiceClient(host, port) as c:
                    return c.post(*request)

            with ThreadPoolExecutor(max_workers=6) as pool:
                first = list(pool.map(fetch, requests))
                second = list(pool.map(fetch, requests))

        for i, ((path, body), (status, doc)) in enumerate(zip(requests, first)):
            assert status == 200, (path, doc)
            if path == "/typing":
                direct = typings[body["seed"]]
                assert doc["reconstruction_err"] == direct.reconstruction_err
                assert doc["w"] == _json_roundtrip(direct.w.tolist())
            else:
                assert doc == expected[i], path
        # Run-to-run identity under concurrent load.
        assert [doc for _, doc in first] == [doc for _, doc in second]

        san = sanitize.sanitizer()
        inversions = [
            v for v in san.violations() if v.kind == "order_inversion"
        ]
        assert inversions == [], "\n".join(v.detail for v in inversions)
        # The run actually exercised instrumented locks.
        assert san.counters().get("sanitizer.acquisitions", 0) > 0

    def test_sanitizer_section_in_service_metrics(
        self, dataset, sanitized
    ):
        tree, courses, _ = dataset
        state = ServiceState(
            tree, courses,
            config=ServiceConfig(n_shards=2),
        )
        with ReproService(state) as svc:
            host, port = svc.address
            with ServiceClient(host, port) as c:
                status, doc = c.get("/metrics")
        assert status == 200
        assert doc["sanitizer"]["enabled"] is True
        assert doc["sanitizer"]["n_violations"] == 0
