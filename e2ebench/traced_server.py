"""Traced stand-in for ``repro serve``, used by the traced serve-mixed run.

    python3 traced_server.py COURSES.json --shards N --spans-out PATH

Builds ``ServiceState``/``ReproService`` through the public API exactly as
``repro serve COURSES.json --shards N --port 0`` does (same default
``ServiceConfig``), after installing span recorders in this process, and
prints the same ``serving ... on http://host:port`` line on stderr.  On
SIGINT it drains like ``repro serve`` and writes the spans to PATH.
"""

from __future__ import annotations

import argparse
import sys

import common
import tracing


def install(tracer: tracing.Tracer) -> None:
    import repro.io.json_io as json_io
    import repro.materials.sharding as sharding
    import repro.service.admission as admission
    import repro.service.broker as broker
    import repro.service.server as server
    import repro.service.state as state

    job_ops: dict = {}

    # -- the request: from the parsed request line to the last byte ---------
    def traced_parse_request(parse_request):
        def wrapper(self):
            span = tracer.begin("service.request")
            self._bench_span = span
            ok = parse_request(self)
            if ok:
                op = self.headers.get("X-Bench-Op")
                span["op"] = int(op) if op else None
            return ok

        return wrapper

    def traced_handle_one_request(handle_one):
        def wrapper(self):
            try:
                handle_one(self)
            finally:
                span = self.__dict__.pop("_bench_span", None)
                if span is not None:
                    tracer.end(span)

        return wrapper

    tracer.patch(server._Handler, "parse_request", traced_parse_request)
    tracer.patch(server._Handler, "handle_one_request", traced_handle_one_request)

    tracer.wrap(server.ReproService, "route", "service.route")
    tracer.wrap(admission.AdmissionGate, "admit", "service.admit_wait")

    # -- job construction; each job's finish continuation ------------------
    def traced_job(span, args, kwargs, job):
        finish = getattr(job, "finish", None)
        if finish is None:
            return  # answered inline (explicit anchors flavors)
        job_ops[id(job)] = span["op"]

        def traced_finish(*a, **kw):
            with tracer.span("service.finish"):
                return finish(*a, **kw)

        job.finish = traced_finish

    for name in ("search_job", "typing_job", "flavors_job", "anchors_job"):
        tracer.wrap(state.ServiceState, name, "service.job_build", traced_job)

    # -- broker: submit -> result wait, and the batch kernel calls ----------
    waits: dict = {}

    def traced_submit(submit):
        def wrapper(self, job):
            span = tracer.begin("broker.wait")
            try:
                pending = submit(self, job)
            except BaseException:
                tracer.end(span)
                raise
            waits[id(pending)] = span
            return pending

        return wrapper

    for name in ("submit_nmf", "submit_search"):
        tracer.patch(broker.RequestBroker, name, traced_submit)

    def traced_result(result):
        def wrapper(self, timeout=None):
            try:
                return result(self, timeout)
            finally:
                span = waits.pop(id(self), None)
                if span is not None:
                    tracer.end(span)

        return wrapper

    tracer.patch(broker.PendingResult, "result", traced_result)

    def traced_run_batch(run_batch):
        def wrapper(name, dispatch, batch, breaker=None):
            ops = [job_ops.pop(id(job), None) for job, _ in batch]
            with tracer.span("broker.batch", lane=name, ops=ops):
                return run_batch(name, dispatch, batch, breaker)

        return wrapper

    tracer.patch(broker, "_run_batch", traced_run_batch)

    def nmf_counts(span, args, kwargs, bundles):
        span["fits"] = len(bundles)
        span["iters"] = sum(int(b["n_iter"]) for b in bundles)

    tracer.wrap(broker, "run_nmf_fits", "factorization.nmf", nmf_counts)

    # -- program layers under the service ------------------------------------
    def ingest_counts(span, args, kwargs, report):
        span["materials"] = sum(len(c.materials) for c in report.retained)

    tracer.wrap(json_io, "load_courses", "io.load")
    tracer.wrap(sharding.ShardedMaterialRepository, "ingest", "materials.ingest",
                ingest_counts)
    tracer.wrap(sharding.ShardedMaterialRepository, "search_many", "materials.search")
    tracer.wrap(sharding.ShardedMaterialRepository, "find_similar", "materials.similar")
    tracer.wrap(state, "typing_from_bundles", "analysis.typing")
    tracer.wrap(state, "flavors_from_typing", "analysis.flavors")
    tracer.wrap(state, "recommend_for_course", "anchors.recommend")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("courses")
    ap.add_argument("--shards", type=int, required=True)
    ap.add_argument("--spans-out", required=True)
    args = ap.parse_args()

    tracer = tracing.Tracer()
    install(tracer)

    import repro.io.json_io as json_io
    from repro.curriculum import load_cs2013
    from repro.service import ReproService, ServiceConfig, ServiceState, serve_forever

    courses = json_io.load_courses(args.courses)
    state = ServiceState(
        load_cs2013(), courses, config=ServiceConfig(n_shards=args.shards)
    )
    service = ReproService(state, host="127.0.0.1", port=0)
    host, port = service.start()
    print(
        f"serving {state.repo.n_courses} courses / {state.repo.n_materials} "
        f"materials on http://{host}:{port}",
        file=sys.stderr,
        flush=True,
    )
    serve_forever(service)
    common.write_json(args.spans_out, tracer.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
