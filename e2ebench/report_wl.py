"""Workload ``report``: the paper pipeline on ~100 generated, labelled
courses (~2.7k materials), in a single thread.

* job: one cold ``build_report`` (runtime result cache cleared first);
* query: one rebuild with the cache warm, after a tag-preserving edit of
  one course (a new material that uses only tags the course already has).

Jobs and queries alternate 1:1.  A cold build is dominated by NMF (course
typing plus two flavour families); an update runs no NMF and spends its
time in pipeline planning, digests and the nodes the edit touches.  So a
kernel change should move ``job_*`` and a digest or cache change should
mostly move ``query_*``.

The parent process generates the inputs; the measured processes are
children (``python3 report_wl.py CONFIG [--setup-only]``, see
``common.run_measured``) so neither generation time nor generation
memory reaches ``setup_s`` or ``peak_rss_mb``.
"""

from __future__ import annotations

import dataclasses
import sys
import time

import common
import tracing

N_COURSES = 100
#: The corpus is fixed; ``--seed`` picks the edit sequence.  A seeded
#: corpus would change the NMF problem sizes, so runs with different
#: seeds would not do the same work.
CORPUS_SEED = 2023
#: Job+query pairs per second of ``--seconds`` (~140 ms a pair on a 2-core
#: x86 box), so each class holds >= 100 samples at the default length.
PAIRS_PER_S = 7
#: Every SAMPLE-th update is checked against a cold build of its corpus.
SAMPLE = 10
#: Sections a labelled corpus must render (lost when labels are missing).
REQUIRED_SECTIONS = (
    "### CS1 agreement",
    "### DS agreement",
    "## CS1 flavors",
    "## Data Structures flavors",
)
#: How far an op's layer self times may exceed the op's own timing.  The
#: root span brackets the timed call, so only clock reads separate them.
TOL_S = 1e-3

#: Per-layer span name -> metric name.
OP_LAYERS = {
    "pipeline.plan": "pipeline.plan_ms",
    "pipeline.run": "pipeline.run_ms",
    "analysis.matrix": "analysis.matrix_ms",
    "analysis.typing": "analysis.typing_ms",
    "analysis.flavors": "analysis.flavors_ms",
    "analysis.agreement": "analysis.agreement_ms",
    "analysis.program": "analysis.program_ms",
    "anchors.recommend": "anchors.recommend_ms",
    "factorization.nmf": "factorization.nmf_ms",
}
#: Program counters read around each traced op.
COUNTERS = ("runtime.nmf_fits_computed", "cache.hit", "cache.miss")


# -- parent side -------------------------------------------------------------------


def plan(seed: int, seconds: int, courses) -> list:
    """The seeded edit sequence: one (course index, new material) per pair.

    Each new material copies an existing material of the course under a
    fresh id, so the course's tag set (its matrix row) is unchanged.
    """
    import numpy as np
    from repro.io.json_io import material_to_dict

    rng = np.random.default_rng([seed, 7])
    n_pairs = max(10, PAIRS_PER_S * seconds)
    edits = []
    for i in range(n_pairs + 1):  # the extra one is the warm-up edit
        ci = int(rng.integers(len(courses)))
        course = courses[ci]
        base = course.materials[int(rng.integers(len(course.materials)))]
        material = dataclasses.replace(
            base, id=f"{course.id}-edit-{i:04d}", title=f"{base.title} (rev {i})"
        )
        edits.append([ci, material_to_dict(material)])
    return edits


def drive(ctx) -> tuple:
    from repro.curriculum import load_cs2013
    from repro.io.json_io import save_courses

    import inputs

    courses = inputs.labelled_corpus(load_cs2013(), N_COURSES, CORPUS_SEED)
    corpus = ctx.workdir / "courses.json"
    save_courses(courses, corpus)
    cfg = {
        "corpus": str(corpus),
        "edits": plan(ctx.seed, ctx.seconds, courses),
        "trace": ctx.trace,
        "out": str(ctx.workdir / "result.json"),
        "spans": str(ctx.workdir / "spans.json"),
    }
    del courses
    return common.run_measured(common.BENCH_DIR / "report_wl.py", cfg, ctx.workdir)


# -- measured child ------------------------------------------------------------------


def _with_edit(courses, ci: int, material):
    out = list(courses)
    course = out[ci]
    out[ci] = dataclasses.replace(course, materials=[*course.materials, material])
    return out


def _run_ops(build, result_cache, base, edited, reference, tracer=None):
    """Alternate cold jobs and warm updates.

    Returns the seconds of the untraced ops per class, each traced op's
    ``(class, seconds)``, the number of jobs that differ from
    ``reference``, sampled update outputs, and the program's counter
    deltas over the traced ops.  With a ``tracer``, every other job+query
    pair runs traced.
    """
    from repro.runtime import metrics

    untraced = {"job": [], "query": []}
    traced_ops = {}
    kept, counted = {}, dict.fromkeys(COUNTERS, 0)
    failed = 0
    for i, corpus in enumerate(edited):
        traced = tracer if i % 2 else None
        result_cache.clear()
        for kind, docs in (("job", base), ("query", corpus)):
            before = [metrics.get(name) for name in COUNTERS]
            with tracing.maybe_traced_op(traced, _install_op_wrappers, (kind, i)):
                t0 = time.perf_counter()
                out = build(docs)
                elapsed = time.perf_counter() - t0
            if traced:
                traced_ops[(kind, i)] = (kind, elapsed)
                for name, value in zip(COUNTERS, before):
                    counted[name] += metrics.get(name) - value
            else:
                untraced[kind].append(elapsed)
            if kind == "job":
                failed += out != reference
            elif i % SAMPLE == 0:
                kept[i] = out
    return untraced, traced_ops, failed, kept, counted


def _install_op_wrappers(tracer: tracing.Tracer) -> None:
    import repro.analysis.typing
    import repro.pipeline
    import repro.pipeline.core
    import repro.pipeline.report
    import repro.report

    def run_counts(span, args, kwargs, result):
        span["hits"], span["computed"] = result.n_hits, result.n_computed

    def nmf_counts(span, args, kwargs, result):
        span["fits"] = len(result)
        span["iters"] = sum(int(b["n_iter"]) for b in result)

    # build_report imports build_report_pipeline from the package at call
    # time, so the package attribute is the binding that fires.
    tracer.wrap(repro.pipeline, "build_report_pipeline", "pipeline.plan")
    tracer.wrap(repro.pipeline.core.Pipeline, "run", "pipeline.run", run_counts)
    pr = repro.pipeline.report
    tracer.wrap(pr, "build_course_matrix", "analysis.matrix")
    tracer.wrap(pr, "type_courses", "analysis.typing")
    tracer.wrap(pr, "analyze_flavors", "analysis.flavors")
    tracer.wrap(repro.report, "agreement", "analysis.agreement")
    tracer.wrap(repro.report, "analyze_program", "analysis.program")
    tracer.wrap(repro.report, "pdc_gap", "analysis.program")
    tracer.wrap(repro.report, "recommend_for_course", "anchors.recommend")
    tracer.wrap(repro.analysis.typing, "run_nmf_fits", "factorization.nmf", nmf_counts)


def measure(cfg: dict, setup_only: bool) -> None:
    from repro.curriculum import load_cs2013
    from repro.io import json_io
    from repro.report import build_report
    from repro.runtime import result_cache

    tracer = tracing.Tracer() if cfg["trace"] else None
    if tracer:
        tracer.wrap(json_io, "load_courses", "io.load")

    base = json_io.load_courses(cfg["corpus"])
    tree = load_cs2013()
    (wi, wd), *pairs = cfg["edits"]
    edited = [
        _with_edit(base, ci, json_io.material_from_dict(d)) for ci, d in pairs
    ]
    result_cache.clear()
    reference = build_report(base, tree)
    build_report(_with_edit(base, wi, json_io.material_from_dict(wd)), tree)
    ready = time.monotonic()
    if setup_only:
        common.write_json(cfg["out"], {"ready": ready})
        return
    setup_spans = []
    if tracer:
        tracer.unwrap_all()
        setup_spans, tracer.spans = tracer.spans, []

    def build(docs):
        return build_report(docs, tree)

    untraced, traced_ops, failed, kept, counted = _run_ops(
        build, result_cache, base, edited, reference, tracer
    )
    rss = common.peak_rss_mb()
    notes = [f"no {s!r} section" for s in REQUIRED_SECTIONS if s not in reference]
    for i, out in kept.items():
        failed += out != build_report(edited[i], tree, use_cache=False)
    attempted = 2 * len(edited)
    if tracer:
        values, layer_notes = _layers(
            setup_spans, tracer.spans, counted, traced_ops, untraced
        )
        notes += layer_notes
    else:
        values = common.end_to_end(
            untraced["job"], untraced["query"], rss, attempted, failed
        )
    common.write_json(cfg["out"], {
        "ready": ready,
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "notes": notes,
    })
    if tracer:
        common.write_json(cfg["spans"], setup_spans + tracer.spans)
    if notes:
        print("report: " + "; ".join(notes), file=sys.stderr)


def _layers(setup_spans, spans, counted, ops, untraced):
    """Per-layer metrics of the traced run, plus problems found."""
    values = dict.fromkeys(common.PER_LAYER, 0.0)
    op_values, notes = tracing.reduce_ops(
        setup_spans + spans, "op", OP_LAYERS, ops, untraced, TOL_S,
        expected=["io.load"],
    )
    values.update(op_values)
    runs = [s for s in spans if s["name"] == "pipeline.run"]
    values["pipeline.nodes_hit"] = sum(s["hits"] for s in runs)
    values["pipeline.nodes_computed"] = sum(s["computed"] for s in runs)
    total = values["pipeline.nodes_hit"] + values["pipeline.nodes_computed"]
    values["pipeline.hit_ratio"] = values["pipeline.nodes_hit"] / total
    fits = [s for s in spans if s["name"] == "factorization.nmf"]
    values["factorization.fits"] = sum(s["fits"] for s in fits)
    values["factorization.iterations"] = sum(s["iters"] for s in fits)
    values["factorization.fits_computed"] = counted["runtime.nmf_fits_computed"]
    hits, misses = counted["cache.hit"], counted["cache.miss"]
    values["runtime.cache_hit_ratio"] = hits / max(hits + misses, 1)
    values["anchors.calls"] = sum(1 for s in spans if s["name"] == "anchors.recommend")
    values["io.load_ms"] = tracing.layer_self_s(setup_spans).get("io.load", 0.0) * 1e3
    return values, notes


if __name__ == "__main__":
    measure(common.read_json(sys.argv[1]), "--setup-only" in sys.argv[2:])
