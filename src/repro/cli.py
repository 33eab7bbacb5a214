"""Command-line interface.

Everything the examples do, scriptable::

    repro canonical --out courses.json
    repro generate --seed 7 --out courses.json
    repro agreement courses.json --label CS1
    repro flavors courses.json --label CS1 -k 3 --seed 1
    repro types courses.json -k 4 --seed 6
    repro matrix courses.json --out matrix.csv
    repro recommend courses.json --course-id washu-131-singh
    repro hit-tree courses.json --course-id washu-131-singh --out tree.svg

Every subcommand reads/writes the JSON corpus format of :mod:`repro.io`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from repro.analysis import agreement, analyze_flavors, build_course_matrix, type_courses
from repro.anchors import recommend_for_course
from repro.canonical import load_canonical_dataset
from repro.corpus.generator import generate_corpus
from repro.corpus.roster import EXCLUDED_ROSTER, ROSTER
from repro.curriculum import load_cs2013
from repro.io import load_courses, save_courses, save_matrix_csv
from repro.materials import build_hit_tree
from repro.materials.course import CourseLabel
from repro.materials.material import MaterialType
from repro.util.tables import format_table
from repro.viz import ascii_heatmap, ascii_histogram, render_radial_svg


def _load(path: str):
    if str(path).endswith(".jsonl"):
        from repro.corpus.stream import load_courses_jsonl

        courses = load_courses_jsonl(path)
    else:
        courses = load_courses(path)
    if not courses:
        raise SystemExit(f"{path}: no courses")
    return courses


def _repository(courses):
    from repro.materials import MaterialRepository

    repo = MaterialRepository()
    for c in courses:
        repo.add_course(c)
    return repo


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _nonneg_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _filter_label(courses, label: str | None):
    if label is None:
        return courses
    try:
        lab = CourseLabel(label)
    except ValueError:
        raise SystemExit(
            f"unknown label {label!r}; choose from "
            f"{[l.value for l in CourseLabel]}"
        ) from None
    out = [c for c in courses if lab in c.labels]
    if not out:
        raise SystemExit(f"no courses carry label {label}")
    return out


def cmd_canonical(args) -> int:
    _, courses, _ = load_canonical_dataset()
    save_courses(list(courses), args.out)
    print(f"wrote {len(courses)} canonical courses to {args.out}")
    return 0


def cmd_generate(args) -> int:
    tree = load_cs2013()
    if args.courses is not None or args.materials is not None:
        # Scaled synthetic corpus: stream courses straight to disk so a
        # 100k-material corpus never lives in memory.  A .jsonl suffix
        # selects the line-oriented layout (streamable back with
        # `repro ingest` / iter_course_records); otherwise the array
        # layout is collected and saved whole.
        from repro.corpus.stream import generate_stream, save_courses_jsonl

        stream = generate_stream(
            tree,
            seed=args.seed,
            n_courses=args.courses,
            n_materials=args.materials,
        )
        if str(args.out).endswith(".jsonl"):
            n = save_courses_jsonl(stream, args.out)
        else:
            courses = list(stream)
            save_courses(courses, args.out)
            n = len(courses)
        print(f"wrote {n} synthetic courses (seed {args.seed}) to {args.out}")
        return 0
    roster = list(ROSTER) + (list(EXCLUDED_ROSTER) if args.include_excluded else [])
    courses = generate_corpus(tree, seed=args.seed, roster=roster)
    save_courses(courses, args.out)
    print(f"wrote {len(courses)} courses (seed {args.seed}) to {args.out}")
    return 0


def cmd_agreement(args) -> int:
    tree = load_cs2013()
    courses = _filter_label(_load(args.courses), args.label)
    res = agreement(courses, tree=tree, weighted=args.weighted)
    print(f"{len(courses)} courses, {res.n_tags} distinct tags")
    for k in sorted(res.at_least):
        if k <= len(courses):
            print(f"  tags in >= {k} courses: {res.at_least[k]}")
    print(ascii_histogram(res.distribution, label="  "))
    return 0


def cmd_types(args) -> int:
    tree = load_cs2013()
    courses = _load(args.courses)
    matrix = build_course_matrix(courses, tree=tree)
    typing = type_courses(matrix, args.k, seed=args.seed)
    print(ascii_heatmap(
        typing.w_normalized,
        row_labels=list(matrix.course_ids),
        col_labels=[f"d{i + 1}" for i in range(args.k)],
        normalize="global",
    ))
    for label, dim in typing.label_to_type(courses).items():
        print(f"{label.value:10s} -> dimension {dim + 1}")
    print(f"reconstruction error: {typing.reconstruction_err:.3f}")
    return 0


def cmd_flavors(args) -> int:
    tree = load_cs2013()
    courses = _filter_label(_load(args.courses), args.label)
    matrix = build_course_matrix(courses, tree=tree)
    fa = analyze_flavors(matrix, tree, args.k, seed=args.seed)
    for p in fa.profiles:
        print(p.describe())
    for cid in matrix.course_ids:
        w = fa.course_memberships(cid)
        print(f"  {cid:24s} {np.round(w, 2)}")
    return 0


def cmd_matrix(args) -> int:
    tree = load_cs2013()
    courses = _load(args.courses)
    matrix = build_course_matrix(courses, tree=tree)
    save_matrix_csv(matrix, args.out)
    print(f"wrote {matrix.n_courses} x {matrix.n_tags} matrix to {args.out}")
    return 0


def cmd_recommend(args) -> int:
    courses = _load(args.courses)
    try:
        course = next(c for c in courses if c.id == args.course_id)
    except StopIteration:
        raise SystemExit(f"no course {args.course_id!r} in {args.courses}") from None
    flavors = args.flavor or []
    recs = recommend_for_course(course, flavors=flavors)
    rows = [
        (r.module.id, f"{r.score:.2f}", f"{r.anchor_coverage:.0%}",
         "yes" if r.deployable else f"missing {len(r.missing_anchors)}")
        for r in recs.top(args.top)
    ]
    print(format_table(rows, header=["module", "score", "anchors", "deployable"]))
    return 0


def cmd_pdc_gap(args) -> int:
    from repro.analysis.program import analyze_program, pdc_gap

    tree = load_cs2013()
    courses = _load(args.courses)
    prog = analyze_program(courses, tree)
    gap = pdc_gap(courses, tree, core_only=not args.all_tiers)
    print(f"program of {len(courses)} courses")
    print(f"  core-1 coverage: {prog.core1_coverage:.1%}")
    print(f"  core-2 coverage: {prog.core2_coverage:.1%}")
    print(f"  meets CS2013 core rules: {prog.meets_core_requirements()}")
    print(f"  PD-area gap: {len(gap)} entries")
    for t in gap[: args.top]:
        print(f"    - {tree[t].label}")
    return 0


def cmd_deps(args) -> int:
    from repro.analysis.dependencies import topic_dependencies

    tree = load_cs2013()
    courses = _load(args.courses)
    try:
        course = next(c for c in courses if c.id == args.course_id)
    except StopIteration:
        raise SystemExit(f"no course {args.course_id!r} in {args.courses}") from None
    deps = topic_dependencies(course)
    chain = deps.longest_chain()
    print(f"{course.id}: {deps.graph.n_tasks} topics, "
          f"{deps.graph.n_edges} dependencies")
    print(f"longest prerequisite chain ({len(chain)} topics):")
    for t in chain:
        label = tree[t].label if t in tree else t
        print(f"  {deps.intro_position[t]:3d}  {label}")
    found = deps.foundational_tags(min_dependents=args.min_dependents)
    print(f"foundational topics (>= {args.min_dependents} dependents): {len(found)}")
    return 0


def cmd_lint(args) -> int:
    from repro.curriculum import load_pdc12
    from repro.materials.lint import lint_corpus
    from repro.quality.report import fails_threshold, render_json, render_text

    courses = _load(args.courses)
    issues = lint_corpus(courses, [load_cs2013(), load_pdc12()])
    records = [i.to_record() for i in issues]
    if args.format == "json":
        print(render_json(
            records, tool="repro.materials.lint", n_files=len(courses)
        ))
    else:
        print(render_text(records, n_files=len(courses), noun="course"))
    return 1 if fails_threshold(records, args.fail_on) else 0


def cmd_lint_code(args) -> int:
    from repro.quality import run_lint_code

    try:
        report, status = run_lint_code(
            args.paths,
            fmt=args.format,
            fail_on=args.fail_on,
            select=args.select,
            baseline=args.baseline,
            write_baseline_to=args.write_baseline,
            lock_graph_out=args.lock_graph_out,
        )
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    print(report)
    return status


def cmd_map(args) -> int:
    from repro.materials.diff import course_map
    from repro.viz import ascii_scatter

    tree = load_cs2013()
    courses = _load(args.courses)
    coords, res = course_map(courses, tree=tree, seed=args.seed)
    print(ascii_scatter(coords, width=args.width, height=args.height))
    print(f"MDS stress {res.stress:.3f} after {res.n_iter} iterations")
    for cid, (x, y) in coords.items():
        print(f"  {cid:24s} {x:+.2f} {y:+.2f}")
    return 0


def cmd_schedule(args) -> int:
    from repro.io.dag_io import load_taskgraph
    from repro.taskgraph import list_schedule, list_schedule_comm
    from repro.viz import ascii_gantt

    graph = load_taskgraph(args.dag)
    if args.comm_delay > 0:
        schedule = list_schedule_comm(
            graph, args.processors, comm_delay=args.comm_delay, policy=args.policy
        )
    else:
        schedule = list_schedule(graph, args.processors, policy=args.policy)
        schedule.validate()
    print(f"{graph.n_tasks} tasks, {graph.n_edges} edges")
    print(f"work {graph.work():.2f}, span {graph.span():.2f}, "
          f"parallelism {graph.parallelism():.2f}")
    print(f"makespan on p={args.processors} ({args.policy}): "
          f"{schedule.makespan:.2f}  "
          f"speedup {schedule.speedup():.2f}  "
          f"efficiency {schedule.efficiency():.2f}")
    if args.gantt:
        print(ascii_gantt(schedule, width=args.width))
    return 0


def cmd_compare(args) -> int:
    from repro.materials.diff import compare_courses

    tree = load_cs2013()
    courses = _load(args.courses)
    by_id = {c.id: c for c in courses}
    try:
        a, b = by_id[args.a], by_id[args.b]
    except KeyError as exc:
        raise SystemExit(f"unknown course id {exc}") from None
    diff = compare_courses(a, b, tree)
    print(f"{a.id} vs {b.id}")
    print(f"  shared tags : {diff.n_shared} (Jaccard {diff.jaccard:.2f})")
    print(f"  only {a.id}: {len(diff.only_a)}")
    print(f"  only {b.id}: {len(diff.only_b)}")
    print(f"  common ground : {', '.join(diff.most_shared_areas())}")
    print(f"  diverges most : {', '.join(diff.most_divergent_areas())}")
    rows = [
        (area, *counts)
        for area, counts in sorted(diff.by_area.items())
    ]
    print(format_table(rows, header=["area", "shared", f"only {a.id}", f"only {b.id}"]))
    return 0


def cmd_materials(args) -> int:
    from repro.anchors import recommend_materials
    from repro.materials.external import load_external_materials

    courses = _load(args.courses)
    try:
        course = next(c for c in courses if c.id == args.course_id)
    except StopIteration:
        raise SystemExit(f"no course {args.course_id!r} in {args.courses}") from None
    recs = recommend_materials(course, load_external_materials(), limit=args.top)
    rows = [
        (r.material.id, f"{r.score:.2f}",
         len(r.direct_anchors) + len(r.crosswalk_anchors),
         len(r.new_pdc_tags))
        for r in recs
    ]
    print(format_table(
        rows, header=["material", "score", "anchors met", "new PDC topics"],
    ))
    return 0


def cmd_report(args) -> int:
    from repro.report import ReportConfig

    tree = load_cs2013()
    courses = _load(args.courses)
    config = ReportConfig(typing_seed=args.seed, flavors_seed=args.seed)
    if args.engine == "direct":
        from repro.report import build_report_direct

        text = build_report_direct(courses, tree, config=config, title=args.title)
    else:
        from repro.pipeline import build_report_pipeline

        run = build_report_pipeline(
            courses, tree, config=config, title=args.title,
        ).run(use_cache=not args.no_cache)
        text = run.value("report")
        if args.explain:
            print(run.explain(), file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote report ({len(text.splitlines())} lines) to {args.out}")
    else:
        print(text)
    return 0


def cmd_search(args) -> int:
    from repro.materials import SearchQuery

    tree = load_cs2013()
    repo = _repository(_load(args.courses))
    query = SearchQuery(
        tags=frozenset(args.tag or []),
        text=args.text,
        mtype=MaterialType(args.type) if args.type else None,
        author=args.author,
        course_level=args.level,
        language=args.language,
        dataset=args.dataset,
    )
    hits = repo.search(query, tree=tree, limit=args.limit)
    rows = [
        (h.material.id, f"{h.score:.3f}", h.material.mtype.value, h.material.title)
        for h in hits
    ]
    if rows:
        print(format_table(rows, header=["material", "score", "type", "title"]))
    print(f"{len(hits)} hit(s) across {repo.n_materials} materials")
    return 0


def cmd_similar(args) -> int:
    repo = _repository(_load(args.courses))
    try:
        hits = repo.find_similar(args.material_id, limit=args.limit)
    except KeyError:
        raise SystemExit(
            f"no material {args.material_id!r} in {args.courses}"
        ) from None
    rows = [
        (h.material.id, f"{h.score:.3f}", h.material.title) for h in hits
    ]
    print(format_table(rows, header=["material", "score", "title"]))
    return 0


def cmd_hit_tree(args) -> int:
    tree = load_cs2013()
    courses = _load(args.courses)
    try:
        course = next(c for c in courses if c.id == args.course_id)
    except StopIteration:
        raise SystemExit(f"no course {args.course_id!r} in {args.courses}") from None
    ht = build_hit_tree(course.materials, tree)
    with open(args.out, "w") as fh:
        fh.write(render_radial_svg(ht))
    print(f"wrote hit-tree ({len(ht.tree)} nodes) to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    import json as _json

    from repro.corpus.ingest import load_courses_tolerant
    from repro.corpus.stream import ingest_stream, iter_course_records
    from repro.materials import MaterialRepository

    trees = [load_cs2013()] if args.validate_tags else []
    try:
        if str(args.courses).endswith(".jsonl"):
            # Streamed layout: records flow through a throwaway repository
            # in bounded-memory chunks; same accounting, any corpus size.
            report = ingest_stream(
                MaterialRepository(),
                iter_course_records(args.courses),
                trees=trees,
                strict=args.strict,
            )
        else:
            report = load_courses_tolerant(
                args.courses, trees=trees, strict=args.strict
            )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.summary())
    return 0 if not report.excluded or args.allow_excluded else 1


def _service_state(args):
    from repro.materials.persist import (
        has_state,
        load_repository,
        save_repository,
    )
    from repro.service import ServiceConfig, ServiceState

    config = ServiceConfig(
        n_shards=args.shards,
        coalesce=not args.no_coalesce,
        max_batch=args.max_batch,
        max_inflight_cheap=args.max_inflight_cheap,
        max_queue_cheap=args.max_queue_cheap,
        max_inflight_heavy=args.max_inflight_heavy,
        max_queue_heavy=args.max_queue_heavy,
        default_deadline_s=(
            args.deadline_ms / 1000.0 if args.deadline_ms else None
        ),
    )
    if args.state_dir and has_state(args.state_dir):
        repo, load_report = load_repository(args.state_dir)
        tree = load_cs2013()
        state = ServiceState(tree, None, config=config, repo=repo)
        return state, load_report
    if args.courses:
        courses = _load(args.courses)
        tree = load_cs2013()
    else:
        tree, courses, _ = load_canonical_dataset()
    state = ServiceState(tree, courses, config=config)
    if args.state_dir:
        save_repository(state.repo, args.state_dir)
    return state, None


def cmd_serve(args) -> int:
    import signal

    from repro.service import ReproService, serve_forever

    # A non-interactive shell starts background jobs with SIGINT ignored,
    # and Python keeps an ignored SIGINT ignored; restore it so `kill
    # -INT` drains a backgrounded server too.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    state, load_report = _service_state(args)

    def announce(host: str, port: int) -> None:
        if load_report is not None:
            rebuilt = load_report.get("rebuilt_shards", [])
            print(
                f"warm restart from {args.state_dir} "
                f"({len(rebuilt)} shard(s) rebuilt from JSONL)"
                + (f": {rebuilt}" if rebuilt else ""),
                file=sys.stderr,
            )
            excluded = 0
        else:
            excluded = len(state.ingest_report.excluded)
            if args.state_dir:
                print(f"state persisted to {args.state_dir}", file=sys.stderr)
        print(
            f"serving {state.repo.n_courses} courses / "
            f"{state.repo.n_materials} materials "
            f"({excluded} excluded) on http://{host}:{port}",
            file=sys.stderr,
        )
        print(
            f"  shards={state.repo.n_shards} "
            f"coalesce={'on' if state.config.coalesce else 'off'} "
            f"deadline={args.deadline_ms:.0f}ms",
            file=sys.stderr,
        )

    serve_forever(
        ReproService(state, host=args.host, port=args.port), on_ready=announce
    )
    from repro.runtime import sanitize

    if sanitize.enabled():
        san = sanitize.sanitizer()
        print(f"sanitizer: {san.n_violations} violation(s)", file=sys.stderr)
        for violation in san.violations():
            print(f"  {violation.kind}: {violation.detail}", file=sys.stderr)
    print("drained and stopped", file=sys.stderr)
    return 0


def cmd_loadtest(args) -> int:
    import json as _json

    from repro.service import CHAOS_MIX, DEFAULT_MIX, run_chaos_load, run_load

    try:
        if args.chaos:
            report = run_chaos_load(
                args.host,
                args.port,
                concurrency=args.concurrency,
                burst_concurrency=args.burst_concurrency,
                requests_per_worker=args.requests or 25,
                mix=args.mix or CHAOS_MIX,
                seed=args.seed,
                nmf_restarts=args.restarts,
                deadline_ms=args.deadline_ms or 2000.0,
            )
            ok = report.ok
        else:
            report = run_load(
                args.host,
                args.port,
                concurrency=args.concurrency,
                duration_s=None if args.requests else args.duration,
                requests_per_worker=args.requests,
                mix=args.mix or DEFAULT_MIX,
                seed=args.seed,
                nmf_restarts=args.restarts,
                deadline_ms=args.deadline_ms if args.deadline_ms else None,
            )
            ok = report.total_errors == 0
    except (ConnectionError, OSError, RuntimeError, ValueError) as exc:
        raise SystemExit(f"load test failed: {exc}") from None
    if args.json_out:
        with open(args.json_out, "w") as fh:
            _json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote report to {args.json_out}", file=sys.stderr)
    print(report.summary())
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'Data-Driven Discovery of "
                    "Anchor Points for PDC Content' (SC-W 2023).",
    )
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist factorization results under DIR so repeated runs "
             "skip redundant solves (default: $REPRO_CACHE_DIR or "
             "memory-only)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="disable factorization memoization entirely",
    )
    p.add_argument(
        "--runtime-summary", action="store_true",
        help="print runtime metrics (timers, counters, cache stats) after "
             "the command",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("canonical", help="export the canonical 20-course dataset")
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_canonical)

    g = sub.add_parser("generate", help="generate a corpus from the roster")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--include-excluded", action="store_true")
    scale = g.add_mutually_exclusive_group()
    scale.add_argument(
        "--courses", type=_positive_int, default=None, metavar="M",
        help="generate M synthetic courses instead of the paper roster "
             "(streamed; use a .jsonl --out for bounded memory)",
    )
    scale.add_argument(
        "--materials", type=_positive_int, default=None, metavar="N",
        help="generate synthetic courses until ~N materials exist "
             "(streamed; use a .jsonl --out for bounded memory)",
    )
    g.set_defaults(func=cmd_generate)

    a = sub.add_parser("agreement", help="tag-agreement analysis (Figure 3)")
    a.add_argument("courses")
    a.add_argument("--label", default=None, help="course category filter (e.g. CS1)")
    a.add_argument("--weighted", action="store_true",
                   help="weight tags by material count (depth-aware variant)")
    a.set_defaults(func=cmd_agreement)

    t = sub.add_parser("types", help="NNMF course typing (Figure 2)")
    t.add_argument("courses")
    t.add_argument("-k", type=int, default=4)
    t.add_argument("--seed", type=int, default=None)
    t.set_defaults(func=cmd_types)

    f = sub.add_parser("flavors", help="NNMF flavor analysis (Figures 5/7)")
    f.add_argument("courses")
    f.add_argument("--label", default=None)
    f.add_argument("-k", type=int, default=3)
    f.add_argument("--seed", type=int, default=None)
    f.set_defaults(func=cmd_flavors)

    m = sub.add_parser("matrix", help="export the course x tag matrix as CSV")
    m.add_argument("courses")
    m.add_argument("--out", required=True)
    m.set_defaults(func=cmd_matrix)

    r = sub.add_parser("recommend", help="PDC anchor modules for a course (Section 5.2)")
    r.add_argument("courses")
    r.add_argument("--course-id", required=True)
    r.add_argument("--flavor", action="append",
                   help="discovered flavor(s) of the course; repeatable")
    r.add_argument("--top", type=int, default=5)
    r.set_defaults(func=cmd_recommend)

    ln = sub.add_parser("lint", help="data-quality screen over a corpus")
    ln.add_argument("courses")
    ln.add_argument("--format", choices=("text", "json"), default="text",
                    help="report format (default: text)")
    ln.add_argument("--fail-on", choices=("error", "warning"), default="error",
                    help="exit non-zero when findings at/above this severity "
                         "exist (default: error)")
    ln.set_defaults(func=cmd_lint)

    lc = sub.add_parser(
        "lint-code",
        help="static analysis of the codebase itself (repro.quality)",
    )
    lc.add_argument("paths", nargs="*", default=["src"],
                    help="files or directories to analyze (default: src)")
    lc.add_argument("--format", choices=("text", "json"), default="text",
                    help="report format (default: text)")
    lc.add_argument("--fail-on", choices=("error", "warning"), default="error",
                    help="exit non-zero when findings at/above this severity "
                         "exist (default: error)")
    lc.add_argument("--select", action="append",
                    metavar="RPRnnn[,RPRnnn...]", default=None,
                    help="run only the named rule(s); repeatable, comma "
                         "lists accepted")
    lc.add_argument("--baseline", metavar="FILE", default=None,
                    help="subtract findings acknowledged in this baseline "
                         "JSON file")
    lc.add_argument("--write-baseline", metavar="FILE", default=None,
                    dest="write_baseline",
                    help="record every current finding into FILE and exit 0")
    lc.add_argument("--lock-graph-out", metavar="FILE", default=None,
                    dest="lock_graph_out",
                    help="also export the RPR504 lock-ordering graph as JSON")
    lc.set_defaults(func=cmd_lint_code)

    mp = sub.add_parser("map", help="2-D MDS map of whole courses")
    mp.add_argument("courses")
    mp.add_argument("--seed", type=int, default=0)
    mp.add_argument("--width", type=int, default=64)
    mp.add_argument("--height", type=int, default=18)
    mp.set_defaults(func=cmd_map)

    sc = sub.add_parser("schedule",
                        help="simulate list scheduling of a task-graph JSON")
    sc.add_argument("dag", help="task-graph JSON (see repro.io.dag_io)")
    sc.add_argument("-p", "--processors", type=int, default=4)
    sc.add_argument("--policy", default="bottom-level",
                    choices=["bottom-level", "weight", "fifo"])
    sc.add_argument("--comm-delay", type=float, default=0.0)
    sc.add_argument("--gantt", action="store_true")
    sc.add_argument("--width", type=int, default=72)
    sc.set_defaults(func=cmd_schedule)

    cp = sub.add_parser("compare", help="compare two courses (shared/unique tags)")
    cp.add_argument("courses")
    cp.add_argument("a")
    cp.add_argument("b")
    cp.set_defaults(func=cmd_compare)

    em = sub.add_parser("materials",
                        help="recommend external PDC materials for a course")
    em.add_argument("courses")
    em.add_argument("--course-id", required=True)
    em.add_argument("--top", type=int, default=5)
    em.set_defaults(func=cmd_materials)

    rep = sub.add_parser("report", help="full Markdown analysis report")
    rep.add_argument("courses")
    rep.add_argument("--out", default=None, help="write to file instead of stdout")
    rep.add_argument("--seed", type=int, default=1)
    rep.add_argument("--title", default="Course corpus analysis")
    rep.add_argument("--engine", default="dag", choices=["dag", "direct"],
                     help="'dag' runs the memoized incremental pipeline; "
                          "'direct' is the straight-line reference path")
    rep.add_argument("--no-cache", action="store_true",
                     help="recompute every DAG node, ignoring memoized results")
    rep.add_argument("--explain", action="store_true",
                     help="print per-node cached/computed stats to stderr "
                          "(dag engine)")
    rep.set_defaults(func=cmd_report)

    pg = sub.add_parser("pdc-gap", help="program-level PD coverage gap")
    pg.add_argument("courses")
    pg.add_argument("--all-tiers", action="store_true",
                    help="include elective PD entries in the gap")
    pg.add_argument("--top", type=int, default=10,
                    help="gap entries to list")
    pg.set_defaults(func=cmd_pdc_gap)

    d = sub.add_parser("deps", help="topic-dependency analysis of one course")
    d.add_argument("courses")
    d.add_argument("--course-id", required=True)
    d.add_argument("--min-dependents", type=int, default=3)
    d.set_defaults(func=cmd_deps)

    se = sub.add_parser("search", help="ranked material search (§3.1.2, indexed)")
    se.add_argument("courses")
    se.add_argument("--tag", action="append", metavar="TAG_ID",
                    help="guideline tag or internal-node id; repeatable "
                         "(internal nodes expand to the tags beneath them)")
    se.add_argument("--text", default="", help="title/description substring")
    se.add_argument("--type", default=None,
                    choices=sorted(t.value for t in MaterialType),
                    help="material type filter")
    se.add_argument("--author", default="", help="author substring")
    se.add_argument("--level", default="", help="course level (e.g. CS1)")
    se.add_argument("--language", default="", help="programming language")
    se.add_argument("--dataset", default="", help="dataset substring")
    se.add_argument("--limit", type=_nonneg_int, default=10,
                    help="max results (must be >= 0)")
    se.set_defaults(func=cmd_search)

    si = sub.add_parser("similar", help="materials most similar to one material")
    si.add_argument("courses")
    si.add_argument("--material-id", required=True)
    si.add_argument("--limit", type=_positive_int, default=10,
                    help="results to return (must be >= 1)")
    si.set_defaults(func=cmd_similar)

    h = sub.add_parser("hit-tree", help="radial hit-tree SVG for a course")
    h.add_argument("courses")
    h.add_argument("--course-id", required=True)
    h.add_argument("--out", required=True)
    h.set_defaults(func=cmd_hit_tree)

    ig = sub.add_parser(
        "ingest",
        help="tolerant corpus load: report the retained/excluded split "
             "instead of crashing on malformed records",
    )
    ig.add_argument("courses")
    ig.add_argument("--strict", action="store_true",
                    help="fail (listing every bad record) if anything is "
                         "excluded")
    ig.add_argument("--validate-tags", action="store_true",
                    help="also exclude courses whose mappings reference "
                         "tags outside the CS2013 tree")
    ig.add_argument("--allow-excluded", action="store_true",
                    help="exit 0 even when records were excluded")
    ig.add_argument("--format", choices=("text", "json"), default="text")
    ig.set_defaults(func=cmd_ingest)

    sv = sub.add_parser(
        "serve",
        help="run the analysis service: a threaded JSON API with "
             "request coalescing over in-memory shards",
    )
    sv.add_argument("courses", nargs="?", default=None,
                    help="JSON or JSONL corpus to serve (default: the "
                         "canonical 20-course dataset)")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=_nonneg_int, default=8750,
                    help="listen port; 0 picks a free one (default: 8750)")
    sv.add_argument("--shards", type=_positive_int, default=4,
                    help="material shard count (default: 4)")
    sv.add_argument("--max-batch", type=_positive_int, default=32,
                    help="the largest batch one dispatch takes "
                         "(default: 32)")
    sv.add_argument("--no-coalesce", action="store_true",
                    help="dispatch every request individually (the "
                         "load-test baseline)")
    sv.add_argument("--state-dir", default=None, metavar="DIR",
                    help="persist the ingested corpus under DIR "
                         "(checksummed per-shard bundles + JSONL); a "
                         "restart with the same DIR boots warm from it")
    sv.add_argument("--deadline-ms", type=_nonneg_float, default=30000.0,
                    help="default per-request budget when the client "
                         "sends no deadline_ms; 0 = unbounded "
                         "(default: 30000)")
    sv.add_argument("--max-inflight-cheap", type=_positive_int, default=64,
                    help="admission: concurrent cheap reads (default: 64)")
    sv.add_argument("--max-queue-cheap", type=_nonneg_int, default=128,
                    help="admission: queued cheap reads before shedding "
                         "(default: 128)")
    sv.add_argument("--max-inflight-heavy", type=_positive_int, default=8,
                    help="admission: concurrent NMF-bearing requests "
                         "(default: 8)")
    sv.add_argument("--max-queue-heavy", type=_nonneg_int, default=32,
                    help="admission: queued NMF-bearing requests before "
                         "shedding (default: 32)")
    sv.set_defaults(func=cmd_serve)

    lt = sub.add_parser(
        "loadtest",
        help="closed-loop load generator against a running service",
    )
    lt.add_argument("--host", default="127.0.0.1")
    lt.add_argument("--port", type=_positive_int, default=8750)
    lt.add_argument("--concurrency", type=_positive_int, default=8,
                    help="closed-loop client threads (default: 8)")
    lt.add_argument("--duration", type=_positive_float, default=10.0,
                    help="seconds to run (default: 10)")
    lt.add_argument("--requests", type=_positive_int, default=None,
                    metavar="N",
                    help="issue exactly N requests per worker instead of "
                         "running for --duration")
    lt.add_argument("--mix", default=None,
                    help="endpoint weights, e.g. 'search=4,typing=1' "
                         "(default: the standard mixed workload)")
    lt.add_argument("--seed", type=int, default=0,
                    help="workload RNG seed (default: 0)")
    lt.add_argument("--restarts", type=_positive_int, default=2,
                    help="NMF restarts per typing/flavors/anchors request "
                         "(default: 2)")
    lt.add_argument("--json-out", default=None, metavar="PATH",
                    help="also write the full report as JSON")
    lt.add_argument("--deadline-ms", type=_nonneg_float, default=0.0,
                    help="attach this per-request budget (X-Deadline-Ms); "
                         "0 = none (chaos mode defaults to 2000)")
    lt.add_argument("--chaos", action="store_true",
                    help="run the 3-phase overload/chaos scenario "
                         "(baseline, burst, tight deadline) and assert the "
                         "overload invariants; exit 1 on any violation")
    lt.add_argument("--burst-concurrency", type=_positive_int, default=None,
                    help="chaos: overload-phase client threads "
                         "(default: 4x --concurrency)")
    lt.set_defaults(func=cmd_loadtest)

    return p


def main(argv: Sequence[str] | None = None) -> int:
    import repro.runtime as runtime

    parser = build_parser()
    args = parser.parse_args(argv)
    runtime.configure(
        cache_dir=args.cache_dir if args.cache_dir is not None else ...,
        cache_enabled=False if args.no_cache else None,
    )
    status = args.func(args)
    if args.runtime_summary:
        print(runtime.summary(), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
