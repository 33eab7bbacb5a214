"""Workload ``scale-ingest``: ~25k generated materials as JSONL, in a
single thread.

Set-up streams the first half into an 8-shard ``ShardedMaterialRepository``
(``ingest_stream`` over ``iter_course_records``), builds the shard
indexes, writes the material x tag incidence memmap and fits the
corpus-wide out-of-core NMF (the online kernel, k=8, 10 fixed iterations,
as in ``benchmarks/bench_corpus_scale.py``).

* job: ingest one chunk of 4 courses from the second half, then the first
  search after it -- the time until new materials become searchable;
* query: one warm ``search_many`` (4 seeded tag queries) plus one
  ``find_similar`` (a seeded material id).  Taking both in one op keeps a
  single latency mode: alone, the two calls differ ~3x in cost and a p50
  over their mix would flip between the modes.

It is the only large working set and the only mix of writes beside reads:
an index change that speeds reads but slows the refresh after a write
shows in ``job_*``, not ``query_*``; the out-of-core NMF lands in
``setup_s``.  As in ``report_wl``, the parent generates the inputs and
the measured processes are children (``python3 scale_wl.py CONFIG
[--setup-only]``).
"""

from __future__ import annotations

import math
import random
import sys
import time

import common
import tracing

N_COURSES = 930  # ~25k materials
#: Fixed corpus (see report_wl.CORPUS_SEED); ``--seed`` orders the second
#: half's chunks and draws the queries.
CORPUS_SEED = 2023
N_SHARDS = 8
CHUNK_COURSES = 4
#: Query ops after each job, per second of ``--seconds`` (~4 ms a query
#: op on a 2-core x86 box, so a run lasts about ``--seconds``).
QUERIES_PER_JOB_PER_S = 2
QUERY_BATCH = 4
LIMIT = 10
NMF_K, NMF_ITERS, NMF_SEED = 8, 10, 23
#: Every SAMPLE-th op is checked against a flat repository.
SAMPLE = 25
#: How far an op's layer self times may exceed the op's own timing (see
#: ``report_wl.TOL_S``).
TOL_S = 1e-3

OP_LAYERS = {
    "materials.write": "materials.write_ms",
    "materials.refresh_search": "materials.refresh_search_ms",
    "materials.search": "materials.search_ms",
    "materials.similar": "materials.similar_ms",
}
SETUP_LAYERS = {
    "corpus.parse": "corpus.parse_ms",
    "materials.ingest": "materials.ingest_ms",
    "factorization.memmap_write": "factorization.memmap_write_ms",
    "factorization.online_nmf": "factorization.online_nmf_ms",
}


# -- parent side -------------------------------------------------------------------


def plan(seed: int, seconds: int, first_half, second_half) -> dict:
    """Seeded chunk order and query ops (inputs, fixed before any clock)."""
    rng = random.Random(seed)
    order = list(range(len(second_half)))
    rng.shuffle(order)
    chunks = [
        order[i:i + CHUNK_COURSES] for i in range(0, len(order), CHUNK_COURSES)
    ]
    tags = sorted({t for c in first_half for m in c.materials for t in m.mappings})
    mids = [m.id for c in first_half for m in c.materials]

    def tag_query():
        return sorted(rng.sample(tags, rng.randint(1, 3)))

    per_job = max(2, QUERIES_PER_JOB_PER_S * seconds)
    ops = []
    for _ in chunks:
        queries = [
            {"tags": [tag_query() for _ in range(QUERY_BATCH)],
             "similar": rng.choice(mids)}
            for _ in range(per_job)
        ]
        ops.append({"refresh": tag_query(), "queries": queries})
    return {"chunks": chunks, "ops": ops}


def drive(ctx) -> tuple:
    from repro.corpus.stream import save_courses_jsonl
    from repro.curriculum import load_cs2013

    import inputs

    courses = inputs.labelled_corpus(load_cs2013(), N_COURSES, CORPUS_SEED)
    first, second = courses[: N_COURSES // 2], courses[N_COURSES // 2:]
    cfg = {
        "first": str(ctx.workdir / "first.jsonl"),
        "second": str(ctx.workdir / "second.jsonl"),
        "memmap": str(ctx.workdir / "incidence.npy"),
        "trace": ctx.trace,
        "out": str(ctx.workdir / "result.json"),
        "spans": str(ctx.workdir / "spans.json"),
        **plan(ctx.seed, ctx.seconds, first, second),
    }
    save_courses_jsonl(first, cfg["first"])
    save_courses_jsonl(second, cfg["second"])
    del courses, first, second
    return common.run_measured(common.BENCH_DIR / "scale_wl.py", cfg, ctx.workdir)


# -- measured child ------------------------------------------------------------------


class _Program:
    """The program entry points the workload drives, looked up by module
    attribute so the traced run's wrappers fire."""

    def __init__(self) -> None:
        import numpy as np
        import repro.corpus.stream as stream
        import repro.factorization.outofcore as outofcore
        from repro.curriculum import load_cs2013
        from repro.factorization.nmf import nmf_restart_specs
        from repro.materials import (
            MaterialRepository,
            SearchQuery,
            ShardedMaterialRepository,
        )

        self.np = np
        self.stream = stream
        self.outofcore = outofcore
        self.load_cs2013 = load_cs2013
        self.nmf_restart_specs = nmf_restart_specs
        self.Flat = MaterialRepository
        self.Query = SearchQuery
        self.Sharded = ShardedMaterialRepository


def _setup(p: _Program, cfg: dict) -> dict:
    """The set-up; returns the state the timed ops run against."""
    tree = p.load_cs2013()
    repo = p.Sharded(N_SHARDS)
    report = p.stream.ingest_stream(
        repo, p.stream.iter_course_records(cfg["first"]), trees=(tree,)
    )
    second = list(p.stream.iter_course_records(cfg["second"]))
    warm = [p.Query(tags=frozenset(cfg["ops"][0]["refresh"]))]
    repo.search_many(warm, tree=tree, limit=LIMIT)  # builds every shard index
    out, _ = p.outofcore.write_incidence_memmap(repo, cfg["memmap"])
    del out
    mapped = p.np.load(cfg["memmap"], mmap_mode="r")
    specs = p.nmf_restart_specs(
        mapped, NMF_K, seed=NMF_SEED, solver="mu", max_iter=NMF_ITERS, tol=0.0
    )
    bundles = p.outofcore.outofcore_nmf_fits(mapped, specs)
    return {
        "tree": tree,
        "repo": repo,
        "second": second,
        "excluded": report.n_excluded,
        "nmf_ok": all(math.isfinite(float(b["err"])) for b in bundles),
        "n_materials": repo.n_materials,
        "shape": mapped.shape,
        "nbytes": mapped.nbytes,
        "n_specs": len(specs),
    }


def _queries(p: _Program, tag_lists) -> list:
    return [p.Query(tags=frozenset(tags)) for tags in tag_lists]


def _key(hits) -> list:
    return [(h.material.id, h.score) for h in hits]


def _run_ops(p: _Program, cfg: dict, st: dict, tracer=None):
    """The timed op sequence; returns the seconds of the untraced ops per
    class, each traced op's ``(class, seconds)`` and sampled results.
    With a ``tracer``, every other op of each class runs traced."""
    repo, tree, second = st["repo"], st["tree"], st["second"]
    untraced = {"job": [], "query": []}
    traced_ops = {}
    sampled = []

    def install(t):
        _install_op_wrappers(t, p)

    def timed(kind, index, call):
        traced = tracer if index % 2 else None
        with tracing.maybe_traced_op(traced, install, (kind, index)):
            t0 = time.perf_counter()
            out = call()
            elapsed = time.perf_counter() - t0
        if traced is None:
            untraced[kind].append(elapsed)
        else:
            traced_ops[(kind, index)] = (kind, elapsed)
        return out

    n = 0
    for j, (chunk, op) in enumerate(zip(cfg["chunks"], cfg["ops"])):
        records = [second[i] for i in chunk]
        refresh = _queries(p, [op["refresh"]])

        def write_then_search():
            p.stream.ingest_stream(repo, records, trees=(tree,))
            return repo.search_many(refresh, tree=tree, limit=LIMIT)

        hits = timed("job", j, write_then_search)
        if n % SAMPLE == 0:
            sampled.append((j, [op["refresh"]], [_key(h) for h in hits], None))
        n += 1
        for query in op["queries"]:
            qs = _queries(p, query["tags"])

            def read():
                return (repo.search_many(qs, tree=tree, limit=LIMIT),
                        repo.find_similar(query["similar"], limit=LIMIT))

            found, similar = timed("query", n, read)
            if n % SAMPLE == 0:
                sampled.append((j, query["tags"], [_key(h) for h in found],
                                (query["similar"], _key(similar))))
            n += 1
    return untraced, traced_ops, sampled


def _check(p: _Program, cfg: dict, st: dict, sampled) -> int:
    """Replay sampled ops on a flat repository fed the same courses."""
    tree, second = st["tree"], st["second"]
    flat = p.Flat()
    p.stream.ingest_stream(
        flat, p.stream.iter_course_records(cfg["first"]), trees=(tree,)
    )
    failed = 0
    done = -1
    for j, tags, found, similar in sampled:
        while done < j:
            done += 1
            p.stream.ingest_stream(
                flat, [second[i] for i in cfg["chunks"][done]], trees=(tree,)
            )
        hits = flat.search_many(_queries(p, tags), tree=tree, limit=LIMIT)
        ok = [_key(h) for h in hits] == found
        if similar is not None:
            mid, got = similar
            ok = ok and _key(flat.find_similar(mid, limit=LIMIT)) == got
        failed += not ok
    return failed


def _install_setup_wrappers(tracer: tracing.Tracer, p: _Program) -> None:
    tracer.wrap_iter(p.stream, "iter_course_records", "corpus.parse")
    tracer.wrap(p.stream, "ingest_stream", "materials.ingest")
    tracer.wrap(p.outofcore, "write_incidence_memmap", "factorization.memmap_write")
    tracer.wrap(p.outofcore, "outofcore_nmf_fits", "factorization.online_nmf")


def _install_op_wrappers(tracer: tracing.Tracer, p: _Program) -> None:
    def search_name() -> str:
        op = tracer.current()["op"]
        return "materials.refresh_search" if op[0] == "job" else "materials.search"

    tracer.wrap(p.stream, "ingest_stream", "materials.write")
    tracer.wrap(p.Sharded, "search_many", search_name)
    tracer.wrap(p.Sharded, "find_similar", "materials.similar")


def measure(cfg: dict, setup_only: bool) -> None:
    p = _Program()
    tracer = tracing.Tracer() if cfg["trace"] else None
    if tracer:
        _install_setup_wrappers(tracer, p)
    st = _setup(p, cfg)
    ready = time.monotonic()
    if setup_only:
        common.write_json(cfg["out"], {"ready": ready})
        return
    notes = []
    if st["excluded"]:
        notes.append(f"{st['excluded']} course(s) excluded at ingest")
    if not st["nmf_ok"]:
        notes.append("online NMF objective is not finite")

    setup_spans = []
    if tracer:
        tracer.unwrap_all()
        setup_spans, tracer.spans = tracer.spans, []
    untraced, traced_ops, sampled = _run_ops(p, cfg, st, tracer)
    rss = common.peak_rss_mb()
    attempted = len(cfg["chunks"]) + sum(len(op["queries"]) for op in cfg["ops"])
    failed = _check(p, cfg, st, sampled)

    if tracer:
        values, layer_notes = _layers(
            setup_spans, tracer.spans, st, traced_ops, untraced
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
        print("scale-ingest: " + "; ".join(notes), file=sys.stderr)


def _layers(setup_spans, spans, st, ops, untraced):
    """Per-layer metrics of the traced run, plus problems found."""
    from repro.factorization.outofcore import row_blocks

    values = dict.fromkeys(common.PER_LAYER, 0.0)
    op_values, notes = tracing.reduce_ops(
        setup_spans + spans, "op", OP_LAYERS, ops, untraced, TOL_S,
        expected=SETUP_LAYERS,
    )
    values.update(op_values)
    setup_selfs = tracing.layer_self_s(setup_spans)
    for span_name, metric in SETUP_LAYERS.items():
        values[metric] = setup_selfs.get(span_name, 0.0) * 1e3
    ingest = [s for s in setup_spans if s["name"] == "materials.ingest"]
    values["materials.ingest_per_s"] = st["n_materials"] / sum(
        s["end"] - s["start"] for s in ingest)
    sizes = st["repo"].shard_sizes()
    values["materials.shard_skew"] = max(sizes) / (sum(sizes) / len(sizes))
    n_rows, n_cols = st["shape"]
    values["factorization.online_blocks"] = len(row_blocks(n_rows, n_cols))
    # Computed, not measured: bytes of A each fit streams.  One validation
    # pass, then per spec the initial and final error passes plus two
    # passes per iteration (the H and W updates).
    passes = 1 + st["n_specs"] * (2 + 2 * NMF_ITERS)
    values["factorization.online_mb_streamed"] = passes * st["nbytes"] / 1e6
    return values, notes


if __name__ == "__main__":
    measure(common.read_json(sys.argv[1]), "--setup-only" in sys.argv[2:])
