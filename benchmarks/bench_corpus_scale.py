"""Performance P7 — corpus scale-out: sharded queries, out-of-core NMF.

The roadmap targets six-figure corpora; this benchmark measures the three
legs that make them tractable and pins the speedup the sharded planner
must deliver:

* **ingest** — streamed JSONL-record ingestion (parse, validate,
  quarantine accounting) into an 8-shard repository, materials/second.
* **query** — warm tag-filtered ``search_many`` latency: flat indexed vs
  sharded fan-out vs the reference linear scan.  All three are first
  checked bit-identical; at the 100k corpus the sharded planner must beat
  the flat scan by ``SPEEDUP_FLOOR``.
* **nmf** — out-of-core online NMF over the memory-mapped incidence
  matrix: wall time, block count, and the peak-RSS delta, which must stay
  well under the dense size of ``A`` (the point of the kernel).  In smoke
  mode the corpus fits one block and the result is asserted bit-identical
  to the in-memory engine (``run_nmf_fits``); at 10k the multi-block
  result is asserted allclose.

Sizes: ``--smoke`` runs 2k (CI); the full run covers 10k and 100k.
Results stream into ``BENCH_corpus_scale.json`` size by size, so partial
numbers survive a failed floor.
"""

from __future__ import annotations

import json
import pathlib
import resource
import time

import numpy as np

from repro.corpus.stream import generate_stream, ingest_stream
from repro.curriculum import load_cs2013
from repro.factorization import outofcore_nmf_fits, row_blocks, write_incidence_memmap
from repro.factorization.nmf import nmf_restart_specs
from repro.io.json_io import course_to_dict
from repro.materials import MaterialRepository, SearchQuery, ShardedMaterialRepository
from repro.runtime import run_nmf_fits

N_SHARDS = 8
N_QUERIES = 12
QUERY_LIMIT = 50
SPEEDUP_FLOOR = 3.0  # sharded search_many vs flat scan, 100k corpus
NMF_COMPONENTS = 8
NMF_MAX_ITER = 10
REPEATS = 3

_RESULTS: dict[str, dict] = {}
_OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_corpus_scale.json"


def _flush() -> None:
    _OUT.write_text(json.dumps(
        {
            "bench": "corpus_scale",
            "numpy": np.__version__,
            "n_shards": N_SHARDS,
            "speedup_floor": SPEEDUP_FLOOR,
            "sizes": _RESULTS,
        },
        indent=2,
        sort_keys=True,
    ) + "\n")


def _rss_mb() -> float:
    """Peak RSS of this process so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _key(hits):
    return [(h.material.id, h.score) for h in hits]


def _queries(tree, seed=17):
    rng = np.random.default_rng(seed)
    tag_ids = tree.tag_ids()
    out = []
    for k in (1, 1, 2, 4):
        for _ in range(N_QUERIES // 4):
            out.append(SearchQuery(
                tags=frozenset(rng.choice(tag_ids, size=k, replace=False).tolist())
            ))
    return out


def _best(fn, repeats=REPEATS):
    best, value = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def _run_size(n_materials: int, tree, tmp_path, smoke: bool) -> None:
    entry: dict = {}

    # -- streamed generation + ingestion -------------------------------------
    t0 = time.perf_counter()
    courses = list(generate_stream(tree, seed=13, n_materials=n_materials))
    gen_s = time.perf_counter() - t0
    total = sum(len(c.materials) for c in courses)

    records = (course_to_dict(c) for c in courses)
    sharded = ShardedMaterialRepository(N_SHARDS)
    t0 = time.perf_counter()
    report = ingest_stream(sharded, records, trees=(tree,), chunk_size=512)
    ingest_s = time.perf_counter() - t0
    assert report.n_excluded == 0
    assert sharded.n_materials == total

    flat = MaterialRepository()
    t0 = time.perf_counter()
    flat.ingest(courses, strict=True)
    flat_ingest_s = time.perf_counter() - t0
    assert flat.n_materials == total

    entry["corpus"] = {
        "n_materials": total,
        "n_courses": len(courses),
        "generate_seconds": gen_s,
        "stream_ingest_seconds": ingest_s,
        "stream_ingest_materials_per_s": total / max(ingest_s, 1e-9),
        "flat_ingest_seconds": flat_ingest_s,
        "shard_sizes": sharded.shard_sizes(),
    }

    # -- warm tag-filtered search_many ----------------------------------------
    queries = _queries(tree)
    flat.search_many(queries, tree=tree, limit=QUERY_LIMIT)      # warm index
    sharded.search_many(queries, tree=tree, limit=QUERY_LIMIT)   # warm shards

    t_flat, flat_hits = _best(
        lambda: flat.search_many(queries, tree=tree, limit=QUERY_LIMIT))
    t_shard, shard_hits = _best(
        lambda: sharded.search_many(queries, tree=tree, limit=QUERY_LIMIT))
    t_scan, scan_hits = _best(lambda: [
        flat._search_scan(q, tree=tree, limit=QUERY_LIMIT) for q in queries
    ], repeats=1 if n_materials >= 100_000 else 2)

    assert [_key(h) for h in shard_hits] == [_key(h) for h in flat_hits]
    assert [_key(h) for h in shard_hits] == [_key(h) for h in scan_hits]

    speedup = t_scan / max(t_shard, 1e-9)
    entry["query"] = {
        "n_queries": len(queries),
        "flat_indexed_seconds": t_flat,
        "sharded_seconds": t_shard,
        "flat_scan_seconds": t_scan,
        "sharded_speedup_vs_scan": speedup,
        "bit_identical": True,
    }
    print(f"\n[{n_materials}] search_many x{len(queries)}: "
          f"scan {t_scan * 1e3:.0f}ms, flat {t_flat * 1e3:.0f}ms, "
          f"sharded {t_shard * 1e3:.0f}ms -> {speedup:.1f}x vs scan")

    # -- out-of-core online NMF ------------------------------------------------
    inc_path = tmp_path / f"incidence-{n_materials}.npy"
    t0 = time.perf_counter()
    out, universe = write_incidence_memmap(flat, inc_path)
    write_s = time.perf_counter() - t0
    del out
    mapped = np.load(inc_path, mmap_mode="r")
    dense_mb = mapped.nbytes / 2**20
    n_blocks = len(row_blocks(*mapped.shape))

    specs = nmf_restart_specs(
        mapped, NMF_COMPONENTS, seed=23, solver="mu",
        max_iter=NMF_MAX_ITER, tol=0.0,
    )
    rss_before = _rss_mb()
    t0 = time.perf_counter()
    bundles = outofcore_nmf_fits(mapped, specs)
    nmf_s = time.perf_counter() - t0
    rss_after = _rss_mb()
    rss_delta = max(rss_after - rss_before, 0.0)

    entry["nmf"] = {
        "shape": list(mapped.shape),
        "dense_mb": dense_mb,
        "memmap_write_seconds": write_s,
        "n_blocks": n_blocks,
        "k": NMF_COMPONENTS,
        "max_iter": NMF_MAX_ITER,
        "wall_seconds": nmf_s,
        "err": float(bundles[0]["err"]),
        "peak_rss_mb": rss_after,
        "nmf_rss_delta_mb": rss_delta,
    }
    print(f"[{n_materials}] online NMF {mapped.shape} "
          f"({dense_mb:.0f}MB dense, {n_blocks} blocks): {nmf_s:.1f}s, "
          f"RSS delta {rss_delta:.0f}MB")

    if smoke:
        # One block at this scale: the online solve must replay the
        # in-memory engine bit for bit.
        assert n_blocks == 1
        dense = np.asarray(mapped).copy()
        in_memory = run_nmf_fits(dense, specs, use_cache=False)
        for key in ("w", "h", "err", "n_iter", "converged"):
            assert np.array_equal(in_memory[0][key], bundles[0][key]), key
        entry["nmf"]["bit_identical_to_in_memory"] = True
    elif n_materials <= 10_000:
        dense = np.asarray(mapped).copy()
        in_memory = run_nmf_fits(dense, specs, use_cache=False)
        assert np.allclose(in_memory[0]["w"], bundles[0]["w"], atol=1e-8)
        assert np.allclose(in_memory[0]["h"], bundles[0]["h"], atol=1e-8)
        entry["nmf"]["allclose_to_in_memory"] = True
    else:
        # The point of the kernel: A is never materialized in RAM.  The
        # process may grow by factors + one row block, never by dense A.
        assert rss_delta < 0.5 * dense_mb, (
            f"out-of-core NMF grew RSS by {rss_delta:.0f}MB against a "
            f"{dense_mb:.0f}MB dense matrix — A was materialized"
        )

    _RESULTS[str(n_materials)] = entry
    _flush()

    if n_materials >= 100_000:
        assert speedup >= SPEEDUP_FLOOR, (
            f"sharded search_many is only {speedup:.1f}x the flat scan at "
            f"{n_materials} materials (floor {SPEEDUP_FLOOR}x)"
        )


def test_corpus_scale(smoke, tmp_path):
    tree = load_cs2013()
    sizes = [2_000] if smoke else [10_000, 100_000]
    for n in sizes:
        _run_size(n, tree, tmp_path, smoke)
