"""Shared pieces of the end-to-end benchmark: pinned environment, metric
names and units, statistics, and the result line.

Importing this module changes nothing; :func:`pin_environment` must be
called before ``numpy`` or ``repro`` are imported so the BLAS thread
settings and the cleared ``REPRO_*`` variables take effect.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Set in every process the benchmark runs: one BLAS thread per process
#: (each workload is single-threaded or already runs ``nproc`` processes)
#: and a fixed hash seed, so set and dict iteration order repeat.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: End-to-end metrics (untraced runs), identical names on every workload.
END_TO_END = {
    "setup_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "ops_per_s": "1/s",
    "ok_frac": "1",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced runs).  A workload that never reaches a
#: layer reports 0 for it.  ``*_ms`` values are self time in ms per op
#: for op-path layers and per set-up for set-up layers (see README.md).
PER_LAYER = {
    "pipeline.plan_ms": "ms",
    "pipeline.run_ms": "ms",
    "pipeline.nodes_computed": "count",
    "pipeline.nodes_hit": "count",
    "pipeline.hit_ratio": "1",
    "analysis.matrix_ms": "ms",
    "analysis.typing_ms": "ms",
    "analysis.flavors_ms": "ms",
    "analysis.agreement_ms": "ms",
    "analysis.program_ms": "ms",
    "factorization.nmf_ms": "ms",
    "factorization.fits": "count",
    "factorization.fits_computed": "count",
    "factorization.iterations": "count",
    "factorization.memmap_write_ms": "ms",
    "factorization.online_nmf_ms": "ms",
    "factorization.online_blocks": "count",
    "factorization.online_mb_streamed": "MB",
    "runtime.cache_hit_ratio": "1",
    "anchors.recommend_ms": "ms",
    "anchors.calls": "count",
    "corpus.parse_ms": "ms",
    "io.load_ms": "ms",
    "materials.ingest_ms": "ms",
    "materials.ingest_per_s": "1/s",
    "materials.write_ms": "ms",
    "materials.refresh_search_ms": "ms",
    "materials.search_ms": "ms",
    "materials.similar_ms": "ms",
    "materials.shard_skew": "1",
    "materials.resident_bytes_per_query": "B",
    "service.request_ms": "ms",
    "service.route_ms": "ms",
    "service.http_ms": "ms",
    "service.response_kb": "kB",
    "service.admit_wait_ms": "ms",
    "service.shed": "count",
    "service.job_build_ms": "ms",
    "service.finish_ms": "ms",
    "broker.wait_ms": "ms",
    "broker.nmf_batch_size": "1",
    "broker.search_batch_size": "1",
    "endpoint.similar_p50_ms": "ms",
    "endpoint.coverage_p50_ms": "ms",
    "loadgen.cpu_frac": "1",
    "host.ref_loop_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.unattributed_ms": "ms",
}

#: Fresh set-ups per untraced run (measured processes, or server starts);
#: ``setup_s`` is their median.
SETUP_REPS = 5


def pin_environment(env: dict | None = None) -> dict:
    """Clear every ``REPRO_*`` variable and set :data:`PINNED_ENV`.

    Applies to ``os.environ`` when ``env`` is None (this process), else to
    a copy of ``env`` meant for a child.  Returns the resulting mapping.
    """
    target = os.environ if env is None else dict(env)
    for key in [k for k in target if k.startswith("REPRO_")]:
        del target[key]
    target.update(PINNED_ENV)
    return target


def child_env() -> dict:
    """Environment for a benchmark child: pinned, importing ``src`` only."""
    env = pin_environment(dict(os.environ))
    env["PYTHONPATH"] = str(SRC)
    return env


def python_cmd(script: Path, *args: str) -> list[str]:
    return [sys.executable, str(script), *[str(a) for a in args]]


def run_child(script: Path, *args: str, timeout: float = 170.0) -> None:
    """Run a measured child to completion; its stdout goes to our stderr."""
    proc = subprocess.run(
        python_cmd(script, *args),
        env=child_env(),
        stdout=sys.stderr,
        timeout=timeout,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{script.name} exited with {proc.returncode}")


def run_measured(script: Path, cfg: dict, workdir: Path) -> tuple:
    """Run a workload's measured child ``script`` on ``cfg``; returns
    ``(correct, attempted, failed, values)`` from the result the child
    writes to ``cfg["out"]``.

    An untraced run starts :data:`SETUP_REPS` fresh children one after
    another: all but the last stop at their first timed op
    (``--setup-only``), the last also runs the ops.  Each child records
    ``ready``, the ``time.monotonic()`` of its first timed op (Linux's
    CLOCK_MONOTONIC, one clock for every process).  ``setup_s`` is the
    median over the children of spawn to ``ready``, so every sample pays
    the interpreter start, the imports and every first call.  A traced
    run starts one child and reports no ``setup_s``.
    """
    config = workdir / "config.json"
    write_json(config, cfg)
    reps = 1 if cfg["trace"] else SETUP_REPS
    setup = []
    for rep in range(reps):
        flags = ["--setup-only"] if rep < reps - 1 else []
        spawned = time.monotonic()
        run_child(script, config, *flags)
        res = read_json(cfg["out"])
        setup.append(res["ready"] - spawned)
    values = res["values"]
    if not cfg["trace"]:
        values["setup_s"] = statistics.median(setup)
    return res["correct"], res["attempted"], res["failed"], values


# -- statistics ----------------------------------------------------------------


def pct(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from ``/proc/<pid>/status``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def ref_loop_ms(reps: int = 5) -> float:
    """Median time of a fixed pure-Python loop: a host-speed probe."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def end_to_end(jobs_s, queries_s, rss_mb: float, attempted: int, failed: int,
               wall_s: float | None = None) -> dict:
    """The end-to-end values of an untraced run, as measured, but for
    ``setup_s``, which the caller takes over several set-ups.

    ``jobs_s``/``queries_s`` are the latencies (seconds) of the timed ops.
    Without ``wall_s`` the ops ran back to back on one thread and every op
    is a job or a query, so the timed seconds are their sum.
    """
    busy = sum(jobs_s) + sum(queries_s) if wall_s is None else wall_s
    done = attempted - failed
    return {
        "job_p50_ms": pct(jobs_s, 50) * 1e3,
        "job_p90_ms": pct(jobs_s, 90) * 1e3,
        "query_p50_ms": pct(queries_s, 50) * 1e3,
        "query_p90_ms": pct(queries_s, 90) * 1e3,
        "ops_per_s": done / busy,
        "ok_frac": done / attempted,
        "peak_rss_mb": rss_mb,
    }


def environment_record() -> dict:
    """Versions and settings that shape the numbers, for every run."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {
            k: os.environ.get(k, "")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "host.ref_loop_ms": ref_loop_ms(),
    }


# -- the result ------------------------------------------------------------------


def result_line(
    correct: bool, attempted: int, failed: int, values: dict, units: dict
) -> str:
    """The final stdout line: every metric in ``units`` with its value."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    })


def write_json(path: Path, doc) -> None:
    Path(path).write_text(json.dumps(doc))


def read_json(path: Path):
    return json.loads(Path(path).read_text())
