"""End-to-end benchmark entry point.

    python3 e2ebench/run.py --workload {report,scale-ingest,serve-mixed}
        --seed N --seconds S --trace {0,1}

Runs one workload from the root of a source checkout (it imports the
program from ``src/``), checks the program's outputs, and prints one JSON
object as its last stdout line: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The line before it records the
environment.  Exit code 0 means every check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import common

WORKLOADS = ("report", "scale-ingest", "serve-mixed")


@dataclass
class Context:
    seed: int
    seconds: int
    trace: bool
    workdir: Path


def _workload(name: str):
    if name == "report":
        import report_wl as mod
    elif name == "scale-ingest":
        import scale_wl as mod
    else:
        import serve_wl as mod
    return mod


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {common.SRC}", file=sys.stderr)
        return 2

    common.pin_environment()
    sys.path.insert(0, str(common.SRC))
    work_root = common.ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        env = common.environment_record()
        ctx = Context(args.seed, args.seconds, bool(args.trace), workdir)
        correct, attempted, failed, values = _workload(args.workload).drive(ctx)
        if args.trace:
            values["host.ref_loop_ms"] = env["host.ref_loop_ms"]
        units = common.PER_LAYER if args.trace else common.END_TO_END
        print(json.dumps({"env": env, "workload": args.workload}))
        print(common.result_line(correct, attempted, failed, values, units))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
