"""repro.quality — static analysis enforcing the library's own contracts.

:mod:`repro.materials.lint` screens the *corpus* the way the paper's
Figure 1 gate screened courses; this package applies the same
discipline to the *code*.  The runtime's guarantees — bit-identical
results for a fixed seed, a content-addressed cache that never
aliases, a groupable metrics report, a threaded service that cannot
race or deadlock — are invariants that one unseeded ``np.random`` call,
one forgotten cache-key field, or one unguarded write silently
destroys.  The rule engine (:mod:`~repro.quality.engine`) walks the AST
of a file set and enforces them:

========  ========================================================
code      rule
========  ========================================================
RPR101    unseeded / global-state randomness in library code
RPR102    wall-clock reads in library code
RPR202    NMF fields missing from the cache-key parameter list
RPR301    metric names that are not dotted-lowercase literals
RPR401    curriculum-table invariants (ids, links, crosswalk)
RPR501    field written both under a held lock and without one
RPR502    ``lock.acquire()`` without ``with`` / try-finally release
RPR503    blocking call made while holding a lock
RPR504    lock-acquisition-order cycle across files (deadlock risk)
RPR000    (reserved) file the engine could not parse
========  ========================================================

Run it as ``repro lint-code [paths]`` or ``python -m repro.quality``;
``--baseline``/``--write-baseline`` manage a versioned set of
acknowledged findings, and ``--lock-graph-out`` exports the RPR504
lock-ordering graph as JSON.  Suppress a finding inline with
``# repro: noqa[RPRnnn]``.  The codebase gates itself:
``tests/test_quality.py`` asserts the engine finds nothing in
``src/repro``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Sequence

from repro.quality.engine import (
    PARSE_ERROR_CODE,
    AnalysisResult,
    FileContext,
    Finding,
    ImportMap,
    ProjectContext,
    Rule,
    RULES,
    Severity,
    analyze_paths,
    discover,
    rule,
)

# Importing the rule modules registers every rule with the engine.
from repro.quality import rules_determinism  # noqa: F401  (registration)
from repro.quality import rules_runtime  # noqa: F401  (registration)
from repro.quality import rules_data  # noqa: F401  (registration)
from repro.quality import rules_concurrency  # noqa: F401  (registration)
from repro.quality.baseline import (
    BASELINE_VERSION,
    apply_baseline,
    baseline_key,
    load_baseline,
    write_baseline,
)
from repro.quality.concurrency import build_lock_graph
from repro.quality.report import (
    FAIL_ON,
    Record,
    fails_threshold,
    record_from_finding,
    render_json,
    render_text,
)

__all__ = [
    "AnalysisResult",
    "BASELINE_VERSION",
    "FAIL_ON",
    "FileContext",
    "Finding",
    "ImportMap",
    "PARSE_ERROR_CODE",
    "ProjectContext",
    "RULES",
    "Record",
    "Rule",
    "Severity",
    "analyze_paths",
    "apply_baseline",
    "baseline_key",
    "build_lock_graph",
    "discover",
    "fails_threshold",
    "load_baseline",
    "main",
    "record_from_finding",
    "render_json",
    "render_text",
    "rule",
    "run_lint_code",
    "write_baseline",
]


def split_select(select: Sequence[str] | None) -> list[str] | None:
    """Normalize ``--select`` values: each may be one code or a comma list."""
    if select is None:
        return None
    codes: list[str] = []
    for raw in select:
        codes.extend(c.strip().upper() for c in str(raw).split(",") if c.strip())
    return codes


def run_lint_code(
    paths: Sequence[str],
    *,
    fmt: str = "text",
    fail_on: str = "error",
    select: Sequence[str] | None = None,
    baseline: str | None = None,
    write_baseline_to: str | None = None,
    lock_graph_out: str | None = None,
) -> tuple[str, int]:
    """Analyze ``paths`` and return ``(rendered report, exit status)``.

    Shared by ``repro lint-code`` and ``python -m repro.quality`` so the
    two entry points cannot drift.  ``baseline`` subtracts acknowledged
    findings before rendering and thresholding;
    ``write_baseline_to`` records the current findings and exits clean;
    ``lock_graph_out`` additionally dumps the RPR504 lock-ordering
    graph to a JSON file.
    """
    if fmt not in ("text", "json"):
        raise ValueError(f"fmt must be 'text' or 'json', got {fmt!r}")
    result = analyze_paths(paths, select=split_select(select))
    if lock_graph_out:
        doc = build_lock_graph(ProjectContext(result.contexts)).to_doc()
        Path(lock_graph_out).write_text(
            json.dumps(doc, indent=2) + "\n", encoding="utf-8"
        )
    if write_baseline_to:
        n = write_baseline(write_baseline_to, result.findings)
        return (
            f"wrote baseline {write_baseline_to}: {n} finding(s) "
            f"across {len(result.files)} file(s)",
            0,
        )
    findings = result.findings
    n_baselined = 0
    if baseline:
        findings, n_baselined = apply_baseline(findings, load_baseline(baseline))
    records = [record_from_finding(f) for f in findings]
    if fmt == "json":
        report = render_json(records, tool="repro.quality", n_files=len(result.files))
    else:
        report = render_text(records, n_files=len(result.files))
        if n_baselined:
            report += f"\n{n_baselined} finding(s) matched the baseline"
    status = 1 if fails_threshold(records, fail_on) else 0
    return report, status


def build_arg_parser(prog: str = "repro.quality") -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog=prog,
        description="AST-based static analysis of the repro codebase "
                    "(determinism, cache-key integrity, "
                    "curriculum-data invariants, concurrency correctness).",
    )
    p.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt",
        help="report format (default: text)",
    )
    p.add_argument(
        "--fail-on", choices=FAIL_ON, default="error",
        help="exit non-zero when findings at/above this severity exist "
             "(default: error)",
    )
    p.add_argument(
        "--select", action="append", metavar="RPRnnn[,RPRnnn...]", default=None,
        help="run only the named rule(s); repeatable, comma lists accepted",
    )
    p.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="subtract findings acknowledged in this baseline JSON file",
    )
    p.add_argument(
        "--write-baseline", metavar="FILE", default=None, dest="write_baseline",
        help="record every current finding into FILE and exit 0",
    )
    p.add_argument(
        "--lock-graph-out", metavar="FILE", default=None, dest="lock_graph_out",
        help="also export the RPR504 lock-ordering graph as JSON",
    )
    return p


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.quality`` entry point."""
    args = build_arg_parser().parse_args(argv)
    try:
        report, status = run_lint_code(
            args.paths,
            fmt=args.fmt,
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
