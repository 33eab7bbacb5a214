"""One-shot Markdown report covering the paper's full analysis narrative.

``build_report`` runs the complete pipeline on a corpus and renders a
self-contained Markdown document with the same section structure as the
paper's Section 4/5: dataset, course types, agreement, flavors, PDC
agreement, and anchor recommendations.  Used by the ``report`` CLI
subcommand and the capstone example.

Two engines produce byte-identical output:

* ``engine="dag"`` (default) — the report is assembled by the incremental
  analysis DAG (:mod:`repro.pipeline`): every stage is a content-addressed
  node memoized in the runtime cache, so re-running after a small corpus
  change recomputes only the affected nodes and a fully warm re-run is a
  pure cache replay.  Gains ``use_cache=``/``cache=`` plumbing.
* ``engine="direct"`` — the original straight-line calls, kept as the
  reference implementation the DAG path is tested bit-identical against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis import (
    agreement,
    analyze_flavors,
    build_course_matrix,
    type_courses,
)
from repro.analysis.flavors import FlavorAnalysis
from repro.analysis.program import analyze_program, pdc_gap
from repro.analysis.typing import CourseTyping
from repro.anchors import recommend_for_course
from repro.corpus.roster import ROSTER
from repro.materials.course import Course, CourseLabel
from repro.ontology.tree import GuidelineTree

#: Report engines: the incremental DAG and the straight-line reference.
REPORT_ENGINES = ("dag", "direct")

#: (slug, section title, course labels) of each flavor-analysis family.
FLAVOR_FAMILIES: tuple[tuple[str, str, frozenset[CourseLabel]], ...] = (
    ("cs1", "CS1 flavors", frozenset({CourseLabel.CS1})),
    (
        "ds",
        "Data Structures flavors",
        frozenset({CourseLabel.DS, CourseLabel.ALGO}),
    ),
)

#: Labels whose course families get an agreement subsection.
AGREEMENT_LABELS: tuple[CourseLabel, ...] = (
    CourseLabel.CS1,
    CourseLabel.DS,
    CourseLabel.PDC,
)


@dataclass(frozen=True)
class ReportConfig:
    """Seeds and sizes for the report's analyses."""

    typing_seed: int = 1
    flavors_seed: int = 1
    k_all: int = 4
    k_family: int = 3
    top_modules: int = 3
    n_restarts: int = 4


def _md_table(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    lines = ["| " + " | ".join(str(h) for h in header) + " |"]
    lines.append("|" + "|".join("---" for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def _dataset_section(courses: Sequence[Course]) -> str:
    rows = [
        (
            c.id,
            "/".join(sorted(l.value for l in c.labels)) or "-",
            len(c.tags),
            len(c.materials),
        )
        for c in courses
    ]
    return "## Dataset\n\n" + _md_table(
        ["course", "labels", "tags", "materials"], rows
    )


def render_types_section(
    typing: CourseTyping, courses: Sequence[Course], config: ReportConfig
) -> str:
    """Render the course-types section from a fitted typing."""
    label_rows = [
        (label.value, f"d{dim + 1}")
        for label, dim in typing.label_to_type(list(courses)).items()
    ]
    w_rows = [
        (cid, *(f"{v:.2f}" for v in typing.w_normalized[i]))
        for i, cid in enumerate(typing.matrix.course_ids)
    ]
    return (
        f"## Course types (NNMF, k={config.k_all})\n\n"
        + _md_table(["category", "dimension"], label_rows)
        + "\n\n"
        + _md_table(
            ["course", *(f"d{i + 1}" for i in range(config.k_all))], w_rows
        )
    )


def _types_section(matrix, courses, config: ReportConfig) -> str:
    typing = type_courses(
        matrix,
        config.k_all,
        seed=config.typing_seed,
        n_restarts=config.n_restarts,
    )
    return render_types_section(typing, courses, config)


def _agreement_section(courses, tree, label: CourseLabel) -> str:
    family = [c for c in courses if label in c.labels]
    if len(family) < 2:
        return ""
    res = agreement(family, tree=tree)
    rows = [
        (f">= {k}", res.at_least[k])
        for k in range(1, len(family) + 1)
    ]
    return (
        f"### {label.value} agreement ({len(family)} courses, "
        f"{res.n_tags} distinct tags)\n\n"
        + _md_table(["courses sharing a tag", "tags"], rows)
    )


def render_flavors_section(
    fa: FlavorAnalysis,
    course_ids: Sequence[str],
    title: str,
    config: ReportConfig,
) -> str:
    """Render a family's flavors section from a fitted analysis."""
    type_rows = [(f"T{p.index + 1}", p.describe().split(": ", 1)[1])
                 for p in fa.profiles]
    member_rows = [
        (cid, *(f"{v:.2f}" for v in fa.course_memberships(cid)))
        for cid in course_ids
    ]
    return (
        f"## {title} (k={config.k_family})\n\n"
        + _md_table(["type", "top knowledge areas"], type_rows)
        + "\n\n"
        + _md_table(
            ["course", *(f"T{i + 1}" for i in range(config.k_family))],
            member_rows,
        )
    )


def _flavors_section(matrix, courses, tree, label_set, title, config) -> str:
    ids = [c.id for c in courses if label_set & c.labels]
    if len(ids) <= config.k_family:
        return ""
    fa = analyze_flavors(
        matrix.subset(ids),
        tree,
        config.k_family,
        seed=config.flavors_seed,
        n_restarts=config.n_restarts,
    )
    return render_flavors_section(fa, ids, title, config)


def anchors_row(course: Course, mixture, top_modules: int) -> tuple[str, str]:
    """One course's row of the anchor-recommendation table."""
    recs = recommend_for_course(course, flavors=mixture)
    tops = "; ".join(
        f"{r.module.id} ({r.score:.2f})" for r in recs.top(top_modules)
    )
    return (course.id, tops or "-")


def render_anchors_section(rows: Sequence[tuple[str, str]]) -> str:
    """Assemble the anchors section from per-course rows."""
    return "## PDC anchor recommendations\n\n" + _md_table(
        ["course", "top modules"], rows
    )


def _anchors_section(courses, config: ReportConfig) -> str:
    mixtures = {e.id: e.mixture for e in ROSTER}
    rows = [
        anchors_row(c, mixtures.get(c.id, {}), config.top_modules)
        for c in courses
    ]
    return render_anchors_section(rows)


def _gap_section(courses, tree: GuidelineTree) -> str:
    prog = analyze_program(list(courses), tree)
    gap = pdc_gap(list(courses), tree)
    lines = [
        "## Program-level coverage",
        "",
        f"- core-1 coverage: {prog.core1_coverage:.1%}",
        f"- core-2 coverage: {prog.core2_coverage:.1%}",
        f"- meets CS2013 program core rules: {prog.meets_core_requirements()}",
        f"- PD-area core gap: {len(gap)} entries",
    ]
    for t in gap[:8]:
        lines.append(f"  - {tree[t].label}")
    return "\n".join(lines)


def render_report_header(
    n_courses: int, n_tags: int, tree: GuidelineTree, title: str
) -> list[str]:
    """Title and summary lines shared by both engines."""
    return [
        f"# {title}",
        f"\n{n_courses} courses, {n_tags} curriculum tags covered "
        f"(of {len(tree.tag_ids())} in {tree.root.label}).\n",
    ]


def build_report_direct(
    courses: Sequence[Course],
    tree: GuidelineTree,
    *,
    config: ReportConfig | None = None,
    title: str = "Course corpus analysis",
) -> str:
    """The original straight-line report path (reference implementation)."""
    if not courses:
        raise ValueError("cannot report on an empty corpus")
    if config is None:
        config = ReportConfig()
    matrix = build_course_matrix(list(courses), tree=tree)
    sections = [
        *render_report_header(len(courses), matrix.n_tags, tree, title),
        _dataset_section(courses),
        _types_section(matrix, courses, config),
        "## Agreement",
        *(
            _agreement_section(courses, tree, label)
            for label in AGREEMENT_LABELS
        ),
        *(
            _flavors_section(matrix, courses, tree, labels, ftitle, config)
            for _, ftitle, labels in FLAVOR_FAMILIES
        ),
        _anchors_section(courses, config),
        _gap_section(courses, tree),
    ]
    return "\n\n".join(s for s in sections if s) + "\n"


def build_report(
    courses: Sequence[Course],
    tree: GuidelineTree,
    *,
    config: ReportConfig | None = None,
    title: str = "Course corpus analysis",
    engine: str = "dag",
    use_cache: bool = True,
    cache=None,
) -> str:
    """Render the full Markdown report for ``courses``.

    ``engine="dag"`` drives the incremental pipeline DAG — memoized and
    byte-identical to ``engine="direct"`` (the legacy straight-line
    path).  ``use_cache`` and ``cache`` control node memoization (DAG
    engine only).
    """
    if engine not in REPORT_ENGINES:
        raise ValueError(
            f"engine must be one of {REPORT_ENGINES}, got {engine!r}"
        )
    if engine == "direct":
        return build_report_direct(courses, tree, config=config, title=title)
    from repro.pipeline import build_report_pipeline

    pipeline = build_report_pipeline(courses, tree, config=config, title=title)
    run = pipeline.run(use_cache=use_cache, cache=cache)
    return run.value("report")
