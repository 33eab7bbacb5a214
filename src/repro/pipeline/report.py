"""The paper pipeline as a content-addressed DAG.

:func:`build_report_pipeline` decomposes ``build_report``'s straight-line
narrative — corpus → course matrix → NMF typing → per-family agreement /
flavors → per-course anchors → report sections — into an explicit
:class:`repro.pipeline.core.Pipeline` whose nodes are keyed by exactly the
inputs they read:

* the **matrix** and **typing** stages key on the whole corpus (ordered
  course digests) plus the guideline-tree digest and the config fields
  they consume;
* each **agreement** / **family-matrix** / **flavors** node keys only on
  its *family's* course digests, so editing a PDC course never touches the
  memoized CS1 flavor factorization;
* each **anchors** node keys on one course digest (plus its roster
  mixture and the module-catalog digest), so a corpus of N courses gets
  N independent, individually replayable recommendation rows;
* section/render nodes key on their upstream *values* (early cutoff: a
  recomputed-but-identical matrix leaves every factorization cached, and
  the program-coverage section, which reads only the matrix's columns).

The assembled report is byte-identical to
:func:`repro.report.build_report_direct` — the section renderers are the
same functions, shared through :mod:`repro.report`.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache, partial
from typing import Any, Mapping, Sequence

from repro.analysis import analyze_flavors, build_course_matrix, type_courses
from repro.anchors.modules import MODULE_CATALOG
from repro.corpus.roster import ROSTER
from repro.materials.course import Course, CourseLabel
from repro.ontology.tree import GuidelineTree
from repro.pipeline.core import Pipeline, params_digest
from repro.report import (
    AGREEMENT_LABELS,
    FLAVOR_FAMILIES,
    ReportConfig,
    _agreement_section,
    _dataset_section,
    _gap_section,
    anchors_row,
    render_anchors_section,
    render_flavors_section,
    render_report_header,
    render_types_section,
)

# -- input digests -----------------------------------------------------------


@lru_cache(maxsize=4)
def _catalog_digest() -> str:
    """Digest of the PDC module catalog (anchors-node key ingredient)."""
    return params_digest([dataclasses.asdict(m) for m in MODULE_CATALOG()])


@lru_cache(maxsize=1)
def _roster_mixtures() -> dict[str, tuple[Mapping[str, float], str]]:
    """Course id → (roster flavor mixture, its digest), encoded once."""
    return {e.id: (e.mixture, params_digest(dict(e.mixture))) for e in ROSTER}


def _labels_digest(courses: Sequence[Course]) -> str:
    """Digest of the course-id → labels assignment (typing-section input)."""
    return params_digest(
        [(c.id, sorted(l.value for l in c.labels)) for c in courses]
    )


# -- node functions ----------------------------------------------------------
#
# Module-level (partial-bound) so cache-miss nodes can cross the process
# boundary; each receives the mapping of dependency values last.


def _node_matrix(courses, tree, dep_values: Mapping[str, Any]):
    del dep_values
    return build_course_matrix(list(courses), tree=tree)


def _node_typing(config: ReportConfig, dep_values: Mapping[str, Any]):
    return type_courses(
        dep_values["matrix"],
        config.k_all,
        seed=config.typing_seed,
        n_restarts=config.n_restarts,
    )


def _node_dataset(courses, dep_values: Mapping[str, Any]) -> str:
    del dep_values
    return _dataset_section(courses)


def _node_types_section(
    courses, config: ReportConfig, dep_values: Mapping[str, Any]
) -> str:
    return render_types_section(dep_values["typing"], courses, config)


def _node_agreement_section(
    courses, tree, label: CourseLabel, dep_values: Mapping[str, Any]
) -> str:
    del dep_values
    return _agreement_section(courses, tree, label)


def _node_family_matrix(family, tree, dep_values: Mapping[str, Any]):
    del dep_values
    return build_course_matrix(list(family), tree=tree)


def _node_flavors_section(
    tree,
    config: ReportConfig,
    title: str,
    dep_name: str,
    dep_values: Mapping[str, Any],
) -> str:
    matrix = dep_values[dep_name]
    fa = analyze_flavors(
        matrix,
        tree,
        config.k_family,
        seed=config.flavors_seed,
        n_restarts=config.n_restarts,
    )
    return render_flavors_section(fa, matrix.course_ids, title, config)


def _node_anchors_row(
    course, mixture, top_modules: int, dep_values: Mapping[str, Any]
) -> tuple[str, str]:
    del dep_values
    return anchors_row(course, mixture, top_modules)


def _node_anchors_section(
    row_nodes: Sequence[str], dep_values: Mapping[str, Any]
) -> str:
    return render_anchors_section([dep_values[n] for n in row_nodes])


def _node_gap_section(courses, tree, dep_values: Mapping[str, Any]) -> str:
    # Keyed on the matrix: the section reads only the union of the
    # courses' in-tree tags, which is exactly ``matrix.tag_ids``.
    del dep_values
    return _gap_section(courses, tree)


def _node_report(
    n_courses: int,
    tree,
    title: str,
    layout: Sequence[tuple[str, str]],
    dep_values: Mapping[str, Any],
) -> str:
    matrix = dep_values["matrix"]
    sections = render_report_header(n_courses, matrix.n_tags, tree, title)
    for kind, val in layout:
        sections.append(dep_values[val] if kind == "node" else val)
    return "\n\n".join(s for s in sections if s) + "\n"


# -- graph construction ------------------------------------------------------


def build_report_pipeline(
    courses: Sequence[Course],
    tree: GuidelineTree,
    *,
    config: ReportConfig | None = None,
    title: str = "Course corpus analysis",
) -> Pipeline:
    """Assemble the report DAG for ``courses``.

    Node weights are coarse cost estimates (factorizations dominate), so
    ``Pipeline.to_taskgraph()`` yields a meaningful work/span profile.
    """
    if not courses:
        raise ValueError("cannot report on an empty corpus")
    if config is None:
        config = ReportConfig()
    courses = list(courses)
    cdigs = {c.id: c.digest for c in courses}
    corpus = params_digest([cdigs[c.id] for c in courses])
    tdig = tree.digest

    p = Pipeline()
    p.add(
        "matrix",
        partial(_node_matrix, courses, tree),
        params={"corpus": corpus, "tree": tdig},
        weight=max(len(courses) / 10.0, 1.0),
    )
    p.add(
        "typing",
        partial(_node_typing, config),
        deps=("matrix",),
        params={
            "k": config.k_all,
            "seed": config.typing_seed,
            "restarts": config.n_restarts,
        },
        weight=10.0 * config.n_restarts,
    )
    p.add(
        "section:dataset",
        partial(_node_dataset, courses),
        params={"corpus": corpus},
    )
    p.add(
        "section:types",
        partial(_node_types_section, courses, config),
        deps=("typing",),
        params={"labels": _labels_digest(courses), "k": config.k_all},
    )

    layout: list[tuple[str, str]] = [
        ("node", "section:dataset"),
        ("node", "section:types"),
        ("text", "## Agreement"),
    ]
    for label in AGREEMENT_LABELS:
        family = [c for c in courses if label in c.labels]
        name = f"section:agreement:{label.value}"
        p.add(
            name,
            partial(_node_agreement_section, family, tree, label),
            params={
                "family": params_digest([cdigs[c.id] for c in family]),
                "tree": tdig,
            },
        )
        layout.append(("node", name))

    for slug, ftitle, labels in FLAVOR_FAMILIES:
        family = [c for c in courses if labels & c.labels]
        if len(family) <= config.k_family:
            # The direct path renders nothing for an undersized family;
            # absence from the graph (and from ``layout``, which enters
            # the report node's key) encodes the same decision.
            continue
        fam_dig = params_digest([cdigs[c.id] for c in family])
        matrix_name = p.add(
            f"family-matrix:{slug}",
            partial(_node_family_matrix, family, tree),
            params={"family": fam_dig, "tree": tdig},
        )
        name = p.add(
            f"section:flavors:{slug}",
            partial(_node_flavors_section, tree, config, ftitle, matrix_name),
            deps=(matrix_name,),
            params={
                "k": config.k_family,
                "seed": config.flavors_seed,
                "restarts": config.n_restarts,
                "title": ftitle,
            },
            weight=10.0 * config.n_restarts,
        )
        layout.append(("node", name))

    mixtures = _roster_mixtures()
    no_mixture = ({}, params_digest({}))
    catalog = _catalog_digest()
    row_nodes: list[str] = []
    for c in courses:
        mixture, mixture_digest = mixtures.get(c.id, no_mixture)
        row_nodes.append(
            p.add(
                f"anchors:{c.id}",
                partial(_node_anchors_row, c, mixture, config.top_modules),
                params={
                    "course": cdigs[c.id],
                    "mixture": mixture_digest,
                    "catalog": catalog,
                    "top": config.top_modules,
                },
            )
        )
    p.add(
        "section:anchors",
        partial(_node_anchors_section, tuple(row_nodes)),
        deps=tuple(row_nodes),
        params={"order": params_digest([c.id for c in courses])},
    )
    layout.append(("node", "section:anchors"))

    p.add(
        "section:gap",
        partial(_node_gap_section, courses, tree),
        deps=("matrix",),
        params={"tree": tdig},
    )
    layout.append(("node", "section:gap"))

    p.add(
        "report",
        partial(_node_report, len(courses), tree, title, tuple(layout)),
        deps=("matrix",)
        + tuple(name for kind, name in layout if kind == "node"),
        params={
            "title": title,
            "n_courses": len(courses),
            "tree": tdig,
            "layout": params_digest(layout),
        },
    )
    return p
