"""Golden digests of the canonical dataset's report and shared analyses.

``build_report == build_report_direct`` cannot catch a change to the
course matrix or the agreement counts, because both report engines call
the same code for them.  These sha256 digests pin those outputs byte for
byte: the rendered report, the dataset section, the corpus and
flavor-family matrices, and each agreement family's counts.

An intended output change regenerates the file in the same diff::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from repro.analysis import agreement, build_course_matrix
from repro.analysis.matrix import CourseMatrix
from repro.canonical import load_canonical_dataset
from repro.report import (
    AGREEMENT_LABELS,
    FLAVOR_FAMILIES,
    _dataset_section,
    build_report,
)

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "report.json"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_sha(obj) -> str:
    return _sha(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode())


def _matrix_digests(m: CourseMatrix) -> dict[str, str]:
    return {
        "matrix": _sha(m.matrix.tobytes()),
        "tag_ids": _json_sha(m.tag_ids),
        "course_ids": _json_sha(m.course_ids),
    }


def golden_digests() -> dict[str, object]:
    """The digests the golden file pins, computed from the current code."""
    tree, courses, _ = load_canonical_dataset()
    courses = list(courses)
    out: dict[str, object] = {
        "report": _sha(build_report(courses, tree, use_cache=False).encode()),
        "section:dataset": _sha(_dataset_section(courses).encode()),
        "matrix:corpus": _matrix_digests(build_course_matrix(courses, tree=tree)),
    }
    for slug, _, labels in FLAVOR_FAMILIES:
        family = [c for c in courses if labels & c.labels]
        out[f"matrix:{slug}"] = _matrix_digests(
            build_course_matrix(family, tree=tree)
        )
    for label in AGREEMENT_LABELS:
        res = agreement([c for c in courses if label in c.labels], tree=tree)
        out[f"agreement:{label.value}"] = _json_sha({
            "counts": sorted(res.counts.items()),
            "at_least": sorted(res.at_least.items()),
        })
    return out


def test_canonical_outputs_match_golden():
    assert golden_digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
