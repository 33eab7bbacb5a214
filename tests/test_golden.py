"""Golden digests of the canonical dataset's report, analyses and service.

``build_report == build_report_direct`` cannot catch a change to the
course matrix or the agreement counts, because both report engines call
the same code for them.  These sha256 digests pin those outputs byte for
byte: the rendered report, the dataset section, the corpus and
flavor-family matrices, and each agreement family's counts.

``golden/service.json`` pins every JSON document a two-shard
:class:`~repro.service.ReproService` returns over HTTP for a fixed
request set.  ``/healthz``, ``/metrics`` and ``/chaos`` are left out:
they carry uptime, pids and counters.

An intended output change regenerates both files in the same diff::

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
from repro.service import ReproService, ServiceClient, ServiceConfig, ServiceState

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "report.json"
SERVICE_GOLDEN = GOLDEN.with_name("service.json")

_SETS = "CS2013/SDF/FDS/t-sets-and-maps"
_EXPRESSIONS = "CS2013/SDF/FPC/t-expressions-and-assignments"
_NMF = {"seed": 3, "n_restarts": 2}

#: The pinned request set: ``name -> (path, POST body or None for GET)``.
SERVICE_REQUESTS: dict[str, tuple[str, dict | None]] = {
    "search:single": ("/search", {"query": {"tags": [_SETS, _EXPRESSIONS]}}),
    "search:multi": (
        "/search", {"queries": [{"tags": [_SETS]}, {"text": "exam"}]},
    ),
    "search:filtered": ("/search", {
        "query": {
            "tags": [_SETS, _EXPRESSIONS],
            "type": "assignment",
            "min_mastery": "usage",
        },
        "limit": 3,
    }),
    "similar:lecture": ("/similar", {"material_id": "uncc-2214-krs/lecture-01"}),
    "similar:exam": (
        "/similar", {"material_id": "bsc-210-wagner/exam-1", "limit": 4},
    ),
    "coverage:uncc-2214-krs": ("/coverage", {"course_id": "uncc-2214-krs"}),
    "coverage:tulane-1100-kurdia": (
        "/coverage", {"course_id": "tulane-1100-kurdia"},
    ),
    "typing:corpus": ("/typing", {"k": 4, **_NMF}),
    "typing:CS1": ("/typing", {"k": 3, "label": "CS1", **_NMF}),
    "flavors:CS1": ("/flavors", {"k": 3, "label": "CS1", **_NMF}),
    "flavors:DS": ("/flavors", {"k": 3, "label": "DS", **_NMF}),
    "anchors:discovery": (
        "/anchors", {"course_id": "tulane-1100-kurdia", **_NMF},
    ),
    "anchors:explicit": ("/anchors", {
        "course_id": "ccc-40-kerney", "flavors": ["cs1-algorithmic"], "top": 4,
    }),
    "corpus": ("/corpus", None),
}


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


def service_digests() -> dict[str, str]:
    """Digests of the documents a two-shard service serves over HTTP."""
    tree, courses, _ = load_canonical_dataset()
    state = ServiceState(tree, courses, config=ServiceConfig(n_shards=2))
    out: dict[str, str] = {}
    with ReproService(state) as svc, ServiceClient(*svc.address) as client:
        for name, (path, body) in SERVICE_REQUESTS.items():
            if body is None:
                status, doc = client.get(path)
            else:
                status, doc = client.post(path, body)
            assert status == 200, (name, doc)
            out[name] = _json_sha(doc)
    return out


def test_canonical_outputs_match_golden():
    assert golden_digests() == json.loads(GOLDEN.read_text())


def test_service_documents_match_golden():
    assert service_digests() == json.loads(SERVICE_GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    for path, digests in (
        (GOLDEN, golden_digests()), (SERVICE_GOLDEN, service_digests()),
    ):
        path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
