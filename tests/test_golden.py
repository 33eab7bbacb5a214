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

``golden/analysis.json`` pins the typing, flavor, anchor, k-sweep and
consensus values from direct calls, outside the service.  Arrays are
hashed here (dtype, shape, bytes), not by a ``repro`` digest helper, so
a change to that helper cannot hide a change to the values.

An intended output change regenerates the files in the same diff::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

from repro.analysis import (
    agreement,
    analyze_flavors,
    build_course_matrix,
    k_sweep,
    type_courses,
)
from repro.analysis.matrix import CourseMatrix
from repro.analysis.typing import CourseTyping
from repro.anchors import recommend_for_course
from repro.canonical import load_canonical_dataset
from repro.corpus.roster import ROSTER
from repro.factorization.consensus import consensus_matrix
from repro.materials.course import CourseLabel
from repro.report import (
    AGREEMENT_LABELS,
    FLAVOR_FAMILIES,
    _dataset_section,
    build_report,
)
from repro.service import ReproService, ServiceClient, ServiceConfig, ServiceState

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "report.json"
SERVICE_GOLDEN = GOLDEN.with_name("service.json")
ANALYSIS_GOLDEN = GOLDEN.with_name("analysis.json")

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


def _array_sha(a) -> str:
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}:{a.shape}:".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def _typing_digests(t: CourseTyping) -> dict[str, str]:
    return {
        "w": _array_sha(t.w),
        "h": _array_sha(t.h),
        "err": _array_sha(np.float64(t.reconstruction_err)),
        "labels": _array_sha(np.argmax(t.w, axis=1)),
        "course_ids": _json_sha(t.matrix.course_ids),
    }


def analysis_digests() -> dict[str, object]:
    """Digests of typing, flavor, anchor, k-sweep and consensus values."""
    tree, courses, matrix = load_canonical_dataset()
    cs1 = matrix.subset(
        [c.id for c in courses if c.has_label(CourseLabel.CS1)]
    )
    out: dict[str, object] = {
        "typing:corpus": _typing_digests(
            type_courses(matrix, 4, seed=3, n_restarts=2)
        ),
        "typing:CS1": _typing_digests(
            type_courses(cs1, 3, seed=5, n_restarts=3)
        ),
    }
    for slug, _, labels in FLAVOR_FAMILIES:
        fa = analyze_flavors(
            matrix.subset([c.id for c in courses if labels & c.labels]),
            tree, 3, seed=7, n_restarts=2,
        )
        out[f"flavors:{slug}"] = {
            **_typing_digests(fa.typing),
            "profiles": _json_sha([
                [p.index, p.area_mass, p.top_tags, p.member_courses]
                for p in fa.profiles
            ]),
        }
    mixtures = {e.id: e.mixture for e in ROSTER}
    by_id = {c.id: c for c in courses}
    for cid in ("tulane-1100-kurdia", "uncc-2214-krs"):
        recs = recommend_for_course(by_id[cid], flavors=mixtures[cid])
        out[f"anchors:{cid}"] = _json_sha([
            [r.module.id, r.score, r.anchor_coverage, r.covered_anchors,
             r.missing_anchors, r.flavor_match]
            for r in recs.recommendations
        ])
    out["k_sweep:CS1"] = _json_sha([
        [e.k, e.reconstruction_err, e.duplicate_score, e.singleton_score,
         e.stability]
        for e in k_sweep(cs1, [2, 3, 4], seed=11, stability_runs=2)
    ])
    out["consensus:CS1"] = _array_sha(
        consensus_matrix(cs1.matrix, 3, n_runs=4, seed=13)
    )
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


def test_analyses_match_golden():
    assert analysis_digests() == json.loads(ANALYSIS_GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    for path, digests in (
        (GOLDEN, golden_digests()),
        (SERVICE_GOLDEN, service_digests()),
        (ANALYSIS_GOLDEN, analysis_digests()),
    ):
        path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
