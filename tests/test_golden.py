"""Golden values of the canonical dataset's report, analyses and service.

``build_report == build_report_direct`` cannot catch a change to the
course matrix or the agreement counts, because both report engines call
the same code for them.  ``golden/report.json`` pins those outputs byte
for byte: the rendered report, the dataset section, the corpus and
flavor-family matrices, and each agreement family's counts.

``golden/service.json`` pins every JSON document a two-shard
:class:`~repro.service.ReproService` returns over HTTP for a fixed
request set.  ``/healthz`` and ``/metrics`` are left out: they carry
uptime, pids and counters.

``golden/analysis.json`` pins the typing, flavor, anchor, k-sweep and
consensus values from direct calls, outside the service.  Arrays are
hashed here (dtype, shape, bytes), not by a ``repro`` digest helper, so
a change to that helper cannot hide a change to the values.

The NMF fits' floats move in their last bits with the BLAS kernel
(AVX-512, AVX2, SSE…), so the service and analysis files hold tiers:

* ``exact``: everything a kernel cannot change, checked on every host.
  That is each value with its floats and ranked lists cut out: ids,
  labels, integer counts, shapes, strings.  Anchors and consensus do
  not depend on BLAS and enter whole.
* ``floats``: the float values themselves, grouped by field and compared
  with ``rtol=1e-12`` and ``atol=1e-12·max|x|`` over the field.
* ``ranked``: each ``[name, value]`` list (top tags, memberships).  Its
  values compare in order as above; within each run of values equal
  within that tolerance the names compare as a set, since a kernel may
  break a tie the other way.
* ``bits``: sha256 digests of the raw values, checked only when the
  file's ``blas_fingerprint`` matches this host's, so the kernel that
  wrote the file keeps bit-identity.

``report.json`` holds only an ``exact`` tier: no report value depends on
the kernel.

An intended output change regenerates the files in the same diff::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

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

#: Relative tolerance of the float tier; the absolute one is ``RTOL``
#: times the largest magnitude in the field.
RTOL = 1e-12

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


def blas_fingerprint() -> str:
    """sha256 of two fixed matmuls; it differs between BLAS kernels."""
    rng = np.random.default_rng(0)
    a, b = rng.random((3, 4, 100)), rng.random((100, 710))
    c, d = rng.random((20, 496)), rng.random((496, 3))
    return _sha((a @ b).tobytes() + (c @ d).tobytes())


def _is_ranked(value: list) -> bool:
    return bool(value) and all(
        isinstance(v, list) and len(v) == 2
        and isinstance(v[0], str) and isinstance(v[1], float)
        for v in value
    )


def _split(value, path: str, floats: dict, ranked: list):
    """``value`` with its floats and ranked lists moved out to the tiers."""
    if isinstance(value, float):
        floats.setdefault(path, []).append(value)
        return "<float>"
    if isinstance(value, dict):
        return {
            k: _split(value[k], f"{path}/{k}", floats, ranked)
            for k in sorted(value)
        }
    if isinstance(value, list):
        if _is_ranked(value):
            ranked.append(value)
            return "<ranked>"
        return [_split(v, f"{path}[]", floats, ranked) for v in value]
    return value


def portable_tiers(values: dict[str, object]) -> dict[str, dict]:
    """The ``exact``, ``floats`` and ``ranked`` tiers of JSON-like values.

    A value given as a digest string stays whole in the exact tier.
    """
    tiers: dict[str, dict] = {"exact": {}, "floats": {}, "ranked": {}}
    for name, value in values.items():
        floats: dict[str, list[float]] = {}
        ranked: list[list] = []
        skeleton = _split(json.loads(json.dumps(value)), "", floats, ranked)
        tiers["exact"][name] = (
            skeleton if isinstance(skeleton, str) else _json_sha(skeleton)
        )
        if floats:
            tiers["floats"][name] = floats
        if ranked:
            tiers["ranked"][name] = ranked
    return tiers


def _assert_close(got, want, where: str) -> None:
    want = np.asarray(want, dtype=float)
    np.testing.assert_allclose(
        np.asarray(got, dtype=float), want, rtol=RTOL,
        atol=RTOL * float(np.abs(want).max(initial=0.0)), err_msg=where,
    )


def assert_floats_close(got: dict, want: dict) -> None:
    """The float tier: each field within ``rtol`` and ``atol``."""
    assert got.keys() == want.keys()
    for name, fields in want.items():
        assert got[name].keys() == fields.keys(), name
        for path, values in fields.items():
            _assert_close(got[name][path], values, f"{name} {path}")


def assert_ranked_close(got: dict, want: dict) -> None:
    """The ranked tier: values in order, names as a set per tie run."""
    assert got.keys() == want.keys()
    for name, lists in want.items():
        assert len(got[name]) == len(lists), name
        for i, (g, w) in enumerate(zip(got[name], lists)):
            where = f"{name} ranked[{i}]"
            assert len(g) == len(w), where
            _assert_close([v for _, v in g], [v for _, v in w], where)
            values = np.array([v for _, v in w])
            ties = np.isclose(
                values[1:], values[:-1], rtol=RTOL,
                atol=RTOL * np.abs(values).max(),
            )
            cuts = [0, *(j + 1 for j in np.flatnonzero(~ties)), len(w)]
            for lo, hi in zip(cuts, cuts[1:]):
                assert {n for n, _ in g[lo:hi]} == {n for n, _ in w[lo:hi]}, (
                    where, lo, hi,
                )


def assert_matches_golden(path: pathlib.Path, bits: dict, values: dict) -> None:
    """Check every tier of a golden file; ``bits`` only on its BLAS kernel."""
    golden = json.loads(path.read_text())
    tiers = portable_tiers(values)
    assert tiers["exact"] == golden["exact"]
    assert_floats_close(tiers["floats"], golden["floats"])
    assert_ranked_close(tiers["ranked"], golden["ranked"])
    if golden["blas_fingerprint"] == blas_fingerprint():
        assert bits == golden["bits"]


def _matrix_digests(m: CourseMatrix) -> dict[str, str]:
    return {
        "matrix": _sha(m.matrix.tobytes()),
        "tag_ids": _json_sha(m.tag_ids),
        "course_ids": _json_sha(m.course_ids),
    }


def golden_digests() -> dict[str, object]:
    """The digests ``report.json`` pins, computed from the current code."""
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


def _typing_values(t: CourseTyping) -> dict[str, object]:
    return {
        "w": t.w.tolist(),
        "h": t.h.tolist(),
        "err": float(t.reconstruction_err),
        "labels": np.argmax(t.w, axis=1).tolist(),
        "course_ids": list(t.matrix.course_ids),
    }


def analysis_values() -> tuple[dict[str, object], dict[str, object]]:
    """``(bits, values)`` of typing, flavor, anchor, k-sweep and consensus."""
    tree, courses, matrix = load_canonical_dataset()
    cs1 = matrix.subset(
        [c.id for c in courses if c.has_label(CourseLabel.CS1)]
    )
    bits: dict[str, object] = {}
    values: dict[str, object] = {}
    for name, t in (
        ("typing:corpus", type_courses(matrix, 4, seed=3, n_restarts=2)),
        ("typing:CS1", type_courses(cs1, 3, seed=5, n_restarts=3)),
    ):
        bits[name] = _typing_digests(t)
        values[name] = _typing_values(t)
    for slug, _, labels in FLAVOR_FAMILIES:
        fa = analyze_flavors(
            matrix.subset([c.id for c in courses if labels & c.labels]),
            tree, 3, seed=7, n_restarts=2,
        )
        bits[f"flavors:{slug}"] = {
            **_typing_digests(fa.typing),
            "profiles": _json_sha([
                [p.index, p.area_mass, p.top_tags, p.member_courses]
                for p in fa.profiles
            ]),
        }
        values[f"flavors:{slug}"] = {
            **_typing_values(fa.typing),
            "profiles": [
                {
                    "index": p.index,
                    "area_mass": p.area_mass,
                    "top_tags": p.top_tags,
                    "member_courses": p.member_courses,
                }
                for p in fa.profiles
            ],
        }
    mixtures = {e.id: e.mixture for e in ROSTER}
    by_id = {c.id: c for c in courses}
    for cid in ("tulane-1100-kurdia", "uncc-2214-krs"):
        recs = recommend_for_course(by_id[cid], flavors=mixtures[cid])
        bits[f"anchors:{cid}"] = values[f"anchors:{cid}"] = _json_sha([
            [r.module.id, r.score, r.anchor_coverage, r.covered_anchors,
             r.missing_anchors, r.flavor_match]
            for r in recs.recommendations
        ])
    sweep = k_sweep(cs1, [2, 3, 4], seed=11, stability_runs=2)
    bits["k_sweep:CS1"] = _json_sha([
        [e.k, e.reconstruction_err, e.duplicate_score, e.singleton_score,
         e.stability]
        for e in sweep
    ])
    values["k_sweep:CS1"] = [
        {
            "k": e.k,
            "reconstruction_err": e.reconstruction_err,
            "duplicate_score": e.duplicate_score,
            "singleton_score": e.singleton_score,
            "stability": e.stability,
        }
        for e in sweep
    ]
    bits["consensus:CS1"] = values["consensus:CS1"] = _array_sha(
        consensus_matrix(cs1.matrix, 3, n_runs=4, seed=13)
    )
    return bits, values


def service_values() -> tuple[dict[str, str], dict[str, object]]:
    """``(bits, documents)`` a two-shard service serves over HTTP."""
    tree, courses, _ = load_canonical_dataset()
    state = ServiceState(tree, courses, config=ServiceConfig(n_shards=2))
    bits: dict[str, str] = {}
    docs: dict[str, object] = {}
    with ReproService(state) as svc, ServiceClient(*svc.address) as client:
        for name, (path, body) in SERVICE_REQUESTS.items():
            if body is None:
                status, doc = client.get(path)
            else:
                status, doc = client.post(path, body)
            assert status == 200, (name, doc)
            bits[name] = _json_sha(doc)
            docs[name] = doc
    return bits, docs


def test_canonical_outputs_match_golden():
    assert golden_digests() == json.loads(GOLDEN.read_text())["exact"]


def test_service_documents_match_golden():
    assert_matches_golden(SERVICE_GOLDEN, *service_values())


def test_analyses_match_golden():
    assert_matches_golden(ANALYSIS_GOLDEN, *analysis_values())


def test_float_tier_rejects_a_small_relative_change():
    """1e-9 relative on one W entry fails; 1e-13 passes (kernel noise)."""
    golden = json.loads(ANALYSIS_GOLDEN.read_text())
    w = golden["floats"]["typing:corpus"]["/w[][]"]
    i = int(np.argmax(w))
    for scale, ok in ((1e-13, True), (1e-9, False)):
        moved = json.loads(json.dumps(golden["floats"]))
        moved["typing:corpus"]["/w[][]"][i] *= 1 + scale
        if ok:
            assert_floats_close(moved, golden["floats"])
        else:
            with pytest.raises(AssertionError):
                assert_floats_close(moved, golden["floats"])


def test_ranked_tier_accepts_a_tie_broken_the_other_way():
    want = {"x": [[["a", 2.0], ["b", 1.0 + 1e-15], ["c", 1.0], ["d", 0.5]]]}
    assert_ranked_close(
        {"x": [[["a", 2.0], ["c", 1.0], ["b", 1.0], ["d", 0.5]]]}, want,
    )
    with pytest.raises(AssertionError):
        assert_ranked_close(
            {"x": [[["b", 2.0], ["a", 1.0], ["c", 1.0], ["d", 0.5]]]}, want,
        )


def _openblas_on_x86() -> bool:
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(
    not _openblas_on_x86(), reason="needs numpy on OpenBLAS on x86-64",
)
def test_golden_files_hold_on_another_blas_kernel():
    """Rerun the three golden checks on OpenBLAS's oldest x86-64 kernel."""
    checks = [
        f"{__file__}::{t.__name__}"
        for t in (
            test_canonical_outputs_match_golden,
            test_service_documents_match_golden,
            test_analyses_match_golden,
        )
    ]
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {
        **os.environ,
        "OPENBLAS_CORETYPE": "Prescott",
        "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ),
    }
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *checks],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout + run.stderr


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    fingerprint = blas_fingerprint()
    files = [(GOLDEN, {"exact": golden_digests()})]
    for path, (bits, values) in (
        (SERVICE_GOLDEN, service_values()),
        (ANALYSIS_GOLDEN, analysis_values()),
    ):
        files.append((path, {"bits": bits, **portable_tiers(values)}))
    for path, doc in files:
        doc["blas_fingerprint"] = fingerprint
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
