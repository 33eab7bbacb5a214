"""Tests for the incremental analysis DAG (:mod:`repro.pipeline`).

Covers the engine (content keys, registration-order execution,
taskgraph export), the report DAG's bit-identity with the straight-line
path, invalidation granularity under corpus edits (add / remove /
tag-preserving update / newly covered tag), early cutoff, and the input
digests the keys rest on.
"""

import dataclasses
import enum
import os
import pathlib
import pickle
import subprocess
import sys
import threading
from typing import Mapping

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.runtime as runtime
from repro.analysis import build_course_matrix
from repro.analysis.program import analyze_program, pdc_gap
from repro.corpus.roster import ROSTER
from repro.curriculum import load_pdc12
from repro.io.json_io import material_from_dict, material_to_dict
from repro.materials.course import Course, CourseLabel
from repro.materials.material import Material, MaterialType
from repro.ontology.serialize import tree_to_dict
from repro.pipeline import (
    Pipeline,
    build_report_pipeline,
    params_digest,
    value_digest,
)
from repro.report import FLAVOR_FAMILIES, ReportConfig, build_report, build_report_direct
from repro.runtime.cache import ResultCache
from repro.runtime.faults import set_fault_plan
from repro.runtime.metrics import metrics
from tests.oracles import oracle_course_digest, oracle_tag_set


@pytest.fixture(autouse=True)
def _isolated_runtime(monkeypatch):
    """Fresh metrics/cache and a disarmed fault plan per test."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    runtime.reset()
    set_fault_plan(None)
    yield
    runtime.reset()
    set_fault_plan(None)


# -- node functions ----------------------------------------------------------


def _const(value, dep_values):
    del dep_values
    return value


def _add(dep_values):
    return sum(dep_values.values())


def _double(dep_values):
    (v,) = dep_values.values()
    return 2 * v


def _divide_by_zero(dep_values):
    (v,) = dep_values.values()
    return v / 0


# -- engine ------------------------------------------------------------------


class TestPipelineEngine:
    def _diamond(self, a=1):
        from functools import partial

        p = Pipeline()
        p.add("a", partial(_const, a), params={"a": a})
        p.add("b", _double, deps=("a",))
        p.add("c", _double, deps=("a",))
        p.add("d", _add, deps=("b", "c"))
        return p

    def test_run_values(self):
        run = self._diamond().run(use_cache=False)
        assert run.value("d") == 4
        assert run.n_computed == 4 and run.n_hits == 0

    def test_runs_in_registration_order(self):
        from functools import partial

        p = Pipeline()
        p.add("z", partial(_const, 1))
        p.add("a", partial(_const, 2))
        p.add("m", _add, deps=("z", "a"))
        assert p.run(use_cache=False).order == ("z", "a", "m")

    def test_node_exception_propagates_unchanged(self):
        """A failing node raises its own exception, not a wrapper."""
        from functools import partial

        p = Pipeline()
        p.add("a", partial(_const, 1))
        p.add("boom", _divide_by_zero, deps=("a",))
        with pytest.raises(ZeroDivisionError):
            p.run(use_cache=False)

    def test_duplicate_name_rejected(self):
        p = Pipeline()
        p.add("a", _add)
        with pytest.raises(ValueError, match="duplicate"):
            p.add("a", _add)

    def test_unknown_dep_rejected(self):
        p = Pipeline()
        with pytest.raises(ValueError, match="unregistered"):
            p.add("b", _double, deps=("a",))

    def test_bad_weight_rejected(self):
        p = Pipeline()
        with pytest.raises(ValueError, match="weight"):
            p.add("a", _add, weight=0.0)

    def test_warm_rerun_all_hits(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cold = self._diamond().run(cache=cache)
        warm = self._diamond().run(cache=cache)
        assert cold.n_computed == 4 and cold.n_hits == 0
        assert warm.n_hits == 4 and warm.n_computed == 0
        assert warm.value("d") == cold.value("d")

    def test_param_change_invalidates_downstream(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        self._diamond(a=1).run(cache=cache)
        run = self._diamond(a=2).run(cache=cache)
        assert run.n_hits == 0 and run.value("d") == 8

    def test_early_cutoff(self, tmp_path):
        """A recomputed-but-identical value stops invalidation cold.

        ``a`` keys on its params, ``b``/``c``/``d`` key on upstream
        *value* digests: two differently-parameterized ``a`` nodes that
        produce the same value replay everything downstream.
        """
        from functools import partial

        cache = ResultCache(cache_dir=tmp_path)
        p1 = Pipeline()
        p1.add("a", partial(_const, 5), params={"rev": 1})
        p1.add("b", _double, deps=("a",))
        p1.run(cache=cache)

        p2 = Pipeline()
        p2.add("a", partial(_const, 5), params={"rev": 2})
        p2.add("b", _double, deps=("a",))
        run = p2.run(cache=cache)
        assert run.records["a"].status == "computed"
        assert run.records["b"].status == "hit"

    def test_use_cache_false_never_reads_or_writes(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        self._diamond().run(cache=cache)
        run = self._diamond().run(cache=cache, use_cache=False)
        assert run.n_computed == 4 and run.n_hits == 0

    def test_to_taskgraph_metrics(self):
        g = self._diamond().to_taskgraph()
        assert g.n_tasks == 4 and g.n_edges == 4
        assert g.work() == pytest.approx(4.0)
        assert g.span() == pytest.approx(3.0)  # a -> b|c -> d
        assert set(g.topological_order()) == {"a", "b", "c", "d"}

    def test_digest_helpers_stable(self):
        assert params_digest({"b": 1, "a": 2}) == params_digest({"a": 2, "b": 1})
        assert value_digest(b"x") != value_digest(b"y")


# -- the report DAG ----------------------------------------------------------


def _tag_preserving_update(course):
    """Copy of ``course`` with one extra material that adds no new tags."""
    tags = sorted(course.tag_set())[:3]
    extra = Material(
        id=f"{course.id}-extra",
        title="redundant worksheet",
        mtype=MaterialType.LECTURE,
        mappings=frozenset(tags),
    )
    return dataclasses.replace(course, materials=[*course.materials, extra])


class TestReportPipeline:
    def test_cold_warm_bit_identity(self, dataset, tmp_path):
        tree, courses, _ = dataset
        courses = list(courses)
        cache = ResultCache(cache_dir=tmp_path)
        direct = build_report_direct(courses, tree)
        before_hits = metrics.get("pipeline.node_hit")
        cold = build_report_pipeline(courses, tree).run(cache=cache)
        warm = build_report_pipeline(courses, tree).run(cache=cache)
        assert cold.value("report") == direct
        assert warm.value("report") == direct
        assert cold.n_hits == 0 and cold.n_computed == len(cold.records)
        assert warm.n_computed == 0 and warm.n_hits == len(warm.records)
        assert metrics.get("pipeline.node_hit") - before_hits == warm.n_hits
        assert metrics.get("pipeline.runs") >= 2

    def test_build_report_engines_agree(self, dataset, tmp_path):
        tree, courses, _ = dataset
        courses = list(courses)
        cache = ResultCache(cache_dir=tmp_path)
        dag = build_report(courses, tree, engine="dag", cache=cache)
        direct = build_report(courses, tree, engine="direct")
        assert dag == direct
        with pytest.raises(ValueError, match="engine"):
            build_report(courses, tree, engine="bogus")

    def test_add_course_recomputes_only_downstream(self, dataset, tmp_path):
        tree, courses, _ = dataset
        courses = list(courses)
        cache = ResultCache(cache_dir=tmp_path)
        build_report_pipeline(courses, tree).run(cache=cache)

        new = dataclasses.replace(
            courses[0],
            id="zz-new-pdc",
            name="New PDC seminar",
            labels=frozenset({CourseLabel.PDC}),
        )
        run = build_report_pipeline([*courses, new], tree).run(cache=cache)
        computed = set(run.computed_nodes())
        hits = set(run.hit_nodes())
        # Whole-corpus stages see the new row.
        for name in ("matrix", "typing", "section:dataset", "section:types",
                     "anchors:zz-new-pdc", "section:anchors", "report"):
            assert name in computed, name
        # The new course is PDC-only: CS1/DS families and their memoized
        # factorizations are untouched, as is every old anchors row.
        for name in ("section:agreement:CS1", "section:agreement:DS",
                     "family-matrix:cs1", "section:flavors:cs1",
                     "family-matrix:ds", "section:flavors:ds"):
            assert name in hits, name
        for c in courses:
            assert f"anchors:{c.id}" in hits
        assert "section:agreement:PDC" in computed
        assert run.value("report") == build_report_direct([*courses, new], tree)

    def test_remove_course_recomputes_only_downstream(self, dataset, tmp_path):
        tree, courses, _ = dataset
        courses = list(courses)
        cache = ResultCache(cache_dir=tmp_path)
        build_report_pipeline(courses, tree).run(cache=cache)

        # Drop a PDC-only course so CS1/DS family nodes stay memoized.
        victim = next(
            c for c in courses
            if c.labels == frozenset({CourseLabel.PDC})
        )
        remaining = [c for c in courses if c.id != victim.id]
        run = build_report_pipeline(remaining, tree).run(cache=cache)
        hits = set(run.hit_nodes())
        computed = set(run.computed_nodes())
        for name in ("family-matrix:cs1", "section:flavors:cs1",
                     "family-matrix:ds", "section:flavors:ds",
                     "section:agreement:CS1", "section:agreement:DS"):
            assert name in hits, name
        for c in remaining:
            assert f"anchors:{c.id}" in hits
        assert "typing" in computed and "matrix" in computed
        assert f"anchors:{victim.id}" not in run.records
        assert run.value("report") == build_report_direct(remaining, tree)

    def test_tag_preserving_update_early_cutoff(self, dataset, tmp_path):
        """The headline incremental win: an edit that leaves every tag set
        unchanged recomputes only cheap nodes; every factorization replays."""
        tree, courses, _ = dataset
        courses = list(courses)
        cache = ResultCache(cache_dir=tmp_path)
        build_report_pipeline(courses, tree).run(cache=cache)

        updated = [_tag_preserving_update(courses[0]), *courses[1:]]
        run = build_report_pipeline(updated, tree).run(cache=cache)
        computed = set(run.computed_nodes())
        # The course digest changed, so matrix/dataset/anchors re-run...
        assert "matrix" in computed
        assert f"anchors:{updated[0].id}" in computed
        # ...but the matrix *value* is unchanged, so every NMF node (and
        # everything keyed on values) replays from cache.
        hits = set(run.hit_nodes())
        assert "typing" in hits and "section:types" in hits
        for slug, _, _ in FLAVOR_FAMILIES:
            if f"section:flavors:{slug}" in run.records:
                assert f"section:flavors:{slug}" in hits, slug
        # The program-coverage section keys on the matrix value too.
        assert "section:gap" in hits
        assert run.value("report") == build_report_direct(updated, tree)

    def test_newly_covered_tag_recomputes_gap(self, dataset, tmp_path):
        """Covering an in-tree tag no course covered changes the matrix's
        columns, so the coverage section keyed on them recomputes."""
        tree, courses, _ = dataset
        courses = list(courses)
        cache = ResultCache(cache_dir=tmp_path)
        before = build_report_pipeline(courses, tree).run(cache=cache)

        # A PD core entry in the program's gap: no course covers it yet.
        fresh = pdc_gap(courses, tree)[0]
        assert fresh not in build_course_matrix(courses, tree=tree).tag_ids
        extra = Material(
            id=f"{courses[0].id}-fresh",
            title="first look at a new topic",
            mtype=MaterialType.LECTURE,
            mappings=frozenset({fresh}),
        )
        updated = [
            dataclasses.replace(
                courses[0], materials=[*courses[0].materials, extra]
            ),
            *courses[1:],
        ]
        run = build_report_pipeline(updated, tree).run(cache=cache)
        assert run.records["section:gap"].status == "computed"
        assert run.value("section:gap") != before.value("section:gap")
        assert run.value("report") == build_report_direct(updated, tree)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_matrix_columns_are_program_coverage(self, dataset, data):
        """The gap-section keying rests on this: the matrix's columns are
        exactly the program's covered in-tree tags, for any sub-corpus
        and any re-classification."""
        tree, courses, _ = dataset
        # Tags, internal nodes and ids of another guideline.
        pool = tree.node_ids() + load_pdc12().tag_ids()
        picked = data.draw(
            st.lists(st.sampled_from(courses), min_size=1, unique_by=id)
        )
        cs = list(picked)
        edits = data.draw(st.lists(
            st.tuples(
                st.integers(0, len(cs) - 1),
                st.integers(0, 10**6),
                st.frozensets(st.sampled_from(pool), max_size=6),
            ),
            max_size=4,
        ))
        for ci, mi, tags in edits:
            course = cs[ci]
            materials = list(course.materials)
            j = mi % len(materials)
            materials[j] = materials[j].with_mappings(tags)
            cs[ci] = dataclasses.replace(course, materials=materials)
        assert frozenset(
            build_course_matrix(cs, tree=tree).tag_ids
        ) == analyze_program(cs, tree).covered

    def test_family_matrix_equals_subset(self, dataset):
        """The family-node keying rests on this: building a matrix from the
        family's courses bit-equals slicing the global matrix."""
        tree, courses, _ = dataset
        courses = list(courses)
        full = build_course_matrix(courses, tree=tree)
        for _, _, labels in FLAVOR_FAMILIES:
            family = [c for c in courses if labels & c.labels]
            direct = build_course_matrix(family, tree=tree)
            sliced = full.subset([c.id for c in family])
            assert direct.course_ids == sliced.course_ids
            assert direct.tag_ids == sliced.tag_ids
            assert np.array_equal(direct.matrix, sliced.matrix)

    def test_course_digest_sensitivity(self, dataset):
        _, courses, _ = dataset
        c = list(courses)[0]
        assert c.digest == dataclasses.replace(c).digest
        assert c.digest != _tag_preserving_update(c).digest


def _changed(value):
    """A value of ``value``'s type that differs from it."""
    if isinstance(value, enum.Enum):
        members = list(type(value))
        return members[(members.index(value) + 1) % len(members)]
    if isinstance(value, str):
        return value + "~"
    if isinstance(value, frozenset):
        return value ^ {_changed(next(iter(value)))}
    if isinstance(value, tuple):
        return (*value, "extra")
    if isinstance(value, Mapping):
        return {**value, "extra": 1}
    raise TypeError(f"no change rule for {type(value).__name__}")


def _material(**overrides):
    fields = dict(
        id="m1",
        title="Loops",
        mtype=MaterialType.LAB,
        mappings={"b", "a"},
        datasets=["census"],
        meta={"weeks": [1, 2], "source": "workshop"},
    )
    return Material(**{**fields, **overrides})


class TestInputDigests:
    """Course digests hash the header plus memoized material digests, so
    they must track every field and nothing else."""

    @pytest.fixture()
    def course(self, dataset):
        _, courses, _ = dataset
        c = next(c for c in courses if c.labels)
        # A fresh copy, so each test starts with its memos unset.
        return dataclasses.replace(c)

    def test_replace_with_one_more_material_changes_digest(self, course):
        digest, tags = course.digest, course.tag_set()
        extra = _material(mappings={"x/new-tag"})
        grown = dataclasses.replace(
            course, materials=[*course.materials, extra]
        )
        assert grown.digest != digest
        assert grown.tag_set() == tags | {"x/new-tag"}
        # The original keeps its memo and its materials.
        assert course.digest == digest and course.tag_set() == tags
        assert extra not in course.materials
        assert course.digest == oracle_course_digest(course)
        assert grown.digest == oracle_course_digest(grown)

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(Material)]
    )
    def test_every_material_field_changes_digest(self, course, field):
        m = course.materials[0]
        edited = dataclasses.replace(m, **{field: _changed(getattr(m, field))})
        changed = dataclasses.replace(
            course, materials=[edited, *course.materials[1:]]
        )
        assert edited.digest != m.digest
        assert changed.digest != course.digest

    @pytest.mark.parametrize(
        "field",
        [f.name for f in dataclasses.fields(Course) if f.name != "materials"],
    )
    def test_every_header_field_changes_digest(self, course, field):
        changed = dataclasses.replace(
            course, **{field: _changed(getattr(course, field))}
        )
        assert changed.digest != course.digest

    def test_equal_materials_built_independently(self):
        a, b = _material(), _material()
        assert a is not b and a == b
        assert a.digest == b.digest
        assert material_from_dict(material_to_dict(a)).digest == a.digest
        assert Course("c", "C", materials=[a]).digest == Course(
            "c", "C", materials=[b]
        ).digest

    def test_survives_pickle(self, course, dataset):
        tree = dataset[0]
        cold = pickle.loads(pickle.dumps(course))  # memos not yet built
        digest, tags = course.digest, course.tags
        warm = pickle.loads(pickle.dumps(course))  # memos travel along
        for back in (cold, warm):
            assert back == course
            assert (back.digest, back.tags) == (digest, tags)
        assert pickle.loads(pickle.dumps(tree)).digest == tree.digest

    def test_concurrent_first_use_agrees(self, course):
        """Threads racing to build a fresh course's memos all see one
        answer."""
        want = (oracle_course_digest(course), oracle_tag_set(course))
        bad: list[tuple] = []

        def use() -> None:
            got = (course.digest, course.tag_set())
            if got != want:
                bad.append(got)

        threads = [threading.Thread(target=use) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []

    def test_anchor_rows_key_on_their_course_mixture(self, dataset):
        """Planning encodes each roster mixture once; every anchors node
        still keys on its own course's mixture digest, ``{}`` off-roster."""
        tree, courses, _ = dataset
        extra = dataclasses.replace(courses[0], id="zz-off-roster")
        p = build_report_pipeline([*courses, extra], tree)
        mixtures = {e.id: e.mixture for e in ROSTER}
        for c in [*courses, extra]:
            want = params_digest(dict(mixtures.get(c.id, {})))
            params = dict(p.node(f"anchors:{c.id}").params)
            assert params["mixture"] == f"str:{want!r}", c.id

    def test_tree_digest_is_canonical_json(self, dataset):
        tree = dataset[0]
        assert tree.digest == params_digest(tree_to_dict(tree))

    def test_independent_of_hash_seed(self, dataset):
        """The on-disk cache layer replays keys across processes."""
        tree, courses, _ = dataset
        expected = [tree.digest, *(c.digest for c in courses)]
        script = (
            "from repro.canonical import load_canonical_dataset\n"
            "tree, courses, _ = load_canonical_dataset()\n"
            "print(tree.digest, *(c.digest for c in courses))\n"
        )
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        for seed in ("0", "4242"):
            env = {
                **os.environ,
                "PYTHONHASHSEED": seed,
                "PYTHONPATH": os.pathsep.join(
                    p for p in (src, os.environ.get("PYTHONPATH")) if p
                ),
            }
            out = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            )
            assert out.stdout.split() == expected, seed

