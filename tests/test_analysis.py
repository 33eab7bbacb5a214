"""Tests for the analysis package: matrix, agreement, typing, flavors, model selection."""

import numpy as np
import pytest

from repro.analysis.agreement import agreement, agreement_counts, agreement_tree
from repro.analysis.flavors import analyze_flavors
from repro.analysis.matrix import CourseMatrix, build_course_matrix
from repro.analysis.model_selection import (
    duplicate_dimension_score,
    k_sweep,
    select_k,
    singleton_dimension_score,
    stability_score,
    KSweepEntry,
)
from repro.analysis.typing import type_courses
from repro.materials.course import Course, CourseLabel
from repro.materials.material import Material, MaterialType
from tests.oracles import oracle_course_matrix


def mk_course(cid, tags, labels=()):
    return Course(
        cid, cid, labels=frozenset(labels),
        materials=[Material(f"{cid}/m", "m", MaterialType.LECTURE, frozenset(tags))],
    )


class TestCourseMatrix:
    def test_build_basic(self):
        courses = [mk_course("a", ["t1", "t2"]), mk_course("b", ["t2", "t3"])]
        m = build_course_matrix(courses)
        assert m.matrix.shape == (2, 3)
        assert m.tag_ids == ("t1", "t2", "t3")
        assert m.row("a").tolist() == [1.0, 1.0, 0.0]
        assert m.tag_counts() == {"t1": 1, "t2": 2, "t3": 1}

    def test_binary_entries(self, matrix):
        assert set(np.unique(matrix.matrix)) <= {0.0, 1.0}

    def test_label_filter(self):
        courses = [
            mk_course("a", ["t1"], [CourseLabel.CS1]),
            mk_course("b", ["t2"], [CourseLabel.DS]),
        ]
        m = build_course_matrix(courses, label=CourseLabel.CS1)
        assert m.course_ids == ("a",)
        assert m.tag_ids == ("t1",)

    def test_no_match_raises(self):
        with pytest.raises(ValueError):
            build_course_matrix([mk_course("a", ["t"])], label=CourseLabel.PDC)

    def test_tree_restricts_columns(self, small_tree):
        courses = [mk_course("a", ["G/A/U1/t-topic-alpha", "ELSEWHERE/tag"])]
        m = build_course_matrix(courses, tree=small_tree)
        assert m.tag_ids == ("G/A/U1/t-topic-alpha",)

    def test_full_universe(self, small_tree):
        courses = [mk_course("a", ["G/A/U1/t-topic-alpha"])]
        m = build_course_matrix(courses, tree=small_tree, full_universe=True)
        assert m.n_tags == 6
        assert m.matrix.sum() == 1.0

    def test_full_universe_needs_tree(self):
        with pytest.raises(ValueError):
            build_course_matrix([mk_course("a", ["t"])], full_universe=True)

    def test_subset_drops_zero_columns(self):
        courses = [mk_course("a", ["t1"]), mk_course("b", ["t2"])]
        m = build_course_matrix(courses)
        sub = m.subset(["a"])
        assert sub.tag_ids == ("t1",)
        assert sub.course_ids == ("a",)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CourseMatrix(np.zeros((2, 2)), ("a",), ("t1", "t2"))

    def test_row_order_preserved(self, matrix, courses):
        assert matrix.course_ids == tuple(c.id for c in courses)

    @pytest.mark.parametrize("weighting", ["binary", "tfidf"])
    @pytest.mark.parametrize("label", [None, CourseLabel.CS1, CourseLabel.PDC])
    @pytest.mark.parametrize(
        "use_tree,full_universe", [(False, False), (True, False), (True, True)]
    )
    def test_bit_equal_to_two_pass_oracle(
        self, dataset, use_tree, full_universe, label, weighting
    ):
        tree, courses, _ = dataset
        # A course mapped to an internal unit node, an out-of-tree id and
        # a tag exercises every column filter.
        unit = tree.parent_id(tree.tag_ids()[0])
        extra = mk_course(
            "extra", [unit, "ELSEWHERE/tag", tree.tag_ids()[1]],
            [CourseLabel.CS1, CourseLabel.PDC],
        )
        kwargs = dict(
            tree=tree if use_tree else None,
            label=label,
            full_universe=full_universe,
            weighting=weighting,
        )
        got = build_course_matrix([*courses, extra], **kwargs)
        want = oracle_course_matrix([*courses, extra], **kwargs)
        assert got.course_ids == want.course_ids
        assert got.tag_ids == want.tag_ids
        assert got.matrix.shape == want.matrix.shape
        assert got.matrix.tobytes() == want.matrix.tobytes()


class TestAgreement:
    def test_counts(self):
        courses = [mk_course("a", ["t1", "t2"]), mk_course("b", ["t2"])]
        counts = agreement_counts(courses)
        assert counts == {"t1": 1, "t2": 2}

    def test_weighted_counts_use_materials(self):
        c = Course("c", "C", materials=[
            Material("m1", "m1", MaterialType.LECTURE, frozenset({"t"})),
            Material("m2", "m2", MaterialType.LAB, frozenset({"t"})),
        ])
        assert agreement_counts([c], weighted=True)["t"] == 2
        assert agreement_counts([c], weighted=False)["t"] == 1

    def test_distribution_sorted_desc(self, cs1_courses, cs2013):
        res = agreement(cs1_courses, tree=cs2013)
        assert list(res.distribution) == sorted(res.distribution, reverse=True)
        assert len(res.distribution) == res.n_tags

    def test_at_least_antitone(self, cs1_courses, cs2013):
        res = agreement(cs1_courses, tree=cs2013)
        vals = [res.at_least[k] for k in sorted(res.at_least)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert res.at_least[1] == res.n_tags

    def test_empty_courses_rejected(self):
        with pytest.raises(ValueError):
            agreement([])

    def test_tags_at_least(self):
        courses = [mk_course("a", ["t1", "t2"]), mk_course("b", ["t2"])]
        res = agreement(courses)
        assert res.tags_at_least(2) == ["t2"]
        assert res.tags_at_least(1) == ["t1", "t2"]

    def test_agreement_tree_contains_only_qualifying(self, cs1_courses, cs2013):
        res = agreement(cs1_courses, tree=cs2013)
        sub = agreement_tree(cs1_courses, cs2013, 3)
        tags_in_tree = {n.id for n in sub.tags()}
        assert tags_in_tree == set(res.tags_at_least(3))


class TestTyping:
    def test_shapes_and_normalization(self, matrix):
        t = type_courses(matrix, 4, seed=0)
        assert t.w.shape == (matrix.n_courses, 4)
        assert t.h.shape == (4, matrix.n_tags)
        sums = t.w_normalized.sum(axis=1)
        np.testing.assert_allclose(sums[sums > 0], 1.0)

    def test_dominant_type(self, matrix):
        t = type_courses(matrix, 4, seed=0)
        for cid in matrix.course_ids[:3]:
            d = t.dominant_type(cid)
            i = matrix.course_ids.index(cid)
            assert d == int(np.argmax(t.w[i]))

    def test_restarts_pick_best(self, matrix):
        single = type_courses(matrix, 4, seed=0, n_restarts=1)
        multi = type_courses(matrix, 4, seed=0, n_restarts=5)
        assert multi.reconstruction_err <= single.reconstruction_err + 1e-9

    def test_label_affinity_rows_normalized(self, matrix, courses):
        t = type_courses(matrix, 4, seed=0)
        for vec in t.label_affinity(courses).values():
            assert vec.sum() == pytest.approx(1.0, abs=1e-6)

    def test_label_to_type_injective(self, matrix, courses):
        t = type_courses(matrix, 4, seed=0)
        mapping = t.label_to_type(courses)
        dims = list(mapping.values())
        assert len(dims) == len(set(dims))


class TestFlavors:
    def test_profiles_complete(self, matrix, cs1_courses, cs2013):
        sub = matrix.subset([c.id for c in cs1_courses])
        fa = analyze_flavors(sub, cs2013, 3, seed=1)
        assert len(fa.profiles) == 3
        for p in fa.profiles:
            assert abs(sum(p.area_mass.values()) - 1.0) < 1e-6
            assert p.top_tags
            assert all(w >= 0 for _, w in p.top_tags)

    def test_memberships_sum_to_one(self, matrix, cs1_courses, cs2013):
        sub = matrix.subset([c.id for c in cs1_courses])
        fa = analyze_flavors(sub, cs2013, 3, seed=1)
        for cid in sub.course_ids:
            assert fa.course_memberships(cid).sum() == pytest.approx(1.0, abs=1e-6)

    def test_strongest_course_consistency(self, matrix, cs1_courses, cs2013):
        sub = matrix.subset([c.id for c in cs1_courses])
        fa = analyze_flavors(sub, cs2013, 3, seed=1)
        for t in range(3):
            cid = fa.strongest_course(t)
            w = fa.course_memberships(cid)
            for other in sub.course_ids:
                assert w[t] >= fa.course_memberships(other)[t] - 1e-12

    def test_top_tags_sorted(self, matrix, cs1_courses, cs2013):
        sub = matrix.subset([c.id for c in cs1_courses])
        fa = analyze_flavors(sub, cs2013, 3, seed=1, top_n=5)
        for p in fa.profiles:
            weights = [w for _, w in p.top_tags]
            assert weights == sorted(weights, reverse=True)
            assert len(p.top_tags) <= 5


class TestModelSelection:
    def test_duplicate_score_detects_copies(self):
        h = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [5.0, 0.0, 0.0]])
        assert duplicate_dimension_score(h) == pytest.approx(1.0)

    def test_duplicate_score_orthogonal(self):
        h = np.eye(3)
        assert duplicate_dimension_score(h) == pytest.approx(0.0)

    def test_duplicate_score_k1(self):
        assert duplicate_dimension_score(np.ones((1, 4))) == 0.0

    def test_singleton_score(self):
        w = np.array([[10.0, 1.0], [0.1, 1.0], [0.1, 1.0]])
        # Column 0 dominated by course 0; column 1 spread evenly.
        assert singleton_dimension_score(w) == pytest.approx(0.5)

    def test_singleton_score_bad_input(self):
        with pytest.raises(ValueError):
            singleton_dimension_score(np.zeros(3))

    def test_stability_perfect_on_identifiable(self, rng):
        # Orthogonal block matrix: restarts must find identical types.
        a = np.zeros((9, 12))
        a[:3, :4] = 1; a[3:6, 4:8] = 1; a[6:, 8:] = 1
        m = CourseMatrix(a, tuple(f"c{i}" for i in range(9)),
                         tuple(f"t{j}" for j in range(12)))
        assert stability_score(m, 3, n_runs=3, seed=0) > 0.99

    def test_stability_needs_two_runs(self, matrix):
        with pytest.raises(ValueError):
            stability_score(matrix, 2, n_runs=1)

    def test_k_sweep_fields(self, matrix, cs1_courses):
        sub = matrix.subset([c.id for c in cs1_courses])
        entries = k_sweep(sub, [2, 3], seed=0, stability_runs=2)
        assert [e.k for e in entries] == [2, 3]
        for e in entries:
            assert e.reconstruction_err >= 0
            assert 0 <= e.duplicate_score <= 1
            assert 0 <= e.singleton_score <= 1

    def test_select_k_rules(self):
        entries = [
            KSweepEntry(2, 10.0, 0.3, 0.0, 1.0),
            KSweepEntry(3, 8.0, 0.4, 0.2, 1.0),
            KSweepEntry(4, 6.0, 0.4, 0.7, 1.0),   # singleton overfit
            KSweepEntry(5, 4.0, 0.9, 0.2, 1.0),
        ]
        assert select_k(entries) == 3

    def test_select_k_duplicate_rule(self):
        entries = [
            KSweepEntry(2, 10.0, 0.3, 0.0, 1.0),
            KSweepEntry(3, 8.0, 0.95, 0.0, 1.0),  # duplicate overfit
        ]
        assert select_k(entries) == 2

    def test_select_k_empty(self):
        with pytest.raises(ValueError):
            select_k([])


class TestTfidfWeighting:
    def test_sparsity_preserved(self, courses, cs2013):
        from repro.analysis.matrix import build_course_matrix
        b = build_course_matrix(list(courses), tree=cs2013)
        t = build_course_matrix(list(courses), tree=cs2013, weighting="tfidf")
        assert ((b.matrix > 0) == (t.matrix > 0)).all()
        assert t.tag_ids == b.tag_ids

    def test_rare_tags_upweighted(self, courses, cs2013):
        import numpy as np
        from repro.analysis.matrix import build_course_matrix
        b = build_course_matrix(list(courses), tree=cs2013)
        t = build_course_matrix(list(courses), tree=cs2013, weighting="tfidf")
        df = b.matrix.sum(axis=0)
        rare = int(np.argmin(np.where(df > 0, df, np.inf)))
        common = int(np.argmax(df))
        assert t.matrix[:, rare].max() > t.matrix[:, common].max()

    def test_unknown_weighting_rejected(self, courses):
        import pytest as _pytest
        from repro.analysis.matrix import build_course_matrix
        with _pytest.raises(ValueError):
            build_course_matrix(list(courses), weighting="log")

    def test_nonnegative_for_nmf(self, courses, cs2013):
        from repro.analysis.matrix import build_course_matrix
        t = build_course_matrix(list(courses), tree=cs2013, weighting="tfidf")
        assert (t.matrix >= 0).all()


class TestTopTagsForDim:
    def test_sorted_and_positive(self, matrix):
        t = type_courses(matrix, 4, seed=1)
        for d in range(4):
            tags = t.top_tags_for_dim(d, n=8)
            weights = [w for _, w in tags]
            assert weights == sorted(weights, reverse=True)
            assert all(w > 0 for w in weights)
            assert len(tags) <= 8

    def test_dim_bounds(self, matrix):
        t = type_courses(matrix, 4, seed=1)
        with pytest.raises(ValueError):
            t.top_tags_for_dim(4)
        with pytest.raises(ValueError):
            t.top_tags_for_dim(-1)


class TestDominantArea:
    def test_dominant_area_matches_max_mass(self, matrix, cs1_courses, cs2013):
        sub = matrix.subset([c.id for c in cs1_courses])
        fa = analyze_flavors(sub, cs2013, 3, seed=1)
        for p in fa.profiles:
            assert p.area_mass[p.dominant_area] == max(p.area_mass.values())
