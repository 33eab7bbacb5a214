"""Cross-module property-based tests (hypothesis).

These pin the *invariants* the pipeline relies on, independent of any
particular dataset: generation determinism, matrix/agreement consistency,
the rewritten matrix and agreement fills against their reference loops,
factorization monotonicity (in ``k`` and per solver iteration), hit-tree
conservation laws, recommendation monotonicity, and schedule feasibility.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.agreement import agreement, agreement_counts
from repro.analysis.matrix import build_course_matrix
from repro.anchors.modules import MODULE_CATALOG
from repro.anchors.recommender import recommend_for_course
from repro.corpus.generator import sample_course_tags
from repro.curriculum import load_cs2013
from repro.factorization.kernels import batched_nmf_fits
from repro.factorization.nmf import NMF
from repro.materials.course import Course, CourseLabel
from repro.materials.hittree import build_hit_tree
from repro.materials.material import Material, MaterialType
from repro.taskgraph.dag import TaskGraph
from repro.taskgraph.scheduling import list_schedule
from tests.oracles import oracle_agreement_counts, oracle_course_matrix

CS2013 = load_cs2013()
_TAG_POOL = CS2013.tag_ids()[:60]

mixtures = st.sampled_from([
    {"cs1-imperative": 1.0},
    {"cs1-oop": 1.0},
    {"ds-combinatorial": 1.0},
    {"pdc": 1.0},
    {"cs1-imperative": 0.5, "cs1-algorithmic": 0.5},
    {"ds-applications": 0.7, "ds-object-oriented": 0.3},
])

tag_subsets = st.frozensets(st.sampled_from(_TAG_POOL), min_size=0, max_size=25)


def mk_course(cid, tag_groups):
    """Course whose i-th material covers tag_groups[i]."""
    materials = [
        Material(f"{cid}/m{i}", f"m{i}", MaterialType.LECTURE, frozenset(g))
        for i, g in enumerate(tag_groups)
    ]
    return Course(cid, cid, materials=materials)


class TestGenerationProperties:
    @settings(max_examples=10, deadline=None)
    @given(mixtures, st.integers(0, 10_000))
    def test_sampling_deterministic(self, mixture, seed):
        assert sample_course_tags(CS2013, mixture, seed=seed) == \
            sample_course_tags(CS2013, mixture, seed=seed)

    @settings(max_examples=10, deadline=None)
    @given(mixtures, st.integers(0, 10_000))
    def test_sampled_tags_valid(self, mixture, seed):
        tags = sample_course_tags(CS2013, mixture, seed=seed)
        assert all(t in CS2013 and CS2013[t].is_tag for t in tags)


class TestMatrixAgreementConsistency:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(tag_subsets, min_size=1, max_size=6))
    def test_column_sums_equal_agreement_counts(self, tag_sets):
        courses = [mk_course(f"c{i}", [ts]) for i, ts in enumerate(tag_sets)]
        if not any(ts for ts in tag_sets):
            return  # empty universe
        matrix = build_course_matrix(courses)
        res = agreement(courses)
        counts = matrix.tag_counts()
        assert counts == dict(res.counts)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(tag_subsets, min_size=2, max_size=6))
    def test_at_least_bounds(self, tag_sets):
        courses = [mk_course(f"c{i}", [ts]) for i, ts in enumerate(tag_sets)]
        res = agreement(courses)
        for k, v in res.at_least.items():
            assert 0 <= v <= res.n_tags
        assert res.at_least.get(len(courses) + 1, 0) == 0 or \
            len(courses) + 1 not in res.at_least


#: Tags, internal nodes (units, an area, the root) and ids of no tree here.
_ID_POOL = sorted(
    {*_TAG_POOL[:16], *(CS2013.parent_id(t) for t in _TAG_POOL[:16])}
    | {CS2013.areas()[0].id, CS2013.root_id, "PDC12/elsewhere", "x"}
)


@st.composite
def corpora(draw):
    """1–6 courses of 0–3 materials each, with random labels; a material
    may map to nothing."""
    specs = draw(st.lists(
        st.tuples(
            st.lists(st.frozensets(st.sampled_from(_ID_POOL), max_size=5),
                     max_size=3),
            st.frozensets(st.sampled_from(list(CourseLabel)), max_size=2),
        ),
        min_size=1,
        max_size=6,
    ))
    return [
        Course(f"c{i}", f"C{i}", labels=labels, materials=[
            Material(f"c{i}/m{j}", "m", MaterialType.LECTURE, tags)
            for j, tags in enumerate(groups)
        ])
        for i, (groups, labels) in enumerate(specs)
    ]


class TestFillsMatchOracles:
    """``build_course_matrix`` and ``agreement_counts`` read the courses'
    memoized tags through C-level fills; the per-tag loops in
    ``tests/oracles.py`` are what they must reproduce."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        courses=corpora(),
        use_tree=st.booleans(),
        full_universe=st.booleans(),
        label=st.none() | st.sampled_from(list(CourseLabel)),
        weighting=st.sampled_from(["binary", "tfidf"]),
        weighted=st.booleans(),
        data=st.data(),
    )
    def test_fills_match_oracles_and_permute(
        self, courses, use_tree, full_universe, label, weighting, weighted, data
    ):
        tree = CS2013 if use_tree else None
        kwargs = dict(
            tree=tree,
            label=label,
            full_universe=full_universe and use_tree,
            weighting=weighting,
        )
        shuffled = data.draw(st.permutations(courses))
        family = [c for c in courses if label is None or label in c.labels]
        if not family:
            with pytest.raises(ValueError):
                build_course_matrix(courses, **kwargs)
        else:
            got = build_course_matrix(courses, **kwargs)
            want = oracle_course_matrix(courses, **kwargs)
            assert (got.course_ids, got.tag_ids) == (want.course_ids, want.tag_ids)
            assert got.matrix.tobytes() == want.matrix.tobytes()
            # Permuting the courses permutes the rows and nothing else.
            moved = build_course_matrix(shuffled, **kwargs)
            rows = [got.course_ids.index(cid) for cid in moved.course_ids]
            assert moved.tag_ids == got.tag_ids
            assert moved.matrix.tobytes() == got.matrix[rows].tobytes()

        counts = agreement_counts(family, tree=tree, weighted=weighted)
        assert counts == oracle_agreement_counts(
            family, tree=tree, weighted=weighted
        )
        if family:
            at_least = agreement(family, tree=tree, weighted=weighted).at_least
            top = max(counts.values(), default=0) if weighted else len(family)
            assert list(at_least.items()) == [
                (k, sum(1 for v in counts.values() if v >= k))
                for k in range(1, top + 1)
            ]
        assert agreement_counts(shuffled, tree=tree, weighted=weighted) == (
            agreement_counts(courses, tree=tree, weighted=weighted)
        )


class TestHitTreeConservation:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(tag_subsets, min_size=1, max_size=5))
    def test_root_weight_equals_total_incidences(self, tag_sets):
        mats = [
            Material(f"m{i}", f"m{i}", MaterialType.LECTURE, ts)
            for i, ts in enumerate(tag_sets)
        ]
        ht = build_hit_tree(mats, CS2013)
        total = sum(len(ts) for ts in tag_sets)
        assert ht.weight(CS2013.root_id) == total

    @settings(max_examples=15, deadline=None)
    @given(tag_subsets)
    def test_parent_weight_geq_child(self, tags):
        mats = [Material("m", "m", MaterialType.LECTURE, tags)]
        ht = build_hit_tree(mats, CS2013)
        for nid in ht.tree.node_ids():
            for kid in ht.tree.child_ids(nid):
                assert ht.weight(nid) >= ht.weight(kid)


class TestRecommendationMonotonicity:
    @settings(max_examples=15, deadline=None)
    @given(tag_subsets)
    def test_more_coverage_never_lowers_scores(self, tags):
        module = MODULE_CATALOG()[0]
        base = mk_course("c", [tags])
        grown = mk_course("c", [tags | set(module.anchor_tags[:2])])
        score_of = lambda recs: {
            r.module.id: r.score for r in recs.recommendations
        }
        s_base = score_of(recommend_for_course(base))
        s_grown = score_of(recommend_for_course(grown))
        for mid, s in s_base.items():
            assert s_grown.get(mid, 0.0) >= s - 1e-12


class TestNMFProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 500))
    def test_error_nonincreasing_in_k(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((8, 12))
        errs = []
        for k in (1, 2, 4):
            m = NMF(k, solver="hals", seed=0)
            m.fit_transform(a)
            errs.append(m.reconstruction_err_)
        assert errs[0] >= errs[1] - 1e-8 >= errs[2] - 2e-8


def _nonneg_matrix(rng, n, m, kind):
    """A random non-negative ``n x m`` matrix of the given ``kind``."""
    if kind == "low-rank":  # exactly factorizable at rank 2
        return rng.random((n, 2)) @ rng.random((2, m))
    a = rng.random((n, m))
    if kind == "sparse":
        a[rng.random((n, m)) < 0.6] = 0.0
    return a


class TestNMFObjectiveMonotone:
    """One more solver iteration never raises the objective.

    Each run starts from the same custom ``W0``/``H0`` with ``tol=0``, so
    the fit at ``max_iter=t+1`` is the fit at ``max_iter=t`` plus one
    step.  The absolute term of the tolerance admits rounding noise on
    objectives near zero (an exactly factorizable matrix).
    """

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 12),
        m=st.integers(2, 16),
        k=st.integers(1, 4),
        solver_loss=st.sampled_from([
            ("mu", "frobenius"), ("mu", "kullback-leibler"),
            ("hals", "frobenius"),
        ]),
        kind=st.sampled_from(["dense", "sparse", "low-rank"]),
        seed=st.integers(0, 2**32 - 1),
        t_max=st.integers(1, 25),
    )
    def test_objective_never_increases(
        self, n, m, k, solver_loss, kind, seed, t_max
    ):
        solver, loss = solver_loss
        rng = np.random.default_rng(seed)
        a = _nonneg_matrix(rng, n, m, kind)
        spec = {
            "n_components": k, "solver": solver, "loss": loss,
            "init": "custom", "tol": 0.0,
            "W0": rng.random((n, k)) + 0.1, "H0": rng.random((k, m)) + 0.1,
        }
        bundles = batched_nmf_fits(
            a, [dict(spec, max_iter=t) for t in range(1, t_max + 2)]
        )
        errs = [float(b["err"]) for b in bundles]
        atol = 1e-12 * np.linalg.norm(a)
        for t, (before, after) in enumerate(zip(errs, errs[1:]), start=1):
            assert after <= before + 1e-12 * abs(before) + atol, (
                f"objective rose from max_iter={t} to {t + 1}: "
                f"{before!r} -> {after!r}"
            )


class TestScheduleProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from([f"t{i}" for i in range(10)]),
            st.floats(0.1, 10.0),
            min_size=1,
            max_size=10,
        ),
        st.integers(1, 5),
        st.integers(0, 100),
    )
    def test_random_forests_schedule_feasibly(self, weights, p, seed):
        # Random forest edges: each task may depend on a lexicographically
        # smaller one (guarantees acyclicity).
        rng = np.random.default_rng(seed)
        names = sorted(weights)
        edges = [
            (names[int(rng.integers(i))], names[i])
            for i in range(1, len(names))
            if rng.random() < 0.6
        ]
        g = TaskGraph.from_edges(weights, edges)
        s = list_schedule(g, p)
        s.validate()
        assert s.makespan >= max(g.span(), g.work() / p) - 1e-9
        assert s.makespan <= g.work() + 1e-9
