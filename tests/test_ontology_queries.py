"""Tests for ontology queries: reference level, areas, agreement subtrees, LCA."""

import sys
import threading

import pytest

from repro.canonical import load_canonical_dataset
from repro.curriculum import (
    load_cs2013,
    load_cs2023_skeleton,
    load_pdc12,
    load_pdc12_beta,
)
from repro.ontology.queries import (
    agreement_subtree,
    area_histogram,
    area_of,
    common_ancestor,
    reference_level,
    tags_by_area,
)
from tests.oracles import oracle_area_of, oracle_tags


def _hit_tree():
    """CS2013 filtered to the first canonical course's tags."""
    tree, courses, _ = load_canonical_dataset()
    tags = courses[0].tag_set()
    return tree.filter(lambda n: n.id in tags)


_TREES = {
    "cs2013": load_cs2013,
    "pdc12": load_pdc12,
    "pdc12-beta": load_pdc12_beta,
    "cs2023-skeleton": load_cs2023_skeleton,
    "hit-tree": _hit_tree,
}


class TestReferenceLevel:
    def test_small_tree(self, small_tree):
        # Level sizes: 1 root, 2 areas, 3 units, 6 tags -> reference = 3.
        assert reference_level(small_tree) == 3

    def test_cs2013_reference_is_tag_level(self, cs2013):
        assert reference_level(cs2013) == 3

    def test_tie_breaks_shallow(self, small_tree):
        # Subtree of area A: 1 unit-level... construct: depths 0:1, 1:2, 2:3
        sub = small_tree.subtree("G/A")
        # sizes: [1, 2, 4] -> deepest wins outright here; just sanity-check
        assert reference_level(sub) == 2


class TestAreaOf:
    def test_tag_rolls_to_area(self, small_tree):
        area = area_of(small_tree, "G/A/U1/t-topic-alpha")
        assert area is not None and area.id == "G/A"

    def test_area_is_itself(self, small_tree):
        assert area_of(small_tree, "G/B").id == "G/B"

    def test_root_has_no_area(self, small_tree):
        assert area_of(small_tree, "G") is None

    def test_tags_by_area_grouping(self, small_tree):
        tags = [t.id for t in small_tree.tags()]
        groups = tags_by_area(small_tree, tags)
        assert set(groups) == {"A", "B"}
        assert len(groups["A"]) == 4 and len(groups["B"]) == 2

    def test_area_histogram(self, small_tree):
        tags = [t.id for t in small_tree.tags()]
        hist = area_histogram(small_tree, tags)
        assert hist["A"] == 4 and hist["B"] == 2


class TestMemoizedTreeIndex:
    """The memoized tag tuple and node → area index equal a traversal."""

    @pytest.fixture(params=sorted(_TREES), scope="class")
    def tree(self, request):
        return _TREES[request.param]()

    def test_area_of_every_node(self, tree):
        for nid in tree.node_ids():
            assert area_of(tree, nid) == oracle_area_of(tree, nid), nid
        assert area_of(tree, tree.root_id) is None

    def test_unknown_id_raises(self, tree):
        with pytest.raises(KeyError):
            area_of(tree, "NOT/A/NODE")

    def test_tags_in_preorder(self, tree):
        expected = oracle_tags(tree)
        assert tree.tags() == expected
        assert tree.tag_ids() == [n.id for n in expected]

    def test_returned_lists_are_fresh(self, tree):
        tags, ids = tree.tags(), tree.tag_ids()
        tags.clear()
        ids.append("junk")
        assert tree.tags() == oracle_tags(tree)
        assert tree.tag_ids() == [n.id for n in oracle_tags(tree)]


def test_concurrent_first_use_agrees():
    """Threads racing to build a fresh tree's memos all see one answer."""
    base = load_cs2013()
    tree = base.filter(lambda n: True)  # an equal tree, memos not built yet
    want_tags = oracle_tags(tree)
    want_areas = {nid: oracle_area_of(tree, nid) for nid in tree.node_ids()}
    bad: list[str] = []

    def use() -> None:
        if tree.tags() != want_tags:
            bad.append("tags")
        if any(area_of(tree, nid) != a for nid, a in want_areas.items()):
            bad.append("areas")
        if tree.digest != base.digest:
            bad.append("digest")

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


class TestAgreementSubtree:
    def test_threshold_filters(self, small_tree):
        counts = {"G/A/U1/t-topic-alpha": 3, "G/B/U3/t-topic-delta": 1}
        sub2 = agreement_subtree(small_tree, counts, 2)
        assert "G/A/U1/t-topic-alpha" in sub2
        assert "G/B/U3/t-topic-delta" not in sub2

    def test_threshold_one_keeps_all_counted(self, small_tree):
        counts = {"G/A/U1/t-topic-alpha": 1, "G/B/U3/t-topic-delta": 1}
        sub = agreement_subtree(small_tree, counts, 1)
        assert {"G/A/U1/t-topic-alpha", "G/B/U3/t-topic-delta"} <= set(sub.node_ids())

    def test_unknown_tags_ignored(self, small_tree):
        sub = agreement_subtree(small_tree, {"not-a-node": 10}, 1)
        assert set(sub.node_ids()) == {"G"}

    def test_rejects_bad_threshold(self, small_tree):
        with pytest.raises(ValueError):
            agreement_subtree(small_tree, {}, 0)

    def test_monotone_in_threshold(self, small_tree):
        counts = {t.id: i + 1 for i, t in enumerate(small_tree.tags())}
        prev = None
        for thr in (1, 2, 3, 4):
            sub = set(agreement_subtree(small_tree, counts, thr).node_ids())
            if prev is not None:
                assert sub <= prev
            prev = sub


class TestCommonAncestor:
    def test_same_unit(self, small_tree):
        lca = common_ancestor(
            small_tree, ["G/A/U1/t-topic-alpha", "G/A/U1/t-topic-beta"]
        )
        assert lca.id == "G/A/U1"

    def test_cross_area_is_root(self, small_tree):
        lca = common_ancestor(
            small_tree, ["G/A/U1/t-topic-alpha", "G/B/U3/t-topic-delta"]
        )
        assert lca.id == "G"

    def test_single_node_is_itself(self, small_tree):
        assert common_ancestor(small_tree, ["G/A/U1"]).id == "G/A/U1"

    def test_empty_rejected(self, small_tree):
        with pytest.raises(ValueError):
            common_ancestor(small_tree, [])
