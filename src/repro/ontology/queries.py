"""Tree queries used by the paper's analyses and visualizations.

* ``reference_level`` — the radial hit-tree layout spaces nodes uniformly at
  the level with the most nodes (Section 3.1.1); this finds that level.
* ``agreement_subtree`` — the trees of Figures 4, 6 and 8: the subset of the
  guideline touched by tags that at least ``threshold`` courses share.
* ``area_of`` / ``tags_by_area`` — roll tags up to their knowledge area, the
  grouping used when interpreting NNMF ``H`` matrices.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

from repro.ontology.node import OntologyNode
from repro.ontology.tree import GuidelineTree


def reference_level(tree: GuidelineTree) -> int:
    """Depth with the most nodes (ties broken toward the shallower level)."""
    sizes = tree.level_sizes()
    return max(range(len(sizes)), key=lambda d: (sizes[d], -d))


def area_of(tree: GuidelineTree, node_id: str) -> OntologyNode | None:
    """The knowledge area containing ``node_id`` (or the node itself if an area).

    Returns ``None`` for the root or for trees without AREA nodes.  A
    lookup in the tree's memoized node → area index.
    """
    return tree.area_of(node_id)


def tags_by_area(tree: GuidelineTree, tag_ids: Iterable[str]) -> dict[str, list[str]]:
    """Group ``tag_ids`` by knowledge-area code; unknown/area-less → ``"?"``."""
    groups: dict[str, list[str]] = {}
    for tid in tag_ids:
        area = area_of(tree, tid)
        code = area.meta.get("code", area.short_id) if area is not None else "?"
        groups.setdefault(code, []).append(tid)
    return groups


def area_histogram(tree: GuidelineTree, tag_ids: Iterable[str]) -> Counter[str]:
    """Count tags per knowledge-area code."""
    counts: Counter[str] = Counter()
    for code, tids in tags_by_area(tree, tag_ids).items():
        counts[code] += len(tids)
    return counts


def agreement_subtree(
    tree: GuidelineTree,
    tag_counts: Mapping[str, int],
    threshold: int,
) -> GuidelineTree:
    """Hit-tree of tags appearing in at least ``threshold`` courses.

    ``tag_counts`` maps tag id → number of courses containing the tag (the
    quantity plotted in Figure 3).  The result keeps qualifying tags plus
    their ancestors, mirroring Figures 4/6/8.
    """
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    qualifying = {tid for tid, c in tag_counts.items() if c >= threshold and tid in tree}
    return tree.filter(lambda n: n.id in qualifying)


def common_ancestor(tree: GuidelineTree, node_ids: Iterable[str]) -> OntologyNode:
    """Lowest common ancestor of ``node_ids`` (the root when they diverge)."""
    ids = list(node_ids)
    if not ids:
        raise ValueError("need at least one node id")

    def path(nid: str) -> list[str]:
        chain = [a.id for a in tree.ancestors(nid)][::-1]
        chain.append(nid)
        return chain

    paths = [path(nid) for nid in ids]
    lca = tree.root_id
    for column in zip(*paths):
        if len(set(column)) == 1:
            lca = column[0]
        else:
            break
    return tree[lca]
