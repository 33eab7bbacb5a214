"""The guideline tree container.

``GuidelineTree`` is an immutable-after-construction rooted tree of
:class:`~repro.ontology.node.OntologyNode`.  It stores parent/child adjacency
explicitly (rather than deriving it from id paths) so that subtree filters
can relabel structure without string surgery.  Immutability lets a tree
memoize what it derives from itself: its digest, its preorder tags, its
node-id set and the node → knowledge-area index.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Iterator

from repro.ontology.node import NodeKind, OntologyNode
from repro.util.digest import canonical_digest


class GuidelineTree:
    """A rooted tree of guideline entries with query helpers.

    Use :class:`~repro.ontology.builder.TreeBuilder` to construct trees
    incrementally; the constructor here takes fully-formed adjacency.
    """

    def __init__(
        self,
        nodes: dict[str, OntologyNode],
        children: dict[str, tuple[str, ...]],
        root_id: str,
    ) -> None:
        if root_id not in nodes:
            raise ValueError(f"root id {root_id!r} not among nodes")
        self._nodes = dict(nodes)
        self._children = {nid: tuple(children.get(nid, ())) for nid in nodes}
        self._root_id = root_id
        self._parent: dict[str, str | None] = {root_id: None}
        for pid, kids in self._children.items():
            for kid in kids:
                if kid not in self._nodes:
                    raise ValueError(f"child {kid!r} of {pid!r} is not a node")
                if kid in self._parent:
                    raise ValueError(f"node {kid!r} has multiple parents")
                self._parent[kid] = pid
        orphans = set(self._nodes) - set(self._parent)
        if orphans:
            raise ValueError(f"nodes unreachable from root: {sorted(orphans)[:5]}")
        self._depth: dict[str, int] = {}
        for nid in self.iter_preorder_ids():
            parent = self._parent[nid]
            self._depth[nid] = 0 if parent is None else self._depth[parent] + 1

    # -- basic accessors ---------------------------------------------------

    @property
    def root(self) -> OntologyNode:
        """The root node (the guideline document itself)."""
        return self._nodes[self._root_id]

    @property
    def root_id(self) -> str:
        return self._root_id

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    @cached_property
    def _node_set(self) -> frozenset[str]:
        return frozenset(self._nodes)

    def members(self, ids: Iterable[str]) -> frozenset[str]:
        """The ids among ``ids`` that name a node of this tree.

        One set intersection with the memoized node-id set: the bulk form
        of ``id in tree``, with no per-id Python call.
        """
        return self._node_set.intersection(ids)

    def __getitem__(self, node_id: str) -> OntologyNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyError(f"no node {node_id!r} in guideline tree") from None

    def get(self, node_id: str) -> OntologyNode | None:
        """Node by id, or ``None`` when absent."""
        return self._nodes.get(node_id)

    def node_ids(self) -> list[str]:
        """All node ids in preorder."""
        return list(self.iter_preorder_ids())

    def children(self, node_id: str) -> tuple[OntologyNode, ...]:
        """Direct children of ``node_id`` in insertion order."""
        return tuple(self._nodes[c] for c in self._children[node_id])

    def child_ids(self, node_id: str) -> tuple[str, ...]:
        return self._children[node_id]

    def parent(self, node_id: str) -> OntologyNode | None:
        """Parent node, or ``None`` for the root."""
        pid = self._parent[node_id]
        return None if pid is None else self._nodes[pid]

    def parent_id(self, node_id: str) -> str | None:
        return self._parent[node_id]

    def depth(self, node_id: str) -> int:
        """Distance from the root (root has depth 0)."""
        return self._depth[node_id]

    def height(self) -> int:
        """Maximum depth over all nodes."""
        return max(self._depth.values()) if self._depth else 0

    # -- traversals --------------------------------------------------------

    def iter_preorder_ids(self) -> Iterator[str]:
        """Depth-first preorder over node ids."""
        stack = [self._root_id]
        while stack:
            nid = stack.pop()
            yield nid
            stack.extend(reversed(self._children[nid]))

    def iter_preorder(self) -> Iterator[OntologyNode]:
        for nid in self.iter_preorder_ids():
            yield self._nodes[nid]

    def iter_level_ids(self, level: int) -> Iterator[str]:
        """All node ids at exactly ``level`` (root = 0)."""
        for nid, d in self._depth.items():
            if d == level:
                yield nid

    def level_sizes(self) -> list[int]:
        """Number of nodes at each depth, indexed by depth."""
        sizes = [0] * (self.height() + 1)
        for d in self._depth.values():
            sizes[d] += 1
        return sizes

    # -- structural queries --------------------------------------------------

    def ancestors(self, node_id: str) -> list[OntologyNode]:
        """Ancestors from parent up to (and including) the root."""
        out: list[OntologyNode] = []
        pid = self._parent[node_id]
        while pid is not None:
            out.append(self._nodes[pid])
            pid = self._parent[pid]
        return out

    def descendant_ids(self, node_id: str) -> list[str]:
        """Ids of all strict descendants of ``node_id`` (preorder)."""
        out: list[str] = []
        stack = list(reversed(self._children[node_id]))
        while stack:
            nid = stack.pop()
            out.append(nid)
            stack.extend(reversed(self._children[nid]))
        return out

    def leaves(self) -> list[OntologyNode]:
        """All leaf nodes (no children), preorder."""
        return [self._nodes[nid] for nid in self.iter_preorder_ids() if not self._children[nid]]

    @cached_property
    def _tags(self) -> tuple[OntologyNode, ...]:
        return tuple(n for n in self.iter_preorder() if n.is_tag)

    def tags(self) -> list[OntologyNode]:
        """All classifiable tags (topics and outcomes), preorder.

        This is the column universe of the paper's course x curriculum
        matrix ``A``.
        """
        return list(self._tags)

    def tag_ids(self) -> list[str]:
        return [n.id for n in self._tags]

    @cached_property
    def _area_index(self) -> dict[str, OntologyNode | None]:
        index: dict[str, OntologyNode | None] = {}
        for node in self.iter_preorder():  # parents before children
            if node.kind is NodeKind.AREA:
                index[node.id] = node
            else:
                pid = self._parent[node.id]
                index[node.id] = None if pid is None else index[pid]
        return index

    def area_of(self, node_id: str) -> OntologyNode | None:
        """The knowledge area containing ``node_id`` (or the node itself if
        an area); ``None`` for the root or for trees without AREA nodes."""
        if node_id not in self._nodes:
            raise KeyError(f"no node {node_id!r} in guideline tree")
        return self._area_index[node_id]

    @cached_property
    def digest(self) -> str:
        """Canonical-JSON content digest, computed once per tree."""
        from repro.ontology.serialize import tree_to_dict  # imports this module

        return canonical_digest(tree_to_dict(self))

    def areas(self) -> list[OntologyNode]:
        """Knowledge areas (direct children of the root with AREA kind)."""
        return [n for n in self.children(self._root_id) if n.kind is NodeKind.AREA]

    def find_by_label(self, label: str) -> list[OntologyNode]:
        """All nodes whose label matches ``label`` exactly (case-insensitive)."""
        needle = label.casefold()
        return [n for n in self.iter_preorder() if n.label.casefold() == needle]

    def filter(self, keep: Callable[[OntologyNode], bool]) -> "GuidelineTree":
        """Subtree containing nodes satisfying ``keep`` plus their ancestors.

        The root is always retained.  This implements the paper's
        *hit-tree*: the subset of the classification tree touched by a set
        of materials, with the connecting structure preserved.
        """
        keep_ids = {self._root_id}
        for node in self.iter_preorder():
            if keep(node):
                keep_ids.add(node.id)
                pid = self._parent[node.id]
                while pid is not None and pid not in keep_ids:
                    keep_ids.add(pid)
                    pid = self._parent[pid]
        nodes = {nid: self._nodes[nid] for nid in keep_ids}
        children = {
            nid: tuple(c for c in self._children[nid] if c in keep_ids) for nid in keep_ids
        }
        return GuidelineTree(nodes, children, self._root_id)

    def subtree(self, node_id: str) -> "GuidelineTree":
        """A new tree rooted at ``node_id`` (copying that node's descendants)."""
        ids = [node_id, *self.descendant_ids(node_id)]
        nodes = {nid: self._nodes[nid] for nid in ids}
        children = {nid: self._children[nid] for nid in ids}
        return GuidelineTree(nodes, children, node_id)

    def validate(self) -> None:
        """Check structural invariants; raise ``ValueError`` on violation.

        Invariants: kinds nest properly (area under root, unit under area,
        tags under units), and tag ids are unique (guaranteed by dict keys
        but re-checked here for serialization round-trips).
        """
        allowed_parent = {
            NodeKind.AREA: {NodeKind.ROOT},
            NodeKind.UNIT: {NodeKind.AREA, NodeKind.UNIT},
            NodeKind.TOPIC: {NodeKind.UNIT, NodeKind.TOPIC, NodeKind.AREA},
            NodeKind.OUTCOME: {NodeKind.UNIT, NodeKind.TOPIC},
        }
        for node in self.iter_preorder():
            if node.id == self._root_id:
                continue
            parent = self.parent(node.id)
            assert parent is not None
            allowed = allowed_parent.get(node.kind)
            if allowed is not None and parent.kind not in allowed:
                raise ValueError(
                    f"node {node.id!r} of kind {node.kind.value} cannot sit "
                    f"under {parent.id!r} of kind {parent.kind.value}"
                )
