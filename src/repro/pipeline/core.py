"""Content-addressed pipeline DAG: declare, key, execute, memoize.

The engine behind incremental analysis (ROADMAP item 4).  A
:class:`Pipeline` is a named DAG of :class:`PipelineNode`\\ s; each node's
cache key is a SHA-256 over

* the node *name* and a pipeline format version,
* its **params** — canonical digests of every out-of-graph input the node
  reads (course digests, the guideline-tree digest, config fields), and
* the **output digests of its dependencies** (not their keys).

Keying on dependency *outputs* rather than dependency *keys* gives the
early-cutoff property of Bazel/salsa-style build systems: when an input
change forces a node to recompute but the recomputed value is bit-identical
(e.g. a course gains a material whose tags it already covered, so the
course matrix is unchanged), every node downstream still hits the cache.
Recomputation stops at the first node whose *value* actually changed.

Execution walks the nodes in registration order, which is topological
because :meth:`Pipeline.add` rejects a dependency not yet registered.
Each cache miss runs inline in the calling process; an exception a node
function raises propagates unchanged.  Results are memoized in the
checksummed :class:`repro.runtime.cache.ResultCache` (memory LRU +
optional on-disk ``.npz`` layer), values traveling as pickled byte
arrays, so warm re-runs replay across process restarts too.

The DAG itself is a :class:`repro.taskgraph.dag.TaskGraph` (the previously
benchmark-only subsystem now drives real work): :meth:`Pipeline.to_taskgraph`
exposes it for work/span/parallelism analysis and scheduling experiments.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.runtime.cache import ResultCache, result_cache
from repro.runtime.metrics import metrics
from repro.taskgraph.dag import TaskGraph
from repro.util.digest import canonical_digest

#: Pipeline cache-format version; bump to invalidate every memoized node.
#: 2: course digests hash the header plus memoized material digests.
PIPELINE_FORMAT = 2

#: Folds structured inputs (course digests, config mappings, label
#: assignments) into node params.
params_digest = canonical_digest

#: Pickle protocol pinned so value digests are stable across interpreters.
_PICKLE_PROTOCOL = 4


def value_digest(raw: bytes) -> str:
    """SHA-256 hex digest of a node's serialized output value."""
    return hashlib.sha256(raw).hexdigest()


@dataclass(frozen=True)
class PipelineNode:
    """One unit of the analysis DAG.

    ``fn`` receives a mapping ``dep name -> dep value`` and returns the
    node's value; it must be deterministic, and the value picklable (it
    is pickled for its digest and the cache).  ``params`` is a flat
    mapping of scalar/str values — digests for anything structured —
    covering every out-of-graph input the function reads.  ``weight`` is
    a cost estimate feeding the :class:`TaskGraph` work/span analysis.
    """

    name: str
    fn: Callable[[Mapping[str, Any]], Any]
    deps: tuple[str, ...] = ()
    params: tuple[tuple[str, str], ...] = ()
    weight: float = 1.0

    def key(self, dep_digests: Mapping[str, str]) -> str:
        """Content-addressed cache key given dependency output digests."""
        h = hashlib.sha256()
        h.update(f"pipeline:v{PIPELINE_FORMAT}:{self.name}".encode())
        for name, val in self.params:
            h.update(f"|{name}={val}".encode())
        for dep in sorted(self.deps):
            h.update(f"|dep:{dep}={dep_digests[dep]}".encode())
        return h.hexdigest()


def _freeze_params(params: Mapping[str, Any] | None) -> tuple[tuple[str, str], ...]:
    """Normalize a params mapping to a sorted tuple of string pairs."""
    if not params:
        return ()
    out = []
    for name in sorted(params):
        val = params[name]
        out.append((name, f"{type(val).__name__}:{val!r}"))
    return tuple(out)


@dataclass(frozen=True)
class NodeRecord:
    """How one node resolved during a run.

    ``seconds`` is the replay time (cache read, unpickle, digest) of a
    hit and the node function's run time of a computed node.
    """

    name: str
    key: str
    digest: str
    status: str  # "hit" | "computed"
    seconds: float


@dataclass
class PipelineRun:
    """Values and cache accounting of one :meth:`Pipeline.run`."""

    values: dict[str, Any]
    records: dict[str, NodeRecord]
    order: tuple[str, ...] = ()

    @property
    def n_hits(self) -> int:
        return sum(1 for r in self.records.values() if r.status == "hit")

    @property
    def n_computed(self) -> int:
        return sum(1 for r in self.records.values() if r.status == "computed")

    def value(self, name: str) -> Any:
        return self.values[name]

    def computed_nodes(self) -> list[str]:
        """Names of nodes that actually ran, in execution order."""
        return [n for n in self.order if self.records[n].status == "computed"]

    def hit_nodes(self) -> list[str]:
        """Names of nodes replayed from cache, in execution order."""
        return [n for n in self.order if self.records[n].status == "hit"]

    def explain(self) -> str:
        """Human-readable per-node table: status and seconds, plus the total."""
        total_ms = sum(r.seconds for r in self.records.values()) * 1e3
        lines = [f"{len(self.records)} nodes: "
                 f"{self.n_hits} cached, {self.n_computed} computed, "
                 f"{total_ms:.1f} ms"]
        for name in self.order:
            rec = self.records[name]
            lines.append(
                f"  [{rec.status:>8}] {rec.seconds * 1e3:9.2f} ms  {name}"
            )
        return "\n".join(lines)


class Pipeline:
    """A named DAG of content-addressed analysis nodes."""

    def __init__(self) -> None:
        self._nodes: dict[str, PipelineNode] = {}

    def add(
        self,
        name: str,
        fn: Callable[[Mapping[str, Any]], Any],
        *,
        deps: Sequence[str] = (),
        params: Mapping[str, Any] | None = None,
        weight: float = 1.0,
    ) -> str:
        """Register a node; dependencies must already be registered."""
        if name in self._nodes:
            raise ValueError(f"duplicate pipeline node {name!r}")
        for dep in deps:
            if dep not in self._nodes:
                raise ValueError(
                    f"node {name!r} depends on unregistered node {dep!r}"
                )
        if weight <= 0:
            raise ValueError(f"node {name!r} weight must be > 0, got {weight}")
        self._nodes[name] = PipelineNode(
            name=name,
            fn=fn,
            deps=tuple(deps),
            params=_freeze_params(params),
            weight=float(weight),
        )
        return name

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def node(self, name: str) -> PipelineNode:
        return self._nodes[name]

    def names(self) -> list[str]:
        return list(self._nodes)

    def to_taskgraph(self) -> TaskGraph:
        """The pipeline as a weighted :class:`TaskGraph`.

        Real analysis work finally drives the taskgraph subsystem: the
        returned graph supports the full work/span/parallelism and
        list-scheduling toolbox (registration order already prevents
        cycles; construction re-validates acyclicity anyway).
        """
        weights = {n.name: n.weight for n in self._nodes.values()}
        edges = [
            (dep, n.name) for n in self._nodes.values() for dep in n.deps
        ]
        return TaskGraph.from_edges(weights, edges)

    def run(
        self,
        *,
        cache: ResultCache | None = None,
        use_cache: bool = True,
    ) -> PipelineRun:
        """Execute the DAG, replaying memoized nodes and computing the rest.

        Nodes run in registration order; ``cache`` overrides the
        process-global :data:`repro.runtime.cache.result_cache`;
        ``use_cache=False`` recomputes every node without reading or
        writing memoized values.
        """
        store = cache if cache is not None else result_cache
        values: dict[str, Any] = {}
        digests: dict[str, str] = {}
        records: dict[str, NodeRecord] = {}
        metrics.inc("pipeline.runs")
        with metrics.timer("pipeline.run"):
            for name, node in self._nodes.items():
                t0 = time.perf_counter()
                key = node.key(digests)
                hit = store.get(key) if use_cache else None
                if hit is not None:
                    raw = hit["value"].tobytes()
                    values[name] = pickle.loads(raw)
                    digests[name] = value_digest(raw)
                    records[name] = NodeRecord(
                        name, key, digests[name], "hit",
                        time.perf_counter() - t0,
                    )
                    metrics.inc("pipeline.node_hit")
                    continue
                t0 = time.perf_counter()
                out = node.fn({d: values[d] for d in node.deps})
                seconds = time.perf_counter() - t0
                raw = pickle.dumps(out, protocol=_PICKLE_PROTOCOL)
                values[name] = out
                digests[name] = value_digest(raw)
                records[name] = NodeRecord(
                    name, key, digests[name], "computed", seconds
                )
                metrics.inc("pipeline.node_computed")
                if use_cache:
                    store.put(
                        key, {"value": np.frombuffer(raw, dtype=np.uint8)}
                    )
        return PipelineRun(values=values, records=records, order=tuple(values))
