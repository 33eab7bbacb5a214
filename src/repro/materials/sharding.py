"""Hash-partitioned material shards with a merge/fan-out query planner.

The flat :class:`~repro.materials.repository.MaterialRepository` holds the
whole corpus in one index.  At the six-figure corpus sizes the roadmap
targets, one index means one giant incidence matrix, one posting-list
namespace, and zero query parallelism.  :class:`ShardedMaterialRepository`
splits the corpus into ``n_shards`` flat repositories, assigning each
material to ``sha256(material_id) % n_shards`` — a stable, data-independent
partition, so the same corpus always shards the same way regardless of
ingestion order.

Every query loops over the shards in the calling process and merges
exactly; this is how the analysis service answers ``/search`` and
``/similar``.  The merge:

* the per-hit *scores* are pure functions of (material, query) — Jaccard
  over exact integer set sizes — so a shard computes bit-identical floats
  to the flat repository;
* the ranking key ``(-score, title, id)`` is a **total order** (ids are
  unique), so the global top-k restricted to one shard is a prefix of that
  shard's own ranking.  Gathering each shard's top-k and re-sorting the
  union by the same key therefore reproduces the flat top-k bit for bit —
  no tie re-admission needed at the merge.

Courses are *not* sharded: a course is metadata over material ids and
lives in one dict, while its materials scatter across shards.  Ingestion
mirrors the flat repository's validate-then-commit accounting exactly
(same exclusion reasons, same ``repo.ingest.*`` metrics), so the paper's
retained/excluded split is preserved under sharding.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.materials.course import Course
from repro.materials.ingest import (
    REASON_CONFLICTING_MATERIAL,
    REASON_DUPLICATE_COURSE,
    ExcludedRecord,
    IngestReport,
)
from repro.materials.material import Material
from repro.materials.repository import (
    MaterialRepository,
    SearchQuery,
    SearchResult,
)
from repro.materials.similarity import similarity_matrix
from repro.ontology.tree import GuidelineTree
from repro.runtime.metrics import metrics


def shard_of(material_id: str, n_shards: int) -> int:
    """Stable shard assignment: first 8 sha256 bytes of the id, mod shards.

    Deterministic across processes and Python versions (unlike ``hash``,
    which is salted), and independent of insertion order.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    digest = hashlib.sha256(material_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


# -- per-shard queries -------------------------------------------------------


def _shard_similar(
    repo: MaterialRepository, tags: frozenset[str], exclude_id: str, k: int
) -> list[SearchResult]:
    """One shard's top-``k`` Jaccard neighbours of ``tags``.

    ``exclude_id`` (the reference material) is left out when this shard
    holds it.
    """
    index = repo.index
    if not len(index):
        return []
    inc = index.incidence()
    q = index.query_vector(tags)
    inter = inc.x @ q
    # |ref.mappings| enters as the exact integer len(tags): tags absent from
    # this shard's universe contribute no intersection but still count in
    # the union, exactly as in the flat repository's find_similar.
    union = inc.sizes + float(len(tags)) - inter
    scores = np.where(union > 0, inter / np.maximum(union, 1.0), 1.0)
    rows = np.arange(len(inc.sizes), dtype=np.intp)
    try:
        ref_row = index.row_of(exclude_id)
    except KeyError:
        pass  # reference material lives in another shard
    else:
        rows = np.delete(rows, ref_row)
    k = min(k, len(rows))
    best = index.top_k(scores[rows], rows, k) if k else []
    return [
        SearchResult(index.material_at(r), float(scores[r])) for r in best
    ]


def _merge_ranked(
    per_shard: Iterable[list[SearchResult]], limit: int | None
) -> list[SearchResult]:
    """Exact global re-rank of per-shard top-k lists (see module docstring)."""
    merged = [hit for hits in per_shard for hit in hits]
    merged.sort(key=lambda r: (-r.score, r.material.title, r.material.id))
    return merged[:limit] if limit is not None else merged


class ShardedMaterialRepository:
    """``n_shards`` flat repositories behind the flat repository's API.

    Drop-in for :class:`MaterialRepository` on the read and ingest paths
    (``add_material`` / ``add_course`` / ``ingest`` / ``search`` /
    ``search_many`` / ``find_similar`` / ``similarity_matrix`` / ``stats``),
    with results bit-identical to a flat repository fed the same corpus in
    the same order.  Queries run the shards one after another in the
    calling process.
    """

    def __init__(self, n_shards: int = 4) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self._n_shards = n_shards
        self._shards = [MaterialRepository() for _ in range(n_shards)]
        self._courses: dict[str, Course] = {}
        self._material_shard: dict[str, int] = {}
        self._order: list[str] = []  # material ids in global insertion order

    @classmethod
    def from_parts(
        cls,
        shards: Sequence[MaterialRepository],
        courses: Iterable[Course],
        order: Sequence[str],
    ) -> "ShardedMaterialRepository":
        """Reassemble a repository from persisted parts.

        Used by :mod:`repro.materials.persist` on warm restart: ``shards``
        are the per-shard repositories (loaded or rebuilt), ``courses``
        the retained courses in their original ingest order, ``order``
        the global material insertion order from the manifest — together
        they restore a repository bit-identical to the one saved.
        """
        repo = cls(n_shards=len(shards))
        repo._shards = list(shards)
        repo._courses = {course.id: course for course in courses}
        repo._material_shard = {
            mid: shard_of(mid, len(shards)) for mid in order
        }
        repo._order = list(order)
        return repo

    # -- layout ---------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self._n_shards

    @property
    def shards(self) -> tuple[MaterialRepository, ...]:
        """The underlying flat repositories (read-only use)."""
        return tuple(self._shards)

    def shard_sizes(self) -> list[int]:
        """Materials per shard — the balance of the hash partition."""
        return [shard.n_materials for shard in self._shards]

    # -- ingestion -------------------------------------------------------------

    def add_material(self, material: Material) -> None:
        if material.id in self._material_shard:
            raise ValueError(f"material id {material.id!r} already in repository")
        self._place_material(material)

    def _place_material(self, material: Material) -> None:
        s = shard_of(material.id, self._n_shards)
        self._shards[s].add_material(material)
        self._material_shard[material.id] = s
        self._order.append(material.id)

    def add_course(self, course: Course) -> None:
        """Register ``course``; its materials scatter to their hash shards.

        Same validate-then-commit contract (and error messages) as the flat
        repository: a rejected course leaves every shard untouched.
        """
        self._validate_course(course)
        self._commit_course(course)

    def _validate_course(self, course: Course) -> None:
        if course.id in self._courses:
            raise ValueError(f"course id {course.id!r} already in repository")
        for m in course.materials:
            s = self._material_shard.get(m.id)
            if s is not None and self._shards[s].material(m.id) != m:
                raise ValueError(f"conflicting definitions for material id {m.id!r}")

    def _commit_course(self, course: Course) -> None:
        for m in course.materials:
            if m.id not in self._material_shard:
                self._place_material(m)
        self._courses[course.id] = course

    def ingest(
        self, courses: Iterable[Course], *, strict: bool = False
    ) -> IngestReport:
        """Quarantine-style bulk add; accounting identical to the flat repo."""
        report = IngestReport()
        for course in courses:
            try:
                self._validate_course(course)
            except ValueError as exc:
                reason = (
                    REASON_DUPLICATE_COURSE
                    if course.id in self._courses
                    else REASON_CONFLICTING_MATERIAL
                )
                report.excluded.append(
                    ExcludedRecord(course.id, reason, detail=str(exc))
                )
                metrics.inc("repo.ingest.excluded")
                continue
            self._commit_course(course)
            report.retained.append(course)
            metrics.inc("repo.ingest.retained")
        if strict:
            report.raise_if_excluded()
        return report

    # -- access ----------------------------------------------------------------

    def material(self, material_id: str) -> Material:
        s = self._material_shard.get(material_id)
        if s is None:
            raise KeyError(f"no material {material_id!r}")
        return self._shards[s].material(material_id)

    def course(self, course_id: str) -> Course:
        try:
            return self._courses[course_id]
        except KeyError:
            raise KeyError(f"no course {course_id!r}") from None

    def materials(self) -> Iterator[Material]:
        """All materials in global insertion order (matches a flat repo)."""
        for material_id in self._order:
            yield self.material(material_id)

    def courses(self) -> Iterator[Course]:
        yield from self._courses.values()

    @property
    def n_materials(self) -> int:
        return len(self._material_shard)

    @property
    def n_courses(self) -> int:
        return len(self._courses)

    def stats(self) -> dict[str, dict[str, int]]:
        """Composition counts summed over shards (flat-equal up to key order)."""
        out: dict[str, dict[str, int]] = {
            "by_type": {},
            "by_level": {},
            "by_language": {},
        }
        for shard in self._shards:
            for table, counts in shard.stats().items():
                agg = out[table]
                for key, n in counts.items():
                    agg[key] = agg.get(key, 0) + n
        return out

    # -- queries ---------------------------------------------------------------

    def search(
        self,
        query: SearchQuery,
        *,
        tree: GuidelineTree | None = None,
        limit: int | None = None,
    ) -> list[SearchResult]:
        """Fan out :meth:`MaterialRepository.search`, merge exactly."""
        MaterialRepository._validate_limit(limit)
        MaterialRepository._validate_level_filters(query, tree)
        with metrics.timer("shard.search"):
            metrics.inc("shard.search.queries")
            return _merge_ranked(
                (
                    shard.search(query, tree=tree, limit=limit)
                    for shard in self._shards
                ),
                limit,
            )

    def search_many(
        self,
        queries: Sequence[SearchQuery],
        *,
        tree: GuidelineTree | None = None,
        limit: int | None = None,
    ) -> list[list[SearchResult]]:
        """Batch fan-out: each shard scores all queries in one matmul."""
        MaterialRepository._validate_limit(limit)
        for query in queries:
            MaterialRepository._validate_level_filters(query, tree)
        if not queries:
            return []
        with metrics.timer("shard.search_many"):
            metrics.inc("shard.search_many.queries", len(queries))
            per_shard = [
                shard.search_many(queries, tree=tree, limit=limit)
                for shard in self._shards
            ]
            return [
                _merge_ranked([hits[qi] for hits in per_shard], limit)
                for qi in range(len(queries))
            ]

    def find_similar(
        self, material_id: str, *, limit: int = 10
    ) -> list[SearchResult]:
        """Jaccard neighbours of one material, ranked across all shards."""
        if limit < 1:
            raise ValueError(f"find_similar limit must be >= 1, got {limit}")
        ref = self.material(material_id)
        with metrics.timer("shard.find_similar"):
            metrics.inc("shard.find_similar.queries")
            return _merge_ranked(
                (
                    _shard_similar(shard, ref.mappings, material_id, limit)
                    for shard in self._shards
                ),
                limit,
            )

    def similarity_matrix(self, *, metric: str = "jaccard") -> np.ndarray:
        """Pairwise similarity over all materials in global insertion order.

        Materialized from the gathered materials (dense, O(n²)) — meant for
        paper-scale analyses, not the full sharded corpus.
        """
        with metrics.timer("shard.similarity_matrix"):
            return similarity_matrix(list(self.materials()), metric=metric)
