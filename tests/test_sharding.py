"""Shard/flat bit-equivalence suite (PR 7).

The contract of :mod:`repro.materials.sharding` is exact: every query
answered by :class:`ShardedMaterialRepository` — ``search``,
``search_many``, ``find_similar``, ``similarity_matrix``, ``stats`` —
must be **bit-identical** to a flat :class:`MaterialRepository` fed the
same corpus in the same order, for any shard count.  These tests drive
both over a ~2k-material synthetic corpus at 1/2/8 shards, and check
that ingestion accounting (retained/excluded split, exclusion reasons)
is preserved both for direct ``ingest`` and for chunked streaming via
:func:`repro.corpus.stream.ingest_stream` at any chunk size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.corpus.stream import StreamIngestReport, generate_stream, ingest_stream
from repro.io.json_io import course_to_dict
from repro.materials import (
    MaterialRepository,
    SearchQuery,
    ShardedMaterialRepository,
    shard_of,
)
from repro.materials.course import Course
from repro.materials.material import Material, MaterialType
from repro.runtime.metrics import metrics


@pytest.fixture(scope="module")
def corpus2k(cs2013):
    """~2k materials streamed from the scaled generator."""
    return list(generate_stream(cs2013, seed=11, n_materials=2000))


def _fill(repo, courses):
    for c in courses:
        repo.add_course(c)
    return repo


def _pair(courses, n_shards):
    flat = _fill(MaterialRepository(), courses)
    sharded = _fill(ShardedMaterialRepository(n_shards), courses)
    return flat, sharded


def _key(hits):
    return [(h.material.id, h.score) for h in hits]


def _queries(cs2013, seed=29):
    rng = np.random.default_rng(seed)
    tag_ids = cs2013.tag_ids()
    out = [SearchQuery()]
    for k in (1, 2, 4):
        for _ in range(5):
            out.append(SearchQuery(
                tags=frozenset(rng.choice(tag_ids, size=k, replace=False).tolist())
            ))
    out.append(SearchQuery(text="lecture"))
    out.append(SearchQuery(text="zzz-no-such-material"))
    out.append(SearchQuery(tags=frozenset({tag_ids[0]}), text="lab"))
    return out


class TestShardOf:
    def test_stable_and_order_independent(self):
        assert shard_of("mat-1", 8) == shard_of("mat-1", 8)
        assert 0 <= shard_of("anything", 5) < 5
        assert shard_of("x", 1) == 0

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            shard_of("m", 0)
        with pytest.raises(ValueError, match=">= 1"):
            ShardedMaterialRepository(0)

    def test_partition_is_total(self, corpus2k):
        sharded = _fill(ShardedMaterialRepository(8), corpus2k)
        assert sum(sharded.shard_sizes()) == sharded.n_materials
        # sha256 spreads ids: no shard owns everything at 2k materials.
        assert max(sharded.shard_sizes()) < sharded.n_materials


class TestQueryEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 8])
    def test_search_grid(self, corpus2k, cs2013, n_shards):
        flat, sharded = _pair(corpus2k, n_shards)
        for q in _queries(cs2013):
            for limit in (None, 0, 5):
                assert _key(sharded.search(q, tree=cs2013, limit=limit)) == \
                    _key(flat.search(q, tree=cs2013, limit=limit)), (q, limit)

    @pytest.mark.parametrize("n_shards", [1, 2, 8])
    def test_search_many(self, corpus2k, cs2013, n_shards):
        flat, sharded = _pair(corpus2k, n_shards)
        qs = _queries(cs2013, seed=31)
        got = sharded.search_many(qs, tree=cs2013, limit=7)
        want = flat.search_many(qs, tree=cs2013, limit=7)
        assert [_key(h) for h in got] == [_key(h) for h in want]
        assert sharded.search_many([], tree=cs2013) == []

    @pytest.mark.parametrize("n_shards", [1, 2, 8])
    def test_find_similar(self, corpus2k, n_shards):
        flat, sharded = _pair(corpus2k, n_shards)
        rng = np.random.default_rng(5)
        ids = [m.id for m in flat.materials()]
        for mid in rng.choice(ids, size=12, replace=False).tolist():
            for limit in (1, 10):
                assert _key(sharded.find_similar(mid, limit=limit)) == \
                    _key(flat.find_similar(mid, limit=limit)), mid

    @pytest.mark.parametrize("n_shards", [2, 8])
    def test_similarity_matrix_and_stats(self, corpus2k, n_shards):
        flat, sharded = _pair(corpus2k, n_shards)
        for metric in ("jaccard", "cosine"):
            assert np.array_equal(
                sharded.similarity_matrix(metric=metric),
                flat.similarity_matrix(metric=metric),
            )
        assert sharded.stats() == flat.stats()
        assert [m.id for m in sharded.materials()] == [
            m.id for m in flat.materials()
        ]

    def test_mutation_after_query_is_visible(self, corpus2k, cs2013):
        flat, sharded = _pair(corpus2k[:40], 3)
        tag = cs2013.tag_ids()[0]
        q = SearchQuery(tags=frozenset({tag}))
        sharded.search(q, tree=cs2013)  # build every shard's index first
        new = Material(
            id="fresh-mat", title="freshly placed",
            mtype=MaterialType.LAB, mappings=frozenset({tag}),
        )
        flat.add_material(new)
        sharded.add_material(new)
        got = _key(sharded.search(q, tree=cs2013))
        assert got == _key(flat.search(q, tree=cs2013))
        assert "fresh-mat" in [mat_id for mat_id, _ in got]
        assert _key(sharded.find_similar("fresh-mat", limit=5)) == \
            _key(flat.find_similar("fresh-mat", limit=5))

    def test_validation_mirrors_flat(self, corpus2k):
        _, sharded = _pair(corpus2k[:3], 4)
        with pytest.raises(ValueError, match=">= 0"):
            sharded.search(SearchQuery(), limit=-1)
        with pytest.raises(ValueError, match=">= 1"):
            sharded.find_similar(corpus2k[0].materials[0].id, limit=0)
        with pytest.raises(KeyError, match="no material"):
            sharded.material("nope")
        with pytest.raises(KeyError, match="no course"):
            sharded.course("nope")


def _dirty_roster(courses):
    """Clean courses plus a duplicate course id and a conflicting material."""
    clean = list(courses[:40])
    dup = Course(clean[0].id, "Duplicate id", materials=[
        Material("dup-m", "Dup", MaterialType.LAB, frozenset()),
    ])
    existing = clean[1].materials[0]
    conflict = Course("conflict-course", "Conflict", materials=[
        Material(existing.id, existing.title + " (edited)", existing.mtype,
                 existing.mappings),
    ])
    return clean + [dup, conflict]


class TestIngestAccounting:
    def test_flat_and_sharded_agree(self, corpus2k):
        roster = _dirty_roster(corpus2k)
        flat_report = MaterialRepository().ingest(roster)
        shard_report = ShardedMaterialRepository(8).ingest(roster)
        assert [c.id for c in shard_report.retained] == [
            c.id for c in flat_report.retained
        ]
        assert [(e.course_id, e.reason) for e in shard_report.excluded] == [
            (e.course_id, e.reason) for e in flat_report.excluded
        ]
        assert shard_report.reasons == {
            "duplicate-course-id": 1,
            "conflicting-material-id": 1,
        }

    def test_strict_raises_and_commits_nothing_extra(self, corpus2k):
        roster = _dirty_roster(corpus2k)
        sharded = ShardedMaterialRepository(4)
        with pytest.raises(ValueError, match="malformed"):
            sharded.ingest(roster, strict=True)
        # Clean prefix is retained; the rejected courses left no trace.
        assert sharded.n_courses == 40
        assert "dup-m" not in {m.id for m in sharded.materials()}


class TestChunkedStreaming:
    @pytest.mark.parametrize("chunk_size", [1, 7, 100])
    def test_accounting_chunk_size_invariant(self, corpus2k, chunk_size):
        records = [course_to_dict(c) for c in corpus2k[:60]]
        records.insert(10, {"title": "no id here"})
        records.insert(30, records[0])  # duplicate course id
        baseline = ingest_stream(
            MaterialRepository(), records, chunk_size=len(records)
        )
        metrics.reset()
        repo = ShardedMaterialRepository(4)
        report = ingest_stream(repo, records, chunk_size=chunk_size)
        assert isinstance(report, StreamIngestReport)
        assert report.retained_ids == baseline.retained_ids
        assert report.reasons == baseline.reasons
        assert report.reasons == {"missing-id": 1, "duplicate-course-id": 1}
        assert report.n_seen == len(records)
        assert len(report.chunks) == -(-len(records) // chunk_size)
        assert metrics.get("corpus.stream.chunks") == len(report.chunks)
        assert repo.n_courses == report.n_retained
        # Chunk ledger sums to the global split.
        assert sum(c["retained"] for c in report.chunks) == report.n_retained
        assert sum(c["excluded"] for c in report.chunks) == report.n_excluded

    def test_strict_mode_raises_after_accounting(self, corpus2k):
        records = [course_to_dict(c) for c in corpus2k[:5]] + [{"title": "bad"}]
        with pytest.raises(ValueError, match="malformed"):
            ingest_stream(
                ShardedMaterialRepository(2), records, chunk_size=2,
                strict=True,
            )
