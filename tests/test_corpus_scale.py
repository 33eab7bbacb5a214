"""Corpus scale-out suite (PR 7): streaming, memmaps, out-of-core NMF.

Covers the bounded-memory paths that make six-figure corpora tractable:

* streamed generation is a pure re-chunking of the one-shot generator;
* the JSONL course format round-trips exactly and degrades tolerantly;
* memory-mapped arrays hash to the same cache digests as in-RAM copies,
  so the content-addressed NMF cache is storage-oblivious;
* the out-of-core solve is bit-identical to the in-memory engine
  (``run_nmf_fits``) under any blocking, and the incidence writers stage
  no dense copy of the matrix.
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from repro.corpus.generator import generate_corpus, synthetic_roster
from repro.corpus.stream import (
    generate_stream,
    iter_course_records,
    load_courses_jsonl,
    save_courses_jsonl,
)
from repro.factorization import (
    outofcore_nmf_fits,
    row_blocks,
    stream_incidence_memmap,
    write_incidence_memmap,
)
from repro.factorization.kernels import CSR_MIN_ELEMENTS
from repro.factorization.nmf import nmf_restart_specs
from repro.materials import MaterialRepository, ShardedMaterialRepository
from repro.materials.similarity import incidence_matrix
from repro.runtime import run_nmf_fits
from repro.runtime.cache import ResultCache, array_digest, matrix_digest
from repro.runtime.metrics import metrics
from tests.oracles import oracle_fits


def assert_bit_equal(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        for key in ("w", "h", "err", "n_iter", "converged"):
            assert np.array_equal(x[key], y[key]), key


def _traced_peak(writer, source, path):
    """The writer's memmap and the peak bytes it allocated meanwhile.

    The mapped file's pages are not allocations, so the peak counts
    what the writer holds besides them (a dense staging block would
    show here).
    """
    tracemalloc.start()
    try:
        out, _ = writer(source, path)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def stream_courses(cs2013):
    return list(generate_stream(cs2013, seed=7, n_courses=24, batch=5))


@pytest.fixture(scope="module")
def mb_courses(cs2013):
    """A corpus whose dense incidence takes several MB (1,506 × 670)."""
    return list(generate_stream(cs2013, seed=7, n_materials=1500))


class TestGenerateStream:
    def test_matches_one_shot_generator(self, cs2013, stream_courses):
        roster = synthetic_roster(24, seed=7)
        one_shot = generate_corpus(cs2013, seed=7, roster=roster)
        assert [c.id for c in stream_courses] == [c.id for c in one_shot]
        assert stream_courses == one_shot

    def test_batch_size_invariant(self, cs2013, stream_courses):
        rebatched = list(generate_stream(cs2013, seed=7, n_courses=24, batch=1))
        assert rebatched == stream_courses

    def test_material_cap_stops_after_crossing_course(self, cs2013):
        courses = list(generate_stream(cs2013, seed=3, n_materials=150))
        total = sum(len(c.materials) for c in courses)
        without_last = total - len(courses[-1].materials)
        assert total >= 150 and without_last < 150

    def test_exactly_one_cap_required(self, cs2013):
        with pytest.raises(ValueError, match="exactly one"):
            list(generate_stream(cs2013, seed=0))
        with pytest.raises(ValueError, match="exactly one"):
            list(generate_stream(cs2013, seed=0, n_courses=2, n_materials=9))


class TestCoursesJsonl:
    def test_round_trip_exact(self, tmp_path, stream_courses):
        path = tmp_path / "corpus.jsonl"
        n = save_courses_jsonl(stream_courses, path)
        assert n == len(stream_courses)
        assert load_courses_jsonl(path) == stream_courses

    def test_streamed_ingest_matches_strict_load(self, tmp_path, stream_courses):
        path = tmp_path / "corpus.jsonl"
        save_courses_jsonl(stream_courses, path)
        records = list(iter_course_records(path))
        assert len(records) == len(stream_courses)

    def test_malformed_body_line_yields_raw_record(self, tmp_path, stream_courses):
        path = tmp_path / "corpus.jsonl"
        save_courses_jsonl(stream_courses[:3], path)
        with open(path, "a") as fh:
            fh.write("{this is not json\n")
        records = list(iter_course_records(path))
        assert len(records) == 4
        assert isinstance(records[-1], str)  # excluded downstream as unparsable

    def test_bad_envelope_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"format": "something-else"}) + "\n")
        with pytest.raises(ValueError, match="not a repro course file"):
            list(iter_course_records(path))


class TestMemmapDigests:
    def test_memmap_and_ram_digests_agree(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.random((64, 37))
        path = tmp_path / "a.npy"
        np.save(path, a)
        mapped = np.load(path, mmap_mode="r")
        assert array_digest(mapped) == array_digest(a)
        assert matrix_digest(mapped) == matrix_digest(a)

    def test_chunked_digest_matches_whole_buffer(self, tmp_path):
        # Force the multi-slab path (> _DIGEST_CHUNK_BYTES) and compare
        # against a sibling array hashed through the single-shot path.
        from repro.runtime.cache import _DIGEST_CHUNK_BYTES

        n = _DIGEST_CHUNK_BYTES // 8 + 1024  # just over one slab of f64
        a = np.arange(n, dtype=np.float64).reshape(1, -1)
        big = array_digest(a)
        # Same bytes, hashed whole: digest must not depend on slabbing.
        import hashlib

        h = hashlib.sha256()
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
        assert big == h.hexdigest()

    def test_cache_hits_across_storage(self, tmp_path):
        rng = np.random.default_rng(4)
        a = (rng.random((40, 19)) < 0.3).astype(float)
        path = tmp_path / "a.npy"
        np.save(path, a)
        mapped = np.load(path, mmap_mode="r")
        specs = nmf_restart_specs(a, 3, seed=1, solver="mu", n_restarts=2)
        cache = ResultCache()
        warm = run_nmf_fits(a, specs, cache=cache)
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        served = run_nmf_fits(mapped, specs, cache=cache)
        assert cache.stats.hits == 2
        assert_bit_equal(warm, served)


class TestRowBlocks:
    def test_cover_and_budget(self):
        blocks = row_blocks(100, 7, budget=35)
        assert blocks[0] == (0, 5)
        assert blocks[-1][1] == 100
        assert all(b1 - b0 <= 5 for b0, b1 in blocks)
        flat = [r for b0, b1 in blocks for r in range(b0, b1)]
        assert flat == list(range(100))

    def test_edge_cases(self):
        assert row_blocks(0, 10, budget=5) == []
        assert row_blocks(3, 10, budget=1) == [(0, 1), (1, 2), (2, 3)]
        with pytest.raises(ValueError, match=">= 1"):
            row_blocks(5, 5, budget=0)


class TestOutOfCoreNMF:
    @pytest.fixture()
    def binary(self):
        rng = np.random.default_rng(8)
        return (rng.random((60, 23)) < 0.25).astype(float)

    @pytest.fixture()
    def large(self):
        """A 0/1 matrix past the engine's CSR threshold, so the out-of-core
        solve reads it block by block into a CSR."""
        rng = np.random.default_rng(9)
        a = (rng.random((400, 330)) < 0.05).astype(float)
        assert a.size >= CSR_MIN_ELEMENTS
        return a

    def test_single_block_bit_identical_to_serial(self, binary):
        assert len(row_blocks(*binary.shape)) == 1
        for tol in (1e-4, 0.0):
            specs = nmf_restart_specs(binary, 4, seed=2, solver="mu",
                                      n_restarts=3, tol=tol)
            online = outofcore_nmf_fits(binary, specs)
            assert_bit_equal(online, oracle_fits(binary, specs))
            assert_bit_equal(online, run_nmf_fits(binary, specs, use_cache=False))

    def test_any_budget_bit_identical_to_run_nmf_fits(self, binary, large,
                                                      tmp_path):
        for a in (binary, large):
            path = tmp_path / f"a-{a.shape[0]}.npy"
            np.save(path, a)
            mapped = np.load(path, mmap_mode="r")
            # one block, several blocks, one row per block
            budgets = (None, a.shape[1] * 97, 1)
            for tol in (1e-4, 0.0):
                specs = nmf_restart_specs(a, 4, seed=2, solver="mu",
                                          n_restarts=2, tol=tol, max_iter=60)
                in_memory = run_nmf_fits(a, specs, use_cache=False)
                for budget in budgets:
                    for source in (a, mapped):
                        metrics.reset()
                        got = outofcore_nmf_fits(source, specs, budget=budget)
                        assert_bit_equal(got, in_memory)
                        assert metrics.get("oocnmf.fits") == len(specs)
                        blocks = (len(row_blocks(*a.shape, budget))
                                  if a is large else 1)
                        assert metrics.get("oocnmf.blocks") == blocks
        assert [len(row_blocks(*large.shape, b)) for b in budgets] == [
            1, 5, 400]

    def test_memmap_input_multi_block(self, binary, tmp_path):
        path = tmp_path / "a.npy"
        np.save(path, binary)
        mapped = np.load(path, mmap_mode="r")
        specs = nmf_restart_specs(binary, 3, seed=5, solver="mu")
        ram = outofcore_nmf_fits(binary, specs, budget=binary.shape[1] * 11)
        ooc = outofcore_nmf_fits(mapped, specs, budget=binary.shape[1] * 11)
        assert_bit_equal(ram, ooc)

    def test_rejects_unsupported_specs(self, binary):
        import scipy.sparse

        with pytest.raises(TypeError, match="dense"):
            outofcore_nmf_fits(scipy.sparse.csr_array(binary), [])
        hals = nmf_restart_specs(binary, 3, seed=0, solver="hals")
        with pytest.raises(ValueError, match="solver='mu'"):
            outofcore_nmf_fits(binary, hals)
        no_init = [dict(n_components=3, solver="mu", init="nndsvd")]
        with pytest.raises(ValueError, match="init='custom'"):
            outofcore_nmf_fits(binary, no_init)

    def test_validation_matches_serial(self, binary):
        bad = binary.copy()
        bad[3, 4] = np.nan
        specs = nmf_restart_specs(binary, 2, seed=1, solver="mu")
        with pytest.raises(ValueError, match="NaN"):
            outofcore_nmf_fits(bad, specs, budget=binary.shape[1] * 9)
        neg = binary.copy()
        neg[0, 0] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            outofcore_nmf_fits(neg, specs)

    @pytest.mark.parametrize("value, match", [
        (np.nan, "NaN"), (np.inf, "inf"), (-1.0, "non-negative"),
    ])
    def test_bad_entry_in_last_block_raises(self, large, value, match):
        specs = nmf_restart_specs(large, 2, seed=1, solver="mu")
        budget = large.shape[1] * 97
        last = row_blocks(*large.shape, budget)[-1]
        assert last[0] > 0
        bad = large.copy()
        bad[last[1] - 1, -1] = value
        with pytest.raises(ValueError, match=match):
            outofcore_nmf_fits(bad, specs, budget=budget)

    def test_block_without_ones_fits(self, large):
        budget = large.shape[1] * 97
        b0, b1 = row_blocks(*large.shape, budget)[1]
        holed = large.copy()
        holed[b0:b1] = 0.0
        specs = nmf_restart_specs(holed, 3, seed=4, solver="mu", max_iter=40)
        got = outofcore_nmf_fits(holed, specs, budget=budget)
        assert_bit_equal(got, run_nmf_fits(holed, specs, use_cache=False))
        assert np.isfinite(float(got[0]["err"]))


class TestWriteIncidenceMemmap:
    def test_matches_incidence_matrix(self, cs2013, tmp_path, stream_courses):
        for repo in (MaterialRepository(), ShardedMaterialRepository(4)):
            for c in stream_courses:
                repo.add_course(c)
            path = tmp_path / f"inc-{repo.__class__.__name__}.npy"
            out, universe = write_incidence_memmap(repo, path, block_rows=17)
            mats = list(repo.materials())
            ref = incidence_matrix([m.mappings for m in mats])
            assert universe == sorted({t for m in mats for t in m.mappings})
            assert np.array_equal(np.asarray(out), ref)
            reopened = np.load(path, mmap_mode="r")
            assert np.array_equal(np.asarray(reopened), ref)

    def test_stages_no_dense_copy(self, tmp_path, mb_courses):
        repo = MaterialRepository()
        for c in mb_courses:
            repo.add_course(c)
        out, peak = _traced_peak(write_incidence_memmap, repo,
                                 tmp_path / "a.npy")
        assert out.nbytes > 5e6
        assert peak < out.nbytes / 8

    def test_empty_repo(self, tmp_path):
        out, universe = write_incidence_memmap(
            MaterialRepository(), tmp_path / "empty.npy"
        )
        assert universe == [] and out.shape == (0, 1)

    def test_bad_block_rows(self, tmp_path):
        with pytest.raises(ValueError, match=">= 1"):
            write_incidence_memmap(
                MaterialRepository(), tmp_path / "x.npy", block_rows=0
            )


class TestStreamIncidenceMemmap:
    """JSONL → memmap without a repository in between (PR 8)."""

    def test_matches_repository_export(self, tmp_path, stream_courses):
        jsonl = tmp_path / "corpus.jsonl"
        save_courses_jsonl(stream_courses, jsonl)
        repo = MaterialRepository()
        for c in stream_courses:
            repo.add_course(c)
        via_repo, u_repo = write_incidence_memmap(repo, tmp_path / "a.npy")
        via_jsonl, u_jsonl = stream_incidence_memmap(
            jsonl, tmp_path / "b.npy", block_rows=13
        )
        assert u_jsonl == u_repo
        assert np.array_equal(np.asarray(via_jsonl), np.asarray(via_repo))

    def test_duplicates_keep_first_occurrence(self, tmp_path, stream_courses):
        # a re-serialized duplicate course contributes no extra rows
        doubled = list(stream_courses[:4]) + [stream_courses[0]]
        jsonl = tmp_path / "doubled.jsonl"
        save_courses_jsonl(doubled, jsonl)
        out, universe = stream_incidence_memmap(jsonl, tmp_path / "c.npy")
        n_unique = sum(len(c.materials) for c in stream_courses[:4])
        assert out.shape[0] == n_unique

    def test_malformed_lines_are_skipped(self, tmp_path, stream_courses):
        jsonl = tmp_path / "noisy.jsonl"
        save_courses_jsonl(stream_courses[:3], jsonl)
        with open(jsonl, "a") as fh:
            fh.write("{not json\n")
            fh.write(json.dumps({"id": "no-materials"}) + "\n")
        metrics.reset()
        out, _ = stream_incidence_memmap(jsonl, tmp_path / "d.npy")
        assert out.shape[0] == sum(len(c.materials) for c in stream_courses[:3])
        assert metrics.get("oocnmf.incidence.skipped_lines") >= 1

    def test_feeds_outofcore_nmf(self, tmp_path, stream_courses):
        """The paper pipeline end to end: JSONL corpus → streamed
        incidence → out-of-core NMF, equal to the in-memory solve."""
        jsonl = tmp_path / "corpus.jsonl"
        save_courses_jsonl(stream_courses[:6], jsonl)
        out, _ = stream_incidence_memmap(jsonl, tmp_path / "a.npy")
        a = np.asarray(out)
        specs = nmf_restart_specs(a, 2, seed=3, solver="mu", n_restarts=1)
        mapped = np.load(tmp_path / "a.npy", mmap_mode="r")
        ooc = outofcore_nmf_fits(mapped, specs)
        dense = oracle_fits(a, specs)
        assert np.allclose(ooc[0]["w"], dense[0]["w"])
        assert np.allclose(ooc[0]["h"], dense[0]["h"])

    def test_stages_no_dense_copy(self, tmp_path, mb_courses):
        jsonl = tmp_path / "corpus.jsonl"
        save_courses_jsonl(mb_courses, jsonl)
        out, peak = _traced_peak(stream_incidence_memmap, jsonl,
                                 tmp_path / "a.npy")
        assert out.nbytes > 5e6
        assert peak < out.nbytes / 8

    def test_bad_block_rows(self, tmp_path):
        with pytest.raises(ValueError, match=">= 1"):
            stream_incidence_memmap("whatever.jsonl", tmp_path / "x.npy",
                                    block_rows=0)
