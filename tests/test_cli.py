"""Tests for the command-line interface (invoked in-process)."""

import dataclasses
import os
import pathlib
import re
import signal
import subprocess
import sys

import pytest

import repro
from repro.cli import _load, _service_state, build_parser, main
from repro.io.json_io import load_courses, save_courses
from repro.materials.material import Material, MaterialType
from repro.runtime import result_cache


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "courses.json"
    assert main(["canonical", "--out", str(path)]) == 0
    return path


class TestCanonicalAndGenerate:
    def test_canonical_writes(self, corpus_file):
        assert corpus_file.exists()
        assert corpus_file.stat().st_size > 10_000

    def test_generate(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(["generate", "--seed", "3", "--out", str(out)]) == 0
        assert "20 courses" in capsys.readouterr().out

    def test_generate_with_excluded(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(["generate", "--seed", "3", "--out", str(out),
                     "--include-excluded"]) == 0
        assert "31 courses" in capsys.readouterr().out


class TestJsonlCorpus:
    """``generate`` writes either layout; every corpus reader takes both."""

    @pytest.fixture(scope="class")
    def layouts(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("layouts")
        paths = {}
        for suffix in ("json", "jsonl"):
            paths[suffix] = root / f"corpus.{suffix}"
            assert main(["generate", "--courses", "6", "--seed", "4",
                         "--out", str(paths[suffix])]) == 0
        return paths

    def test_both_layouts_load_equal(self, layouts):
        courses = _load(str(layouts["jsonl"]))
        assert len(courses) == 6
        assert courses == _load(str(layouts["json"]))

    def test_service_state_boots_on_jsonl(self, layouts):
        args = build_parser().parse_args(
            ["serve", str(layouts["jsonl"]), "--shards", "2"]
        )
        state, load_report = _service_state(args)
        assert load_report is None
        assert state.repo.n_courses == 6
        assert state.repo.n_materials == sum(
            len(c.materials) for c in _load(str(layouts["json"]))
        )

    def test_analysis_command_reads_jsonl(self, layouts, capsys):
        assert main(["types", str(layouts["jsonl"]), "-k", "2",
                     "--seed", "1"]) == 0
        assert "reconstruction error" in capsys.readouterr().out


class TestServeSignals:
    def test_sigint_drains_a_backgrounded_server(self):
        # A non-interactive shell starts `repro serve &` with SIGINT
        # ignored (as `trap "" INT` does here); `kill -INT` must still
        # drain it.
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            ["sh", "-c", 'trap "" INT; exec "$0" "$@"', sys.executable,
             "-m", "repro.cli", "serve", "--port", "0", "--shards", "2"],
            env={**os.environ, "PYTHONPATH": src},
            stderr=subprocess.PIPE, text=True,
        )
        try:
            for _ in range(10):
                line = proc.stderr.readline()
                if "on http://" in line or not line:
                    break
            assert "on http://" in line, line
            proc.send_signal(signal.SIGINT)  # mid-banner drains too
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0
        assert "drained and stopped" in err


class TestAgreement:
    def test_cs1(self, corpus_file, capsys):
        assert main(["agreement", str(corpus_file), "--label", "CS1"]) == 0
        out = capsys.readouterr().out
        assert "6 courses" in out
        assert ">= 4" in out

    def test_weighted(self, corpus_file, capsys):
        assert main(["agreement", str(corpus_file), "--label", "DS",
                     "--weighted"]) == 0
        assert "5 courses" in capsys.readouterr().out

    def test_unknown_label(self, corpus_file):
        with pytest.raises(SystemExit):
            main(["agreement", str(corpus_file), "--label", "BOGUS"])


class TestTypesAndFlavors:
    def test_types(self, corpus_file, capsys):
        assert main(["types", str(corpus_file), "-k", "4", "--seed", "6"]) == 0
        out = capsys.readouterr().out
        assert "dimension" in out
        assert "reconstruction error" in out

    def test_flavors(self, corpus_file, capsys):
        assert main(["flavors", str(corpus_file), "--label", "CS1",
                     "-k", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Type 1" in out and "washu-131-singh" in out


class TestMatrixRecommendHitTree:
    def test_matrix_csv(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert main(["matrix", str(corpus_file), "--out", str(out)]) == 0
        assert out.exists()
        header = out.read_text().splitlines()[0]
        assert header.startswith("course_id,")

    def test_recommend(self, corpus_file, capsys):
        assert main(["recommend", str(corpus_file),
                     "--course-id", "washu-131-singh",
                     "--flavor", "cs1-oop", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "module" in out

    def test_recommend_unknown_course(self, corpus_file):
        with pytest.raises(SystemExit):
            main(["recommend", str(corpus_file), "--course-id", "ghost"])

    def test_hit_tree_svg(self, corpus_file, tmp_path):
        out = tmp_path / "t.svg"
        assert main(["hit-tree", str(corpus_file),
                     "--course-id", "ccc-40-kerney", "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg")

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestGapAndDeps:
    def test_pdc_gap(self, corpus_file, capsys):
        assert main(["pdc-gap", str(corpus_file)]) == 0
        out = capsys.readouterr().out
        assert "PD-area gap" in out
        assert "core-1 coverage" in out

    def test_pdc_gap_all_tiers_larger(self, corpus_file, capsys):
        main(["pdc-gap", str(corpus_file)])
        core_out = capsys.readouterr().out
        main(["pdc-gap", str(corpus_file), "--all-tiers"])
        all_out = capsys.readouterr().out

        def gap_count(text):
            line = next(l for l in text.splitlines() if "PD-area gap" in l)
            return int(line.split(":")[1].split()[0])

        assert gap_count(all_out) >= gap_count(core_out)

    def test_deps(self, corpus_file, capsys):
        assert main(["deps", str(corpus_file),
                     "--course-id", "uncc-2214-krs"]) == 0
        out = capsys.readouterr().out
        assert "longest prerequisite chain" in out
        assert "foundational topics" in out

    def test_deps_unknown_course(self, corpus_file):
        with pytest.raises(SystemExit):
            main(["deps", str(corpus_file), "--course-id", "ghost"])


class TestReportExplain:
    _ROW = re.compile(r"^\s+\[\s*(hit|computed)\]\s+([0-9.]+) ms  (\S+)$")

    def _explain(self, argv, capsys) -> tuple[str, dict[str, str]]:
        assert main(argv) == 0
        header, *rows = capsys.readouterr().err.splitlines()
        status = {}
        for row in rows:
            match = self._ROW.match(row)
            assert match, row
            status[match[3]] = match[1]
        return header, status

    def test_warm_rebuild_after_tag_preserving_edit(
        self, corpus_file, tmp_path, capsys, monkeypatch
    ):
        # main() points the process-global cache at --cache-dir; undo that.
        monkeypatch.setattr(result_cache, "cache_dir", result_cache.cache_dir)
        path = tmp_path / "courses.json"
        courses = load_courses(corpus_file)
        save_courses(courses, path)
        argv = ["--cache-dir", str(tmp_path / "cache"), "report", str(path),
                "--out", str(tmp_path / "report.md"), "--explain"]
        self._explain(argv, capsys)

        course = courses[0]
        extra = Material(
            id=f"{course.id}-extra",
            title="redundant worksheet",
            mtype=MaterialType.LECTURE,
            mappings=frozenset(course.tags[:3]),
        )
        courses[0] = dataclasses.replace(
            course, materials=[*course.materials, extra]
        )
        save_courses(courses, path)
        header, status = self._explain(argv, capsys)
        assert re.fullmatch(
            r"\d+ nodes: \d+ cached, \d+ computed, [0-9.]+ ms", header
        ), header
        assert status["matrix"] == "computed"
        assert status["section:gap"] == "hit"
        assert status["typing"] == "hit"


class TestCompareAndMaterials:
    def test_compare(self, corpus_file, capsys):
        assert main(["compare", str(corpus_file),
                     "uncc-2214-krs", "uncc-2214-saule"]) == 0
        out = capsys.readouterr().out
        assert "shared tags" in out and "Jaccard" in out

    def test_compare_unknown_course(self, corpus_file):
        with pytest.raises(SystemExit):
            main(["compare", str(corpus_file), "ghost", "uncc-2214-krs"])

    def test_materials(self, corpus_file, capsys):
        assert main(["materials", str(corpus_file),
                     "--course-id", "uncc-2214-krs", "--top", "4"]) == 0
        out = capsys.readouterr().out
        assert "new PDC topics" in out
        # 4 rows + header + separator
        assert len(out.strip().splitlines()) == 6

    def test_materials_unknown_course(self, corpus_file):
        with pytest.raises(SystemExit):
            main(["materials", str(corpus_file), "--course-id", "ghost"])


class TestScheduleCli:
    @pytest.fixture()
    def dag_file(self, tmp_path):
        from repro.io.dag_io import save_taskgraph
        from repro.taskgraph import layered_random_dag
        path = tmp_path / "dag.json"
        save_taskgraph(layered_random_dag(4, 4, seed=1), path)
        return path

    def test_schedule(self, dag_file, capsys):
        assert main(["schedule", str(dag_file), "-p", "3"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "speedup" in out

    def test_schedule_gantt(self, dag_file, capsys):
        assert main(["schedule", str(dag_file), "-p", "2", "--gantt"]) == 0
        assert "P0" in capsys.readouterr().out

    def test_schedule_comm_delay_slower(self, dag_file, capsys):
        main(["schedule", str(dag_file), "-p", "4"])
        base = capsys.readouterr().out
        main(["schedule", str(dag_file), "-p", "4", "--comm-delay", "10"])
        comm = capsys.readouterr().out

        def makespan(text):
            line = next(l for l in text.splitlines() if "makespan" in l)
            return float(line.split(":")[1].split()[0])

        assert makespan(comm) >= makespan(base)


class TestMapCli:
    def test_map(self, corpus_file, capsys):
        assert main(["map", str(corpus_file), "--width", "40",
                     "--height", "8"]) == 0
        out = capsys.readouterr().out
        assert "MDS stress" in out
        assert out.startswith("+")


class TestSearchCli:
    def test_search_by_type(self, corpus_file, capsys):
        assert main(["search", str(corpus_file), "--type", "lecture",
                     "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "material" in out and "score" in out
        assert "5 hit(s)" in out

    def test_search_by_internal_node_tag(self, corpus_file, capsys):
        # An area id expands to every tag beneath it.
        assert main(["search", str(corpus_file), "--tag", "CS2013/SDF"]) == 0
        out = capsys.readouterr().out
        assert "10 hit(s)" in out

    def test_search_no_hits(self, corpus_file, capsys):
        assert main(["search", str(corpus_file), "--text", "zzz-nope"]) == 0
        assert "0 hit(s)" in capsys.readouterr().out

    def test_search_negative_limit_rejected(self, corpus_file):
        with pytest.raises(SystemExit):
            main(["search", str(corpus_file), "--limit", "-1"])

    def test_similar(self, corpus_file, capsys):
        from repro.io import load_courses

        mid = load_courses(str(corpus_file))[0].materials[0].id
        assert main(["similar", str(corpus_file), "--material-id", mid,
                     "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert mid not in out.splitlines()[0]  # header row
        assert len(out.splitlines()) == 5  # header + rule + 3 hits

    def test_similar_zero_limit_rejected(self, corpus_file):
        with pytest.raises(SystemExit):
            main(["similar", str(corpus_file), "--material-id", "x",
                  "--limit", "0"])

    def test_similar_unknown_material(self, corpus_file):
        with pytest.raises(SystemExit, match="no material"):
            main(["similar", str(corpus_file), "--material-id", "nope"])

