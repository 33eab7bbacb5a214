"""Tests for repro.quality: rule fixtures, suppression, reporters, self-gate.

Each rule gets one *bad* snippet that must fire (exact code, line,
severity) and one *corrected* snippet that must stay silent — the
contract CONTRIBUTING.md demands of every new rule.
"""

import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro.quality import (
    PARSE_ERROR_CODE,
    RULES,
    Severity,
    analyze_paths,
    fails_threshold,
    main as quality_main,
    record_from_finding,
    render_json,
    render_text,
    run_lint_code,
)
from repro.quality.report import JSON_VERSION, Record


def lint_sources(tmp_path, files, select=None):
    """Write ``{relative name: source}`` under ``tmp_path`` and analyze."""
    for name, source in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return analyze_paths([str(tmp_path)], select=select)


def codes(result):
    return [f.code for f in result.findings]


class TestRPR101UnseededRandomness:
    def test_global_state_and_argless_ctor_fire(self, tmp_path):
        result = lint_sources(tmp_path, {"mod.py": """\
            import random
            import numpy as np

            def draw():
                x = np.random.rand(3)
                y = random.random()
                rng = np.random.default_rng()
                return x, y, rng
            """})
        assert codes(result) == ["RPR101"] * 3
        assert [f.line for f in result.findings] == [5, 6, 7]
        assert all(f.severity is Severity.ERROR for f in result.findings)
        assert "hidden global state" in result.findings[0].message

    def test_seeded_generator_is_silent(self, tmp_path):
        result = lint_sources(tmp_path, {"mod.py": """\
            import numpy as np

            def draw(seed):
                rng = np.random.default_rng(seed)
                return rng.random(3)
            """})
        assert result.findings == []


class TestRPR102WallClock:
    def test_wall_clock_reads_fire(self, tmp_path):
        result = lint_sources(tmp_path, {"mod.py": """\
            import time
            from datetime import datetime

            def stamp():
                return time.time(), datetime.now()
            """})
        assert codes(result) == ["RPR102", "RPR102"]
        assert [f.line for f in result.findings] == [5, 5]
        assert all(f.severity is Severity.ERROR for f in result.findings)

    def test_tz_aware_now_and_metrics_module_are_silent(self, tmp_path):
        result = lint_sources(tmp_path, {
            # datetime.now(tz) is an explicit choice, not ambient state.
            "mod.py": """\
                from datetime import datetime, timezone

                def stamp():
                    return datetime.now(timezone.utc)
                """,
            # The metrics module itself is the allowlisted timing home.
            "runtime/metrics.py": """\
                import time

                def tick():
                    return time.time()
                """,
        })
        assert result.findings == []


class TestRPR202CacheKeyCompleteness:
    NMF_BAD = """\
        from dataclasses import dataclass, field

        @dataclass
        class NMF:
            n_components: int
            solver: str = "mu"
            shiny_new_knob: float = 0.5
            components_: object = field(default=None, repr=False)
        """
    KEYS_BAD = 'NMF_KEY_PARAMS: tuple[str, ...] = ("n_components", "solver", "ghost_param")\n'

    def test_missing_field_and_stale_param_fire(self, tmp_path):
        result = lint_sources(tmp_path, {
            "nmf.py": self.NMF_BAD,
            "cache.py": self.KEYS_BAD,
        })
        assert sorted(codes(result)) == ["RPR202", "RPR202"]
        stale = next(f for f in result.findings if "ghost_param" in f.message)
        missing = next(f for f in result.findings if "shiny_new_knob" in f.message)
        assert stale.path.endswith("cache.py") and stale.line == 1
        assert missing.path.endswith("nmf.py") and missing.line == 7
        assert all(f.severity is Severity.ERROR for f in result.findings)

    def test_lockstep_declaration_is_silent(self, tmp_path):
        result = lint_sources(tmp_path, {
            "nmf.py": """\
                from dataclasses import dataclass, field

                @dataclass
                class NMF:
                    n_components: int
                    solver: str = "mu"
                    components_: object = field(default=None, repr=False)
                """,
            "cache.py": 'NMF_KEY_PARAMS = ("n_components", "solver", "W0", "H0")\n',
        })
        assert result.findings == []

    def test_half_alone_is_silent(self, tmp_path):
        # Without both the dataclass and the key list in view, the
        # cross-file rule cannot (and must not) judge.
        assert lint_sources(tmp_path, {"nmf.py": self.NMF_BAD}).findings == []


class TestRPR301MetricNames:
    def test_bad_and_dynamic_names_fire(self, tmp_path):
        result = lint_sources(tmp_path, {"mod.py": """\
            def record(metrics, flag):
                metrics.inc("CamelCase")
                metrics.inc("nodots")
                metrics.inc("a.b" if flag else "c.d")
            """})
        assert codes(result) == ["RPR301"] * 3
        assert [f.line for f in result.findings] == [2, 3, 4]
        assert all(f.severity is Severity.WARNING for f in result.findings)
        assert "not dotted-lowercase" in result.findings[0].message
        assert "string literal" in result.findings[2].message

    def test_dotted_lowercase_literals_are_silent(self, tmp_path):
        result = lint_sources(tmp_path, {"mod.py": """\
            def record(metrics, flag):
                metrics.inc("quality.files")
                if flag:
                    metrics.inc("runtime.nmf_strategy.pool")
                else:
                    metrics.inc("runtime.nmf_strategy.serial")
                with metrics.timer("repo.search.plan"):
                    pass
            """})
        assert result.findings == []


class TestRPR401CurriculumInvariants:
    BAD_TABLES = {
        "curriculum/cs2013.py": """\
            from schema import AreaSpec, UnitSpec, T, O

            AL = AreaSpec("AL", "Algorithms", units=[
                UnitSpec("BAS", "Basics", topics=[
                    T("Sorting"),
                    T("Sorting"),
                ]),
                UnitSpec("BAS", "Basics again"),
            ])
            APPLICATIONS = AreaSpec("AL", "Duplicate area")
            EXTRA_UNITS = {"NOPE": [UnitSpec("X", "Extra", topics=[T("thing")])]}
            CS2013_TO_CS2023 = {"AL": "AL", "ZZ": "QQ"}
            """,
        "curriculum/cs2023.py": 'CS2023_AREAS = (("AL", "Algorithmic Foundations"),)\n',
        "curriculum/pdc12.py": """\
            from schema import AreaSpec, UnitSpec, T

            ARCH = AreaSpec("ARCH", "Architecture", units=[
                UnitSpec("C", "Classes", topics=[T("Flynn taxonomy")]),
            ])
            """,
        "curriculum/crosswalk.py": """\
            _LABEL_LINKS = [
                ("Flynn taxonomy", ["Sorting"]),
                ("Missing topic", ["No such target"]),
                ("Flynn taxonomy", ["Sorting"]),
            ]
            """,
    }

    def test_every_invariant_fires(self, tmp_path):
        result = lint_sources(tmp_path, self.BAD_TABLES)
        assert set(codes(result)) == {"RPR401"}
        assert all(f.severity is Severity.ERROR for f in result.findings)
        messages = "\n".join(f.message for f in result.findings)
        assert "duplicate cs2013 area code 'AL'" in messages
        assert "duplicate unit code 'BAS'" in messages
        assert "duplicate topic label 'Sorting'" in messages
        assert "unknown cs2013 area 'NOPE'" in messages
        assert "migration source 'ZZ'" in messages
        assert "migration target 'QQ'" in messages
        assert "duplicate crosswalk source 'Flynn taxonomy'" in messages
        assert "crosswalk source 'Missing topic' does not exist" in messages
        assert "crosswalk target 'No such target' does not exist" in messages
        assert "crosswalk target 'Sorting' is ambiguous" in messages

    def test_consistent_tables_are_silent(self, tmp_path):
        result = lint_sources(tmp_path, {
            "curriculum/cs2013.py": """\
                from schema import AreaSpec, UnitSpec, T

                AL = AreaSpec("AL", "Algorithms", units=[
                    UnitSpec("BAS", "Basics", topics=[T("Sorting")]),
                ])
                CS2013_TO_CS2023 = {"AL": "AL"}
                """,
            "curriculum/cs2023.py": 'CS2023_AREAS = (("AL", "Algorithmic Foundations"),)\n',
            "curriculum/pdc12.py": """\
                from schema import AreaSpec, UnitSpec, T

                ARCH = AreaSpec("ARCH", "Architecture", units=[
                    UnitSpec("C", "Classes", topics=[T("Flynn taxonomy")]),
                ])
                """,
            "curriculum/crosswalk.py": '_LABEL_LINKS = [("Flynn taxonomy", ["Sorting"])]\n',
        })
        assert result.findings == []


class TestSuppression:
    BAD_LINE = """\
        import numpy as np

        x = np.random.rand(3)  # repro: noqa[RPR101]
        """

    def test_coded_noqa_suppresses(self, tmp_path):
        result = lint_sources(tmp_path, {"mod.py": self.BAD_LINE})
        assert result.findings == []
        assert result.n_suppressed == 1

    def test_bare_noqa_suppresses_any_code(self, tmp_path):
        result = lint_sources(tmp_path, {"mod.py": """\
            import numpy as np

            x = np.random.rand(3)  # repro: noqa
            """})
        assert result.findings == []
        assert result.n_suppressed == 1

    def test_wrong_code_does_not_suppress(self, tmp_path):
        result = lint_sources(tmp_path, {"mod.py": """\
            import numpy as np

            x = np.random.rand(3)  # repro: noqa[RPR301]
            """})
        assert codes(result) == ["RPR101"]
        assert result.n_suppressed == 0

    def test_noqa_covers_multiline_statement(self, tmp_path):
        """A noqa on any physical line of a statement covers the whole
        statement — findings anchor to the line of the offending *node*,
        which for a wrapped call is not necessarily the comment's line."""
        result = lint_sources(tmp_path, {"mod.py": """\
            import numpy as np

            x = np.random.normal(  # repro: noqa[RPR101]
                0.0,
                1.0,
                size=(3, 3),
            )
            """})
        assert result.findings == []
        assert result.n_suppressed == 1

    def test_noqa_on_last_line_of_statement(self, tmp_path):
        result = lint_sources(tmp_path, {"mod.py": """\
            import numpy as np

            x = np.random.normal(
                0.0,
                1.0,
            )  # repro: noqa[RPR101]
            """})
        assert result.findings == []
        assert result.n_suppressed == 1

    def test_noqa_in_compound_header_does_not_leak_to_body(self, tmp_path):
        """A noqa on a ``with``/``def`` header suppresses only the header
        line(s), never the whole suite underneath."""
        result = lint_sources(tmp_path, {"mod.py": """\
            import numpy as np

            def f():  # repro: noqa[RPR101]
                return np.random.rand(3)
            """})
        assert codes(result) == ["RPR101"]


class TestEngine:
    def test_unparseable_file_yields_rpr000(self, tmp_path):
        result = lint_sources(tmp_path, {"broken.py": "def oops(:\n"})
        assert codes(result) == [PARSE_ERROR_CODE]
        assert result.findings[0].severity is Severity.ERROR

    def test_select_restricts_rules(self, tmp_path):
        result = lint_sources(tmp_path, {"mod.py": """\
            import time
            import numpy as np

            x = np.random.rand(3)
            t = time.time()
            """}, select=["RPR102"])
        assert codes(result) == ["RPR102"]

    def test_unknown_select_raises(self, tmp_path):
        with pytest.raises(ValueError):
            lint_sources(tmp_path, {"mod.py": "x = 1\n"}, select=["RPR999"])

    def test_findings_sorted_and_registry_complete(self, tmp_path):
        assert set(RULES) == {
            "RPR101", "RPR102", "RPR202", "RPR301", "RPR401",
            "RPR501", "RPR502", "RPR503", "RPR504",
        }
        result = lint_sources(tmp_path, {
            "b.py": "import numpy as np\nx = np.random.rand()\n",
            "a.py": "import numpy as np\nx = np.random.rand()\n",
        })
        paths = [f.path for f in result.findings]
        assert paths == sorted(paths)


class TestReporters:
    def _records(self, tmp_path):
        result = lint_sources(tmp_path, {"mod.py": """\
            import numpy as np

            def f(metrics):
                x = np.random.rand(3)
                metrics.inc("nodots")
            """})
        return [record_from_finding(f) for f in result.findings], result

    def test_json_schema(self, tmp_path):
        records, result = self._records(tmp_path)
        payload = json.loads(render_json(
            records, tool="repro.quality", n_files=len(result.files)
        ))
        assert payload["version"] == JSON_VERSION
        assert payload["tool"] == "repro.quality"
        assert payload["summary"] == {
            "errors": 1, "warnings": 1, "findings": 2, "files": 1,
        }
        assert len(payload["findings"]) == 2
        first = payload["findings"][0]
        assert first["code"] == "RPR101"
        assert first["severity"] == "error"
        assert first["line"] == 4
        assert first["location"].endswith("mod.py:4:8")

    def test_text_summary_tail(self, tmp_path):
        records, result = self._records(tmp_path)
        text = render_text(records, n_files=len(result.files))
        assert text.splitlines()[-1] == "1 error(s), 1 warning(s) across 1 file(s)"

    def test_fails_threshold(self, tmp_path):
        warning_only = [Record(
            code="RPR301", severity="warning", message="m", location="x:1:0",
        )]
        assert not fails_threshold(warning_only, "error")
        assert fails_threshold(warning_only, "warning")
        assert not fails_threshold([], "warning")


class TestCLI:
    def test_module_entry_point_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "mod.py"
        bad.write_text("import numpy as np\nx = np.random.rand()\n")
        assert quality_main([str(bad)]) == 1
        assert "RPR101" in capsys.readouterr().out
        good = tmp_path / "ok.py"
        good.write_text("x = 1\n")
        assert quality_main([str(good)]) == 0

    def test_fail_on_warning_escalates(self, tmp_path):
        warn = tmp_path / "mod.py"
        warn.write_text('def f(metrics):\n    metrics.inc("nodots")\n')
        _, status = run_lint_code([str(warn)], fail_on="error")
        assert status == 0
        _, status = run_lint_code([str(warn)], fail_on="warning")
        assert status == 1

    def test_repro_lint_code_subcommand(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        bad = tmp_path / "mod.py"
        bad.write_text("import numpy as np\nx = np.random.rand()\n")
        status = cli_main(["lint-code", str(bad), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert status == 1
        assert payload["tool"] == "repro.quality"
        assert payload["findings"][0]["code"] == "RPR101"


class TestBaseline:
    BAD = "import numpy as np\nx = np.random.rand()\ny = np.random.rand()\n"

    def test_write_then_apply_silences_known_findings(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        bad = tmp_path / "mod.py"
        bad.write_text(self.BAD)
        baseline = tmp_path / "baseline.json"
        assert cli_main([
            "lint-code", str(bad), "--write-baseline", str(baseline),
        ]) == 0
        capsys.readouterr()
        doc = json.loads(baseline.read_text())
        assert doc["version"] == 1
        assert doc["entries"][0]["count"] == 2
        assert cli_main([
            "lint-code", str(bad), "--baseline", str(baseline),
        ]) == 0
        assert "2 finding(s) matched the baseline" in capsys.readouterr().out

    def test_new_findings_still_fail(self, tmp_path):
        from repro.quality import write_baseline
        from repro.quality.engine import analyze_paths as ap

        bad = tmp_path / "mod.py"
        bad.write_text(self.BAD)
        write_baseline(tmp_path / "b.json", ap([str(bad)]).findings)
        bad.write_text(self.BAD + "z = np.random.rand()\n")
        _, status = run_lint_code(
            [str(bad)], baseline=str(tmp_path / "b.json")
        )
        assert status == 1

    def test_line_edits_do_not_unacknowledge(self, tmp_path):
        from repro.quality import write_baseline
        from repro.quality.engine import analyze_paths as ap

        bad = tmp_path / "mod.py"
        bad.write_text(self.BAD)
        write_baseline(tmp_path / "b.json", ap([str(bad)]).findings)
        bad.write_text("import numpy as np\n\n\n" + self.BAD.split("\n", 1)[1])
        _, status = run_lint_code(
            [str(bad)], baseline=str(tmp_path / "b.json")
        )
        assert status == 0

    def test_version_mismatch_rejected(self, tmp_path):
        from repro.quality import load_baseline

        stale = tmp_path / "b.json"
        stale.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError, match="version"):
            load_baseline(stale)


class TestSelfGate:
    def test_src_repro_is_clean(self):
        """The codebase passes its own linter — zero findings, no noqa debt."""
        package_root = Path(repro.__file__).parent
        result = analyze_paths([str(package_root)])
        assert result.findings == [], "\n".join(str(f) for f in result.findings)
        assert len(result.files) > 50  # sanity: the walk actually saw the tree

    def test_lock_graph_export_is_meaningful(self, tmp_path):
        """The RPR504 graph over src/repro names the real locks and has
        no cycles — the artifact CI uploads is not an empty stub."""
        from repro.cli import main as cli_main

        package_root = Path(repro.__file__).parent
        out = tmp_path / "lock-graph.json"
        status = cli_main([
            "lint-code", str(package_root),
            "--select", "RPR504", "--lock-graph-out", str(out),
        ])
        assert status == 0
        doc = json.loads(out.read_text())
        assert doc["version"] == 1
        nodes = {n["id"] for n in doc["nodes"]}
        assert any("MetricsRegistry" in n for n in nodes)
        assert any("LockSanitizer" in n for n in nodes)
        assert doc["cycles"] == []
        assert len(doc["edges"]) >= 1
