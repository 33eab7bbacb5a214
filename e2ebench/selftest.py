"""Self-tests of the benchmark (not part of the program's test suite).

    python3 e2ebench/selftest.py

* ``BENCHMARK.json`` declares exactly the metric names and units the
  benchmark emits;
* a one-second run (``--seconds 1``) of each workload on its full-size
  corpus, untraced and traced, passes its checks and emits every
  end-to-end / per-layer name with its unit;
* one seed replays the same op sequence and another seed changes it.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest

import common

WORKLOADS = ("report", "scale-ingest", "serve-mixed")


def _declared(kind: str) -> dict:
    doc = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


class Declaration(unittest.TestCase):
    def test_benchmark_json_matches_emitted_names(self):
        self.assertEqual(_declared("end_to_end"), common.END_TO_END)
        self.assertEqual(_declared("per_layer"), common.PER_LAYER)
        doc = json.loads((common.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in doc["workloads"]], list(WORKLOADS))


class SmokeRuns(unittest.TestCase):
    def _run(self, workload: str, trace: int) -> dict:
        proc = subprocess.run(
            [sys.executable, str(common.BENCH_DIR / "run.py"),
             "--workload", workload, "--seed", "3", "--seconds", "1",
             "--trace", str(trace)],
            cwd=common.ROOT, capture_output=True, text=True, timeout=600,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def _check(self, workload: str, trace: int, units: dict) -> None:
        res = self._run(workload, trace)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        self.assertEqual(got, units)

    def test_end_to_end_names(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self._check(workload, 0, common.END_TO_END)

    def test_per_layer_names(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self._check(workload, 1, common.PER_LAYER)


class SeededPlans(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(common.SRC))
        from repro.curriculum import load_cs2013

        import inputs

        cls.courses = inputs.labelled_corpus(load_cs2013(), 40, 2023)

    def _assert_seeded(self, make):
        self.assertEqual(make(1), make(1))
        self.assertNotEqual(make(1), make(2))

    def test_report_edits(self):
        import report_wl

        self._assert_seeded(lambda s: report_wl.plan(s, 2, self.courses))

    def test_scale_ops(self):
        import scale_wl

        half = len(self.courses) // 2
        self._assert_seeded(lambda s: scale_wl.plan(
            s, 2, self.courses[:half], self.courses[half:]))

    def test_serve_requests(self):
        import serve_wl

        self._assert_seeded(lambda s: serve_wl.plan(s, 2, self.courses))

    def test_generated_courses_are_labelled(self):
        labels = {lab.value for c in self.courses for lab in c.labels}
        self.assertTrue({"CS1", "DS", "PDC"} <= labels)


if __name__ == "__main__":
    common.pin_environment()
    unittest.main()
