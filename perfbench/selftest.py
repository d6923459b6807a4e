"""Self-test of the benchmark harness on its smallest configuration.

    python3 perfbench/selftest.py

Each workload runs with ``--seconds 0``, so only its digest prefix,
untraced and then traced.  The test checks the result line against
BENCHMARK.json: every metric is present with its unit.  It also checks
that the spans file is well formed, and that without the program the
benchmark exits nonzero and prints no result.  It never looks at how
long anything took.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
SPAN_KEYS = {"id", "parent", "op", "name", "start_ns", "end_ns"}


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(REFERENCE["heldout_seed"]), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


class HarnessTest(unittest.TestCase):
    def check_result(self, proc: subprocess.CompletedProcess, metrics: list[dict]) -> None:
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 100)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in metrics})
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def check_spans(self, path: Path) -> None:
        spans = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        self.assertTrue(spans)
        by_id = {s["id"]: s for s in spans}
        self.assertEqual(len(by_id), len(spans))
        for s in spans:
            self.assertEqual(set(s), SPAN_KEYS)
            self.assertLessEqual(s["start_ns"], s["end_ns"])
            self.assertIsInstance(s["op"], int)
            if s["parent"] is None:
                self.assertTrue(s["name"].startswith("op."), s)
                continue
            parent = by_id[s["parent"]]
            self.assertEqual(parent["op"], s["op"])
            self.assertLessEqual(parent["start_ns"], s["start_ns"])
            self.assertLessEqual(s["end_ns"], parent["end_ns"])

    def test_workloads_emit_every_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_result(bench(ROOT, w["name"], 0), SPEC["end_to_end"])
                self.check_result(bench(ROOT, w["name"], 1), SPEC["per_layer"])
                self.check_spans(BENCH_DIR / "out" / f"spans-{w['name']}.jsonl")

    def test_every_layer_metric_is_mapped(self):
        layer_map = REFERENCE["layer_map"]
        names = {m["name"] for m in SPEC["end_to_end"]}
        workloads = {w["name"] for w in SPEC["workloads"]}
        for m in SPEC["per_layer"]:
            entry = layer_map[m["name"]]
            self.assertLessEqual(set(entry["moves"]), names)
            self.assertIn(entry["workload"], workloads | {"all"})

    def test_fails_without_the_program(self):
        (BENCH_DIR / "out").mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=BENCH_DIR / "out"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, bare / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench(bare, SPEC["workloads"][0]["name"], 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
