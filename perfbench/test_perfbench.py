#!/usr/bin/env python3
"""Tests for the benchmark itself, on the small-size smoke profile.

    python3 perfbench/test_perfbench.py

- every workload runs clean and prints every BENCHMARK.json metric, by name
  and with its unit, with tracing off and with tracing on;
- the correctness checks are not vacuous: a wrong expected verdict and a
  tampered certificate each count as failed operations;
- a directory holding only BENCHMARK.json and perfbench/ exits non-zero
  without printing a result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace=0, inject=None, cwd=ROOT, seed=3):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--profile", "smoke"]
    if inject:
        argv += ["--inject", inject]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, specs):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for spec in specs:
            metric = result["metrics"][spec["name"]]
            self.assertEqual(metric["unit"], spec["unit"], spec["name"])
            self.assertIsInstance(metric["value"], (int, float), spec["name"])

    def test_every_workload_prints_every_metric(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, specs in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(workload, trace=trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = result_of(proc)
                    self.check_metrics(result, specs)
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)


class NegativeTest(unittest.TestCase):
    def test_wrong_expected_verdict_counts_as_failure(self):
        proc = run_bench("many-small", inject="wrong-verdict")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = result_of(proc)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_tampered_certificate_counts_as_failure(self):
        proc = run_bench("proof-chain", inject="tamper-cert")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = result_of(proc)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("cfmproof-check", proc.stderr)


class BareDirectoryTest(unittest.TestCase):
    def test_refuses_without_the_repository(self):
        bare = ROOT / ".bench_work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("many-small", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
