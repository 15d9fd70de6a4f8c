#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of Merlin).

Run from the repository root:

    python3 perfbench/tests/test_perfbench.py

* The probe oracle must pass the generated tables and report a failure once
  one forwarding rule is removed from a copy of them.
* Every metric named in BENCHMARK.json must be printed, with its unit and
  sample count, on every workload: end-to-end metrics with --trace 0 and
  per-layer metrics with --trace 1.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True,
                          text=True, timeout=600)


class ProbeOracle(unittest.TestCase):
    def test_broken_table_is_caught(self):
        result = run("--self-test")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("the broken table fails", result.stdout)
        self.assertNotIn("FAIL", result.stdout)


class MetricsPrinted(unittest.TestCase):
    def check(self, workload: str, trace: int, specs: list) -> None:
        result = run("--workload", workload, "--seed", "7", "--seconds", "2",
                     "--trace", str(trace))
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        lines = result.stdout.strip().splitlines()
        final = json.loads(lines[-1])
        self.assertEqual(set(final), {"correct", "attempted", "failed",
                                      "metrics"})
        self.assertTrue(final["correct"])
        self.assertGreaterEqual(final["attempted"], 1)
        self.assertEqual(final["failed"], 0)
        self.assertEqual(set(final["metrics"]), {s["name"] for s in specs})
        for spec in specs:
            name, unit = spec["name"], spec["unit"]
            self.assertEqual(final["metrics"][name]["unit"], unit, name)
            pattern = (rf"^{workload}: metric {re.escape(name)} = \S+ "
                       rf"{re.escape(unit)} \(n=\d+\)$")
            self.assertTrue(
                any(re.match(pattern, line) for line in lines),
                f"{name} not printed with unit {unit} and sample count")

    def test_end_to_end(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check(workload["name"], 0, SPEC["end_to_end"])

    def test_per_layer(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check(workload["name"], 1, SPEC["per_layer"])


if __name__ == "__main__":
    unittest.main()
