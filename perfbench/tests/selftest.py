#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at a short run length.

    python3 perfbench/tests/selftest.py        # from the repository root

For every workload it runs perfbench/run.py untraced and traced for one
second and checks that the result line is well formed, that
it carries exactly the named end-to-end (untraced) or per-layer (traced)
metrics with their units, that every correctness check passed and no op
failed, and that serve and serve-threads print the same model digest.
"""

import json
import math
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7
# serve-threads is not in BENCHMARK.json (see perfbench/README.md), but it
# must still run clean and reproduce serve's model digest.
WORKLOADS = ("serve", "serve-threads", "churn")


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {workload} --trace {trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout.strip().splitlines()


class BenchmarkSelfTest(unittest.TestCase):
    def check_result(self, lines, metric_specs):
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], "\n".join(lines))
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metric_specs})
        for m in metric_specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        for line in lines:
            self.assertNotIn(": FAIL", line)
        return result

    def test_workloads(self):
        digests = {}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines = run_bench(workload, 0)
                result = self.check_result(lines, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])
                self.assertTrue(any(line.startswith("host: nproc=") for line in lines))
                digest = next(re.search(r"model_digest=(\w+)", line).group(1)
                              for line in lines if "model_digest=" in line)
                digests[workload] = digest
                traced = run_bench(workload, 1)
                self.check_result(traced, SPEC["per_layer"])
                self.assertIn(f"model_digest={digest}", "\n".join(traced))
        self.assertEqual(digests["serve"], digests["serve-threads"])


if __name__ == "__main__":
    unittest.main()
