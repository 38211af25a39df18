#!/usr/bin/env python3
"""End-to-end serving benchmark: builds e2e_bench, runs one workload, reports.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 50 --trace 0

Run it from the repository root. The first run configures and builds the
library and the benchmark (Release) into .bench_build/. The run prints its
host context, the workload's input properties, its model digest, every check
and every metric with its unit, and, as the last line of stdout, one JSON
object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones of a traced run. Their names and units are those listed
in BENCHMARK.json. It exits non-zero, printing no result,
when the build fails, the build is not Release, or the benchmark fails.
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "e2e_bench"
WORKLOADS = ("serve", "serve-threads", "churn")
RUN_TIMEOUT_S = 170


def metric_units(kind):
    """Name -> unit of BENCHMARK.json's `end_to_end` or `per_layer` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def build():
    """Configures (once) and builds e2e_bench; build output goes to stderr."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2e_bench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))


def host_context(result):
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"host: nproc={os.cpu_count()} loadavg={load} "
            f"compiler={result['compiler']!r} build_type={result['build_type']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    cmd = [str(BINARY), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if args.trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"e2e_bench exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["build_type"] != "Release":
        raise RuntimeError(f"refusing to report from a {result['build_type']} build")

    print(host_context(result))
    if "repeat_shape_share" in result:
        print(f"input: repeat_shape_share={result['repeat_shape_share']:.4f}")
    else:
        print(f"input: l1_oversubscription={result['l1_oversubscription']}")
    print(f"model_digest={result['model_digest']} episodes={result['episodes']:.0f} "
          f"op_samples={result['op_samples']:.0f}")
    for check, ok in result["checks"].items():
        print(f"check {check}: {'pass' if ok else 'FAIL'}")
    print(f"failed_op_share={result['failed_op_share']:.6g} "
          f"({result['failed']:.0f} of {result['attempted']:.0f} ops)")

    e2e = {name: {"value": result["metrics"][name], "unit": unit}
           for name, unit in metric_units("end_to_end").items()}
    metrics = e2e
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in metric_units("per_layer").items()}
    for name, m in (e2e | metrics).items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")

    print(json.dumps({
        "correct": all(result["checks"].values()),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(1)
