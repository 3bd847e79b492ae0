#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is served_hl_point, served_mixed, batch_ch_paths, or `all` (runs the
three in turn and ends with one merged result line). The benchmark is
built from the sources in this checkout into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), its self-test runs, and the last line
of standard output is the JSON result. With --trace 1 the run's spans
are written next to the build as spans-<workload>-<seed>.jsonl.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["served_hl_point", "served_mixed", "batch_ch_paths"]
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "wire.h")):
        fail("no library sources next to the benchmark (expected src/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    if subprocess.run([os.path.join(out_dir, "perfbench_selftest")]).returncode:
        fail("self-test failed")


def expected_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(out_dir, workload, seed, seconds, trace):
    cmd = [os.path.join(out_dir, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--spans-out",
                os.path.join(out_dir, f"spans-{workload}-{seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        sys.exit(1)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        print(f"perfbench: {workload} exited {proc.returncode}",
              file=sys.stderr)
        sys.exit(1)
    result = json.loads(lines[-1])
    if list(result["metrics"]) != expected_names(trace):
        sys.stdout.write(proc.stdout)
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        sys.exit(1)
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    out_dir = build_dir()
    build(out_dir)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        table, result = run_one(out_dir, w, args.seed, args.seconds,
                                args.trace == 1)
        print("\n".join(table))
        if len(workloads) == 1:
            merged = result
            break
        print(json.dumps(result))
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{w}.{name}"] = m
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
