#!/usr/bin/env python3
"""Build the optbench harness from source and run one workload.

Usage (from the repository root):
    python3 optbench/run.py --workload ring-cnf --seed 1 --seconds 20 --trace 0

The harness is configured and built with CMake under
$CARGO_TARGET_DIR/optbench (default .bench_build/optbench); later runs
only rebuild what changed. Build output goes to standard error.

Run time on a shared host varies mostly from process to process (the same
pass repeats within 1-2% inside one process, but 10-30% between
processes), so the run starts one harness process after another, each
running the workload's fixed request set once, until --seconds are used
(at least three processes), and reports the median of each metric across
them. The last line of standard output is the JSON result; the line before
it carries the host probe of the first and last process. A traced run also
writes each process's spans to <build dir>/spans-<workload>-<seed>-<k>.jsonl.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ring-cnf", "hier-pb-certify", "portfolio", "service-mix")
MIN_PROCESSES = 3


def build(build_dir):
    """Configure (once) and build the harness; returns its path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "optbench")


def run_process(cmd):
    """One harness process; returns (probe, result) or None on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        print("optbench: harness exited with %d" % proc.returncode, file=sys.stderr)
        return None
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "optbench")
    harness = build(build_dir)
    if harness is None:
        print("optbench: build failed", file=sys.stderr)
        return 2

    base = [harness, "--workload", args.workload, "--seed", str(args.seed),
            "--trace", args.trace, "--reference", os.path.join(HERE, "reference.txt")]
    probes, results = [], []
    end = time.monotonic() + args.seconds
    last = 0.0
    # Start another process only while it is expected to end in time.
    while len(results) < MIN_PROCESSES or time.monotonic() + last <= end:
        cmd = list(base)
        if args.trace == "1":
            cmd += ["--spans", os.path.join(build_dir, "spans-%s-%d-%d.jsonl"
                                            % (args.workload, args.seed, len(results)))]
        start = time.monotonic()
        out = run_process(cmd)
        if out is None:
            return 2
        last = time.monotonic() - start
        probes.append(out[0])
        results.append(out[1])
        if not out[1]["correct"]:
            break

    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values), "unit": first["unit"]}
    probe = {"host.calib_ms.start": probes[0]["host.calib_ms.start"],
             "host.calib_ms.end": probes[-1]["host.calib_ms.end"],
             "processes": len(results)}
    for name in ("host.calib_ms.start", "host.calib_ms.end"):
        if name in metrics:
            metrics[name]["value"] = probe[name]
    correct = all(r["correct"] for r in results)
    print(json.dumps(probe))
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
