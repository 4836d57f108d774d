#!/usr/bin/env python3
"""Builds and runs the jsonsi end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (the jsonsi libraries plus
the benchmark binary) into $CARGO_TARGET_DIR/perfbench, by default
.bench_build/perfbench; later runs reuse that build. The binary's output is passed through: every
metric by name with unit and sample count, then, as the last line, the JSON
result {"correct", "attempted", "failed", "metrics"}. Exits non-zero, without
a result line, when the build or the run fails. See perfbench/README.md.
"""

import argparse
import glob
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(out_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    binary = os.path.join(out_dir, "jsonsi_perfbench")
    return binary if os.path.exists(binary) else None


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int)
            and result["attempted"] >= 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    # The binary checks the name against its workloads.
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    # Self-test levers, passed through to the binary (perfbench/selftest.py).
    parser.add_argument("--records", type=int)
    parser.add_argument("--corrupt-reference", action="store_true")
    parser.add_argument("--keep-caches", action="store_true")
    parser.add_argument("--misorder-probes", action="store_true")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    work_dir = os.path.join(out_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir]
    if args.records:
        cmd += ["--records", str(args.records)]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    if args.keep_caches:
        cmd.append("--keep-caches")
    if args.misorder_probes:
        cmd.append("--misorder-probes")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        for corpus in glob.glob(os.path.join(work_dir, "*.jsonl")):
            os.remove(corpus)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not valid_result(lines[-1]):
        sys.stderr.write(proc.stdout)
        print("perfbench: run failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
