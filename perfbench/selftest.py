#!/usr/bin/env python3
"""Self-test of the benchmark's own checks, on small corpora.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Shows that:
  * a clean run is correct with ok_ratio 1 and prints every metric;
  * a wrong reference schema drives ok_ratio below 1;
  * caches left warm between ops fail the work-count check;
  * the work counts repeat exactly across two runs with the same seed;
  * the traced run's layer self times sum to the op's wall time, and
    probe times that do not nest fail the traced run;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SMALL = ["--records", "300", "--seconds", "0.5"]


def run(workload, *extra, trace="0", seed="7", cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", seed, "--trace", trace]
    cmd += SMALL + list(extra)
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1]) if proc.returncode == 0 else None
    counts = next((l for l in lines if l.startswith("counts ")), None)
    return proc, result, counts


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}

    batch = [w["name"] for w in spec["workloads"]]
    for workload in batch:
        proc, result, _ = run(workload)
        expect(result is not None and result["correct"] and
               result["metrics"]["ok_ratio"]["value"] == 1.0 and
               set(result["metrics"]) == e2e,
               workload + ": clean run is correct, reports every end-to-end "
               "metric, ok_ratio 1")
        proc, result, _ = run(workload, trace="1")
        expect(result is not None and result["correct"] and
               set(result["metrics"]) == layers,
               workload + ": traced run is correct (layer self times sum to "
               "the op's wall time, probes nest) and reports every per-layer "
               "metric")

    for workload in batch:
        proc, result, _ = run(workload, "--corrupt-reference")
        expect(result is not None and not result["correct"] and
               result["metrics"]["ok_ratio"]["value"] < 1.0,
               workload + ": a wrong reference drives ok_ratio below 1")

    for workload in batch:
        proc, result, _ = run(workload, "--keep-caches")
        # intern.misses is checked exactly even with parallel workers.
        expect(result is not None and not result["correct"] and
               "work counts differ" in proc.stderr and
               "intern.misses" in proc.stderr,
               workload + ": caches kept warm between ops fail the exact "
               "intern.misses check")

    for workload in batch:
        _, _, first = run(workload, seed="9")
        _, _, second = run(workload, seed="9")
        first_counts = {k: v for k, v in json.loads(first[7:]).items()
                        if k not in RACY}
        second_counts = {k: v for k, v in json.loads(second[7:]).items()
                         if k not in RACY}
        expect(first_counts == second_counts,
               workload + ": work counts repeat across runs with one seed")

    for workload in batch:
        proc, result, _ = run(workload, "--misorder-probes", trace="1")
        expect(result is not None and not result["correct"] and
               "do not nest" in proc.stderr,
               workload + ": probe times that do not nest fail the traced "
               "run")

    # Only BENCHMARK.json and perfbench/: no sources to build, so no result.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wikidata-parallel",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, env=env)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the sources the benchmark fails without a result")
    shutil.rmtree(bare, ignore_errors=True)
    return 0


# Counts that race between parallel workers (see perfbench/README.md).
RACY = {"intern.hits", "fusecache.hits", "fusecache.misses"}

if __name__ == "__main__":
    sys.exit(main())
