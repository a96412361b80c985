#!/usr/bin/env python3
"""Self-test of the benchmark at toy size (about two minutes):

  1. each workload runs twice with one seed and --trace 1; the traced
     pass's work counters must repeat exactly (they are host-independent);
  2. each workload runs with --corrupt-answer, which alters one recorded
     answer (or one acknowledged insert's lookup) before the correctness
     gate; the run must report "correct": false.

    python3 perfbench/selftest.py

Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build step is shared)

WORKLOADS = ["serve_cold", "cluster_zipf", "rt_mixed"]
TOY = ["--articles", "1600", "--seconds", "1", "--traced-queries", "24",
       "--traced-inserts", "600"]
# Work counters of the traced pass; times are not compared.
COUNTERS = [
    "index.bytes", "core.sl_entries", "core.candidates", "core.nodes",
    "core.blocks_decoded", "core.probe_gathered_postings",
    "core.topk_blocks_skipped", "core.plan.merge", "core.plan.probe",
    "core.plan.hybrid", "coord.partial_bytes", "coord.partial_nodes",
    "rt.flushes", "rt.merges", "rt.disk_segments_end",
]


def bench(binary, workload, extra):
    workdir = os.path.join(run.build_dir(), "work", f"selftest-{workload}")
    try:
        out = subprocess.run(
            [binary, "--workload", workload, "--seed", "7", "--workdir",
             workdir] + TOY + extra,
            stdout=subprocess.PIPE, text=True, timeout=run.RUN_TIMEOUT_S,
            check=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    binary = run.build()
    failures = []
    for workload in WORKLOADS:
        first, second = (bench(binary, workload, ["--trace", "1"])
                         for _ in range(2))
        for name in COUNTERS:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            status = "ok" if a == b else "DIFFERS"
            print(f"{workload:13s} {name:30s} {a:>14} {b:>14} {status}")
            if a != b:
                failures.append(f"{workload} {name}: {a} != {b}")
        if not (first["correct"] and second["correct"]):
            failures.append(f"{workload}: clean run reported incorrect")
        corrupted = bench(binary, workload,
                          ["--trace", "0", "--corrupt-answer"])
        caught = not corrupted["correct"] and corrupted["failed"] >= 1
        print(f"{workload:13s} corrupted answer caught: {caught}")
        if not caught:
            failures.append(f"{workload}: corrupted answer not caught")
    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
