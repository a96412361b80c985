#!/usr/bin/env bash
# Bench smoke (registered with ctest as `check_bench_smoke`): every bench
# binary runs one tiny configuration and must exit 0 with non-empty
# output. No timing assertions — the point is that the bench suite cannot
# silently rot (a bench that aborts, FATALs on a query, or trips its own
# result-identity check fails here), while staying fast enough for every
# ctest run. GKS_BENCH_SCALE=0.02 shrinks each corpus to toy size.
#
# The binaries to run are the arguments: bench/CMakeLists.txt passes
# exactly the benches it defines, so a stale binary that a removed bench
# left in the build tree is never run, and a listed bench that is missing
# fails.
#
# Usage: check_bench_smoke.sh <bench-binary>...

set -euo pipefail

fail() { echo "check_bench_smoke: FAILED — $*" >&2; exit 1; }

[[ $# -gt 0 ]] || fail "usage: check_bench_smoke.sh <bench-binary>..."

for binary in "$@"; do
  name="$(basename "$binary")"
  [[ -f "$binary" && -x "$binary" ]] \
      || fail "$binary is missing or not executable"
  out="$(GKS_BENCH_SCALE=0.02 "$binary" 2>&1)" \
      || fail "$name exited non-zero:
$out"
  [[ -n "$out" ]] || fail "$name produced no output"
done

echo "check_bench_smoke: OK ($# benches)"
