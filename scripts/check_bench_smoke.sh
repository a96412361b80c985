#!/usr/bin/env bash
# Bench smoke (registered with ctest as `check_bench_smoke`): every bench
# binary runs one tiny configuration and must exit 0 with non-empty
# output. No timing assertions — the point is that the bench suite cannot
# silently rot (a bench that aborts, FATALs on a query, or trips its own
# result-identity check fails here), while staying fast enough for every
# ctest run. GKS_BENCH_SCALE=0.02 shrinks each corpus to toy size; the
# google-benchmark binary runs one filtered micro with a tiny min_time.
#
# Usage: check_bench_smoke.sh <bench-build-dir>

set -euo pipefail

bench_dir="${1:?usage: check_bench_smoke.sh <bench-build-dir>}"

fail() { echo "check_bench_smoke: FAILED — $*" >&2; exit 1; }

# Every plain bench binary: the list is discovered, not hard-coded, so a
# new bench is covered the day it lands in bench/CMakeLists.txt.
ran=0
for binary in "$bench_dir"/*; do
  name="$(basename "$binary")"
  [[ -f "$binary" && -x "$binary" ]] || continue
  case "$name" in
    micro_core) continue ;;                  # google-benchmark: below
    CMakeFiles|*.cmake|Makefile) continue ;;
  esac
  out="$(GKS_BENCH_SCALE=0.02 "$binary" 2>&1)" \
      || fail "$name exited non-zero:
$out"
  [[ -n "$out" ]] || fail "$name produced no output"
  ran=$((ran + 1))
done
[[ "$ran" -ge 10 ]] || fail "only $ran bench binaries found in $bench_dir"

# One micro per run keeps this O(100ms); the filter anchors an exact name
# so a renamed benchmark fails loudly instead of matching nothing.
out="$("$bench_dir/micro_core" --benchmark_filter='^BM_PorterStem$' \
       --benchmark_min_time=0.01 2>&1)" \
    || fail "micro_core exited non-zero:
$out"
grep -q "BM_PorterStem" <<<"$out" \
    || fail "micro_core filter matched nothing:
$out"

echo "check_bench_smoke: OK ($((ran + 1)) binaries)"
