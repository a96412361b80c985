#!/usr/bin/env bash
# Address/UB sanitizer sweep (registered with ctest as `check_asan`):
# builds the (de)serialization-heavy test binaries in a dedicated build
# tree configured with -DGKS_SANITIZE=address,undefined and runs the
# suites that parse attacker-shaped bytes — varint and LZ decoding, the
# block-postings codec, the on-disk index readers (v1 and v2), JSON and
# the wire protocol, hostile shard partials — plus the
# partial-merge core those partials feed, segment-set search with its
# tombstone masking, the file reader and atomic writer every persisted
# byte goes through, the node store: its owned-value walk behind DI,
# facets and chunks, and the parent rows every ancestor walk follows,
# over hostile node sections too, and the anchor-probe depth count. Any
# ASan/UBSan report fails the run.
#
# The build tree (<repo>/build-asan) is incremental: the first run pays a
# full compile, later runs only relink what changed.
#
# Usage: check_asan.sh [repo-root]   (defaults to the script's parent)

set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
build="$root/build-asan"

# Probe: some toolchains ship the compiler flag but not the runtime.
probe_dir="$(mktemp -d)"
trap 'rm -rf "$probe_dir"' EXIT
cat > "$probe_dir/probe.cc" <<'EOF'
#include <cstdlib>
int main() { return EXIT_SUCCESS; }
EOF
if ! c++ -fsanitize=address,undefined -o "$probe_dir/probe" \
    "$probe_dir/probe.cc" 2>/dev/null || ! "$probe_dir/probe" 2>/dev/null; then
  echo "check_asan: SKIPPED — toolchain cannot build/run -fsanitize=address"
  exit 0
fi

cmake -S "$root" -B "$build" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DGKS_SANITIZE=address,undefined >/dev/null
cmake --build "$build" -j "$(nproc)" \
  --target common_test index_test server_test property_test core_test \
  >/dev/null

# A sanitizer report aborts with a non-zero exit.
export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"

"$build/tests/common_test" \
  --gtest_filter='Varint*:FileIo*:Lz*:JsonValueTest.*:JsonReaderTest.*:JsonWriterTest.*' \
  --gtest_brief=1
"$build/tests/index_test" \
  --gtest_filter='PostingBlocks*:Serialization*:GoldenIndex*:PostingList*' \
  --gtest_brief=1
# Real-time update path: WAL frames are crash-shaped bytes by design
# (torn tails, flipped CRCs), and RtIndex replays them plus docstore
# blobs end to end.
"$build/tests/index_test" \
  --gtest_filter='Wal*:RtIndex*:SizeTier*:PickMergeInputs*:MergeDocstores*' \
  --gtest_brief=1
# Wire lines from clients and shard workers: line framing, request
# parsing, response building, and the coordinator decoding hostile
# partials, which must come back as a Status, never a crash.
"$build/tests/server_test" \
  --gtest_filter='LineReaderTest.*:ParseWireRequestTest.*:WireResponseBuilderTest.*:CoordinatorTest.FakeWorkerPartialDecodes:CoordinatorTest.HostilePartialsAreShardUnavailable:CoordinatorTest.NonLceContributionsLeaveDiUnchanged' \
  --gtest_brief=1
# The partial-merge core over shard partials, the DI and rank oracles
# over the single-index path it shares, the node store's parent rows
# on every way a table is built (sorted, decoded, appended, per segment),
# and the anchor-probe depth count against the merge path, on ids deeper
# than 64 components too.
"$build/tests/property_test" \
  --gtest_filter='*ShardEquivalence*:ShardTieBreaking.*:ShardWireEncoding.*:DiOracle.*:RankOracle.*:*ParentRowInvariants*:*ProbeDepthCount*' \
  --gtest_brief=1
# The node store's owned-value walk, through its callers: DI, facets and
# chunks over a real index; a node section with a missing level and
# postings that are no rows, whose ancestor walks follow parent rows; and
# segment-set search, whose partials index the segments and mask
# tombstoned documents.
"$build/tests/core_test" \
  --gtest_filter='AnalyticsTest.*:ChunkTest.*:DiUnits.*:Figure2aSearch.*:HostileNodeSection.*:SegmentSearchTest.*' \
  --gtest_brief=1

echo "check_asan: OK"
