#!/usr/bin/env bash
# ThreadSanitizer sweep (registered with ctest as `check_tsan`): builds the
# concurrency-sensitive test binaries in a dedicated build tree configured
# with -DGKS_SANITIZE=thread and runs the suites that exercise the thread
# pool, SearchBatch fan-out, the parallel index build, segment-set search
# and the query server (accept loop, admission control, hot reload,
# drain, the response cache under concurrent repeats). Any data race TSan
# reports fails the run.
#
# The build tree (<repo>/build-tsan) is incremental: the first run pays a
# full compile, later runs only relink what changed.
#
# Usage: check_tsan.sh [repo-root]   (defaults to the script's parent)

set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
build="$root/build-tsan"

# Probe: some toolchains ship the compiler flag but not libtsan.
probe_dir="$(mktemp -d)"
trap 'rm -rf "$probe_dir"' EXIT
cat > "$probe_dir/probe.cc" <<'EOF'
#include <thread>
int main() { std::thread t([] {}); t.join(); return 0; }
EOF
if ! c++ -fsanitize=thread -o "$probe_dir/probe" "$probe_dir/probe.cc" \
    2>/dev/null || ! "$probe_dir/probe" 2>/dev/null; then
  echo "check_tsan: SKIPPED — toolchain cannot build/run -fsanitize=thread"
  exit 0
fi

cmake -S "$root" -B "$build" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DGKS_SANITIZE=thread >/dev/null
cmake --build "$build" -j \
  --target common_test core_test index_test integration_test server_test \
  >/dev/null

# Second-guess nothing: a TSan report aborts with a non-zero exit.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"

"$build/tests/common_test" \
  --gtest_filter='ThreadPool*:ParallelFor*' --gtest_brief=1
# Segment-set search: per-segment partials into the partial-merge core,
# with the process-wide metrics and thread-local arenas it touches.
"$build/tests/core_test" \
  --gtest_filter='SegmentSearchTest.*' --gtest_brief=1
"$build/tests/integration_test" \
  --gtest_filter='Concurrency*:ParallelDeterminism*' --gtest_brief=1
"$build/tests/server_test" \
  --gtest_filter='ServerIntegration*:ResponseCacheServerTest.ConcurrentRepeatsEqualTheColdReply' \
  --gtest_brief=1
# Real-time path: commits racing the background flusher/merger inside
# RtIndex, and wire writes racing queries across server threads.
"$build/tests/index_test" \
  --gtest_filter='RtIndex*' --gtest_brief=1
"$build/tests/server_test" \
  --gtest_filter='RtServer*' --gtest_brief=1

echo "check_tsan: OK"
