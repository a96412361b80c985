// The single-threaded traced pass: replays the benchmark's query stream
// through the public functions of each module (text, index, core,
// server, coordinator) and times every call from outside. Nothing inside
// the program is instrumented for it.

#ifndef GKS_PERFBENCH_TRACED_H_
#define GKS_PERFBENCH_TRACED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench.h"

namespace perfbench {

struct TracedInputs {
  std::string dir;               // scratch directory, created if missing
  const Corpus* corpus = nullptr;
  std::vector<BenchQuery> stream;  // replayed in order
  uint64_t seed = 0;
  size_t inserts = 0;            // documents for the real-time section
  /// Also assert that each class exercises its mechanism (skewed plans
  /// probe, topk skips blocks, di returns DI). Needs the full-size corpus.
  bool check_mechanisms = false;
};

/// Runs the pass and returns the per-layer metrics. Exits the process
/// (no result line) when the stage-by-stage replay disagrees with
/// GksSearcher::Search, when the wire or coordinator paths disagree with
/// the single-index answer, or when a class misses its mechanism.
Metrics RunTracedPass(const TracedInputs& inputs);

}  // namespace perfbench

#endif  // GKS_PERFBENCH_TRACED_H_
