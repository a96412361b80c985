#ifndef GKS_CORE_SHARD_MERGE_H_
#define GKS_CORE_SHARD_MERGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/di.h"
#include "core/partial_merge.h"
#include "core/plan.h"
#include "core/query.h"
#include "core/searcher.h"

namespace gks {

/// Coordinator-side scatter-gather merge (docs/DISTRIBUTED.md).
///
/// Each shard worker runs the full single-index pipeline over its
/// document range with the cross-shard stages disabled (`"shard": true`
/// on the wire maps to discover_di = suggest_refinements = false,
/// max_results = 0, so a worker returns its one segment's partial).
/// MergeShardResults is an adapter over the one partial-merge
/// core (core/partial_merge.h): each shard is one partial, and the core
/// re-establishes the global order and runs the cross-shard stages from
/// partition-independent inputs:
///
///   - Ranks travel as exact IEEE-754 bit patterns (`rank_bits`), not the
///     3-decimal display doubles, so sort order, refinement subset scores
///     and DI weight sums are bit-identical to a single-index run.
///   - A node's DI is the contribution list (attribute tag name, value
///     string, path) its shard resolved; the core's DiAccumulator sums
///     them in merged order, as it sums an index walk's occurrences.
///   - Refinements derive from the merged nodes (keyword masks travel on
///     the wire) and the merged DI.
///
/// The property suite (tests/property/shard_equivalence_test.cc) pins the
/// whole response — ordering, ranks, DI, refinements, top-k — against the
/// single-index oracle across shard counts and backends.

/// One ranked node as a shard reported it: the engine node plus the
/// display strings and DI contributions only the owning shard can
/// resolve. Display strings are empty past the shard's local top
/// `max_results`, where no merged answer can reach.
struct ShardResultNode {
  GksNode node;
  std::string doc_name;
  std::string describe;
  std::vector<DiContribution> di;
};

/// One shard's partial result.
struct ShardPartialResult {
  std::vector<ShardResultNode> nodes;  // in the shard's own rank order
  uint64_t merged_list_size = 0;
  uint64_t candidate_count = 0;
  PlanMode plan = PlanMode::kAuto;
  uint64_t epoch = 0;
};

/// The merged, client-facing result: the engine response plus the
/// per-node display strings (aligned with response.nodes).
struct MergedShardResult {
  SearchResponse response;
  std::vector<std::string> doc_names;
  std::vector<std::string> describes;
  uint64_t epoch = 0;  // max shard epoch
};

/// Merges shard partials with MergePartials, carrying each surviving
/// node's `doc` and `describe` along. `options` is the client's request
/// (s / top / top_k / di / refine); partials may arrive in any order and
/// may be fewer than the full topology (degraded responses drop missing
/// shards — the caller decides whether that is acceptable).
MergedShardResult MergeShardResults(const Query& query,
                                    const SearchOptions& options,
                                    std::vector<ShardPartialResult> partials);

/// Exact double <-> wire encoding: lowercase hex of the IEEE-754 bit
/// pattern (16 digits). The display `rank` field stays the human-readable
/// 3-decimal double; these carry the lossless value.
std::string EncodeDoubleBits(double value);
bool DecodeDoubleBits(const std::string& hex, double* value);
std::string EncodeMaskBits(uint64_t mask);
bool DecodeMaskBits(const std::string& hex, uint64_t* mask);

}  // namespace gks

#endif  // GKS_CORE_SHARD_MERGE_H_
