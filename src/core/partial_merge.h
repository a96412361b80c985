#ifndef GKS_CORE_PARTIAL_MERGE_H_
#define GKS_CORE_PARTIAL_MERGE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/di.h"
#include "core/lce.h"
#include "core/plan.h"
#include "core/query.h"
#include "core/searcher.h"

namespace gks {

/// The one partial-merge core. A *partial* is one ranked answer from one
/// index: the single index gives one, a real-time snapshot one per segment
/// (core/segment_search.h), a coordinator decodes one per shard
/// (core/shard_merge.h). Every decision those three paths share is made
/// here, once: the result order, the effective s, how partials combine,
/// and the stages that follow ranking — the top_k cut, DI, refinements
/// and the max_results cut. Ranks are potential-flow scores (Sec. 5),
/// functions of a node's own subtree, so ranks from different indexes
/// compare directly and the merged answer equals a single index's.

/// The result order: potential-flow rank desc, keyword count desc, Dewey
/// id asc. Total, because Dewey ids are unique (also across segments and
/// shards, which partition the documents).
inline bool RanksBefore(const GksNode& a, const GksNode& b) {
  if (a.rank != b.rank) return a.rank > b.rank;
  if (a.keyword_count != b.keyword_count) {
    return a.keyword_count > b.keyword_count;
  }
  return a.id < b.id;
}

/// The paper's s clamped to the query: min(s, |Q|), where s = 0 means |Q|
/// (classic AND semantics).
uint32_t EffectiveS(const Query& query, const SearchOptions& options);

/// One ranked answer from one index, before the cross-partial stages.
struct Partial {
  std::vector<GksNode> nodes;  // any order
  size_t merged_list_size = 0;
  size_t candidate_count = 0;
  PlanInfo plan;
};

/// Where a merged node came from: partials[partial].nodes[position].
struct NodeOrigin {
  uint32_t partial = 0;
  uint32_t position = 0;
};

/// How a merged node's DI is found: feeds the node's attribute
/// occurrences into `acc`. Called in merged order, only for nodes that
/// give DI (GivesDi).
using DiSource = std::function<void(NodeOrigin origin, const GksNode& node,
                                    DiAccumulator* acc)>;

struct MergedPartials {
  SearchResponse response;          // trace and timings left empty
  std::vector<NodeOrigin> origins;  // aligned with response.nodes
};

/// Merges partials into one response:
///   1. concatenates the nodes and sorts them by RanksBefore; sums
///      merged_list_size and candidate_count; takes the plan of the
///      partial with the largest merged_list_size (the first on ties);
///   2. cuts to options.top_k, counts LCE nodes;
///   3. discovers DI (span `di`) and refinements (span `refinement`) on
///      the cut nodes;
///   4. cuts to options.max_results.
MergedPartials MergePartials(const Query& query, const SearchOptions& options,
                             std::vector<Partial> partials,
                             const DiSource& di_source);

}  // namespace gks

#endif  // GKS_CORE_PARTIAL_MERGE_H_
