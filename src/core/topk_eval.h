#ifndef GKS_CORE_TOPK_EVAL_H_
#define GKS_CORE_TOPK_EVAL_H_

#include <cstdint>
#include <vector>

#include "core/arena.h"
#include "core/lce.h"
#include "core/query.h"
#include "index/xml_index.h"

namespace gks {

/// Work counters of one top-k evaluation (surfaced through PlanInfo::topk,
/// explain output, and the gks.search.topk.* registry counters).
struct TopKStats {
  uint64_t segments = 0;               // document segments examined
  uint64_t segments_pruned_sparse = 0; // skipped: < s distinct atoms possible
  uint64_t segments_pruned_bound = 0;  // skipped: rank bound below the k-th
  uint64_t blocks_skipped = 0;         // posting blocks bypassed unvisited
  uint64_t docs_skipped = 0;           // documents never evaluated
};

struct TopKResult {
  /// At most k nodes, already in the searcher's final order (rank desc,
  /// keyword count desc, id asc). Identical to what the full pipeline
  /// would return after sorting and truncating to k.
  std::vector<GksNode> nodes;
  size_t merged_list_size = 0;  // summed over evaluated segments only
  size_t candidate_count = 0;   // summed over evaluated segments only
  TopKStats stats;
};

/// WAND-style block-max evaluator for --top-k queries (see
/// docs/PERFORMANCE.md). Walks the corpus document by document behind one
/// driver cursor per atom (its smallest token list) and, per document
/// segment, either
///   - skips it: fewer than s atoms can occur in it (sparse), or a bounded
///     top-k heap is full and the segment's rank upper bound — computed
///     from the rank_bounds section's per-block max term weights — cannot
///     beat the current k-th score (bound); skips jump whole posting
///     blocks without visiting their ids; or
///   - evaluates it: the document's occurrences run through the exact
///     merge -> window -> LCE -> rank pipeline the full evaluators use.
///
/// Results are bit-identical to full evaluation followed by
/// sort-and-truncate-to-k: segments are only skipped when provably no node
/// in them can enter the top k (bound skips compare strictly, so k-th
/// ties are never dropped), and cross-document windows contribute no
/// candidates (their common prefix is empty). A v2 index without the
/// rank_bounds section still works — bounds read as weight 1.0, so only
/// sparse skips fire.
///
/// `s` must already be clamped (the searcher's effective s); `k` > 0.
TopKResult EvaluateTopK(const XmlIndex& index, const Query& query, uint32_t s,
                        uint32_t k, QueryArena* arena);

}  // namespace gks

#endif  // GKS_CORE_TOPK_EVAL_H_
