#ifndef GKS_CORE_PLANNER_H_
#define GKS_CORE_PLANNER_H_

#include <cstdint>

#include "core/plan.h"
#include "core/probe_eval.h"
#include "core/query.h"
#include "index/xml_index.h"

namespace gks {

/// The planner's output: the decision, with the statistics it was made
/// from, for --explain.
struct PlannerDecision {
  PlanInfo info;
  /// Always empty; kept only because perfbench/traced.cc passes it to
  /// ProbeEvaluator.
  ProbeOptions probe;
};

/// Inspects per-term posting-list statistics (document frequency and
/// document span — O(1) reads of each list's size and first and last id)
/// and picks an execution strategy:
///
///   merge — near-uniform list sizes, or too little data for seek
///           overhead to pay off: the PR 2 k-way merge kernel.
///   probe — skewed sizes: anchor-probe evaluation driven by the n-s+1
///           smallest lists, visiting only the entries that window end
///           events and response subtrees touch.
///
/// `requested` != kAuto forces the strategy (every strategy is exact for
/// any s/n, so forcing is always safe — just possibly slower). The
/// heuristic thresholds and measured crossover points are documented in
/// docs/PERFORMANCE.md. `effective_s` is the already-clamped threshold.
///
/// `top_k` > 0 requests the orthogonal top-k axis (PlanInfo::topk). It
/// engages — the block-max evaluator substitutes for the chosen strategy
/// at execution time — only when the estimated anchor postings exceed
/// `topk_scan_floor`; below that bound the candidate set is so small that
/// full scoring plus truncation wins, so the planner leaves the axis
/// disengaged and the searcher truncates instead. Both paths return the
/// identical k best nodes (docs/PERFORMANCE.md); `topk.reason` records
/// the decision either way.
PlannerDecision ChoosePlan(const XmlIndex& index, const Query& query,
                           uint32_t effective_s, PlanMode requested,
                           uint32_t top_k = 0,
                           uint64_t topk_scan_floor = kTopKFullScanPostings);

}  // namespace gks

#endif  // GKS_CORE_PLANNER_H_
