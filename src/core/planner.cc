#include "core/planner.h"

#include <algorithm>
#include <cstdio>

namespace gks {
namespace {

// Probe only pays for itself when the big lists are genuinely big (block
// seeks and event processing have per-query overhead the merge kernel
// doesn't) and the anchor union is genuinely small relative to them. The
// crossover measurements behind these values are in docs/PERFORMANCE.md.
constexpr uint64_t kMinProbePostings = 4096;  // largest list must exceed
constexpr uint64_t kSkewFactor = 8;           // largest / anchors ratio

// Document span covered by a list: catalog documents between its first
// and last posting.
uint32_t DocSpanOf(const PostingList& list) {
  if (list.empty()) return 0;
  return list.last_id().data[0] - list.first_id().data[0] + 1;
}

}  // namespace

PlannerDecision ChoosePlan(const XmlIndex& index, const Query& query,
                           uint32_t effective_s, PlanMode requested,
                           uint32_t top_k, uint64_t topk_scan_floor) {
  PlannerDecision out;
  PlanInfo& info = out.info;
  info.requested = requested;

  const size_t n = query.size();
  info.topk.k = top_k;  // engagement decided below, after the anchor estimate
  info.atoms.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const QueryAtom& atom = query.atoms()[i];
    PlanAtomStats stats;
    stats.keyword = atom.raw;
    // Phrase/tag atoms intersect or filter their token lists at execution
    // time; the smallest token list is a sound upper bound for planning.
    stats.estimated =
        atom.terms.size() > 1 || !atom.tag_constraint.empty();
    const PostingList* bound = nullptr;
    for (const std::string& term : atom.terms) {
      const PostingList* list = index.inverted.Find(term);
      if (list == nullptr) {  // some token never occurs: empty atom list
        bound = nullptr;
        break;
      }
      if (bound == nullptr || list->size() < bound->size()) bound = list;
    }
    if (bound != nullptr) {
      stats.postings = bound->size();
      stats.doc_span = DocSpanOf(*bound);
    }
    info.atoms.push_back(std::move(stats));
  }

  // Anchor estimate: the n-s+1 smallest lists (the set the probe
  // evaluator will drive; it re-derives the exact set once phrase/tag
  // atoms are resolved, but the planning estimate uses the same rule).
  std::vector<uint32_t> order(n);
  for (uint32_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (info.atoms[a].postings != info.atoms[b].postings) {
      return info.atoms[a].postings < info.atoms[b].postings;
    }
    return a < b;
  });
  const size_t anchor_count =
      n >= effective_s ? n - effective_s + 1 : n;
  uint64_t anchor_total = 0;
  uint64_t largest = 0;
  for (size_t k = 0; k < n; ++k) {
    if (k < anchor_count) {
      info.atoms[order[k]].anchor = true;
      anchor_total += info.atoms[order[k]].postings;
    }
    largest = std::max(largest, info.atoms[k].postings);
  }
  info.largest_postings = largest;
  info.anchor_postings = anchor_total;
  info.skew = static_cast<double>(largest) /
              static_cast<double>(anchor_total > 0 ? anchor_total : 1);

  // The top-k axis is orthogonal to the strategy choice: any strategy
  // produces the same nodes, so a bounded result set can be served by the
  // block-max evaluator instead. But the segment loop only pays when
  // there is work to skip: every valid window intersects the anchor set
  // (pigeonhole), so `anchor_total` bounds the full candidate count — at
  // or below the scan floor the evaluator's per-segment bookkeeping costs
  // more than scoring everything and truncating (the skewed-query
  // regression in BENCH history), so the axis stays disengaged and the
  // searcher truncates the ranked nodes instead. The strategy below is
  // still chosen and reported — on the engaged path it documents what a
  // full evaluation would have run.
  if (top_k > 0 && n > 0) {
    char treason[160];
    if (anchor_total <= topk_scan_floor) {
      std::snprintf(treason, sizeof(treason),
                    "top-%u requested, but anchor postings %llu <= %llu "
                    "bound the candidates: full scoring + truncation is "
                    "cheaper",
                    top_k, static_cast<unsigned long long>(anchor_total),
                    static_cast<unsigned long long>(topk_scan_floor));
      info.topk.engaged = false;
    } else {
      std::snprintf(treason, sizeof(treason),
                    "top-%u requested: block-max evaluator with rank-bound "
                    "early termination",
                    top_k);
      info.topk.engaged = true;
    }
    info.topk.reason = treason;
  }

  if (n == 0) {  // degenerate query: nothing to probe, even when forced
    info.strategy = PlanMode::kMerge;
    info.reason = "empty query";
    return out;
  }

  char reason[160];
  switch (requested) {
    case PlanMode::kMerge:
      info.strategy = PlanMode::kMerge;
      info.reason = "forced by plan=merge";
      return out;
    case PlanMode::kProbe:
      info.strategy = PlanMode::kProbe;
      info.reason = "forced by plan=probe";
      return out;
    case PlanMode::kAuto:
      break;
  }

  if (n < 2) {
    info.strategy = PlanMode::kMerge;
    info.reason = "single keyword: merge is a plain list copy";
  } else if (largest < kMinProbePostings) {
    std::snprintf(reason, sizeof(reason),
                  "largest list %llu postings < %llu: seek overhead "
                  "would dominate",
                  static_cast<unsigned long long>(largest),
                  static_cast<unsigned long long>(kMinProbePostings));
    info.strategy = PlanMode::kMerge;
    info.reason = reason;
  } else if (anchor_total * kSkewFactor > largest) {
    std::snprintf(reason, sizeof(reason),
                  "near-uniform lists (anchors %llu vs largest %llu): "
                  "k-way merge streams fastest",
                  static_cast<unsigned long long>(anchor_total),
                  static_cast<unsigned long long>(largest));
    info.strategy = PlanMode::kMerge;
    info.reason = reason;
  } else {
    std::snprintf(reason, sizeof(reason),
                  "skew %.0fx: probe from %llu anchor postings",
                  info.skew, static_cast<unsigned long long>(anchor_total));
    info.strategy = PlanMode::kProbe;
    info.reason = reason;
  }
  return out;
}

}  // namespace gks
