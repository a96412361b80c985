#include "core/partial_merge.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <utility>

#include "common/trace.h"
#include "core/refinement.h"

namespace gks {
namespace {

/// Rearranges `*nodes` so that position i holds the node found at
/// (*order)[i], moving each node once along the permutation's cycles
/// rather than copying the array. Leaves `*order` as the identity.
void Permute(std::vector<uint32_t>* order, std::vector<GksNode>* nodes) {
  std::vector<uint32_t>& to = *order;
  std::vector<GksNode>& at = *nodes;
  for (uint32_t start = 0; start < to.size(); ++start) {
    if (to[start] == start) continue;
    GksNode first = std::move(at[start]);
    uint32_t hole = start;
    while (to[hole] != start) {
      const uint32_t next = to[hole];
      at[hole] = std::move(at[next]);
      to[hole] = hole;
      hole = next;
    }
    at[hole] = std::move(first);
    to[hole] = hole;
  }
}

}  // namespace

uint32_t EffectiveS(const Query& query, const SearchOptions& options) {
  const uint32_t size = static_cast<uint32_t>(query.size());
  return std::min(options.s == 0 ? size : options.s, size);
}

MergedPartials MergePartials(const Query& query, const SearchOptions& options,
                             std::vector<Partial> partials,
                             const DiSource& di_source) {
  MergedPartials merged;
  SearchResponse& response = merged.response;
  std::vector<GksNode>& nodes = response.nodes;
  response.effective_s = EffectiveS(query, options);

  // Concatenate, remembering where each node came from. The first
  // partial's storage becomes the merged list, so a lone partial (the
  // single index) is ranked without copying its nodes.
  size_t total = 0;
  for (const Partial& partial : partials) total += partial.nodes.size();
  std::vector<NodeOrigin> from;
  from.reserve(total);
  size_t dominant = 0;
  for (uint32_t p = 0; p < partials.size(); ++p) {
    Partial& partial = partials[p];
    for (uint32_t i = 0; i < partial.nodes.size(); ++i) from.push_back({p, i});
    if (p == 0) {
      nodes = std::move(partial.nodes);
      nodes.reserve(total);
    } else {
      nodes.insert(nodes.end(), std::make_move_iterator(partial.nodes.begin()),
                   std::make_move_iterator(partial.nodes.end()));
    }
    response.merged_list_size += partial.merged_list_size;
    response.candidate_count += partial.candidate_count;
    // The partial whose posting statistics dwarf the others stands for the
    // query's plan; with one partial it is exactly that index's plan.
    if (partial.merged_list_size > partials[dominant].merged_list_size) {
      dominant = p;
    }
  }
  if (!partials.empty()) response.plan = std::move(partials[dominant].plan);

  std::vector<uint32_t> order(nodes.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&nodes](uint32_t a, uint32_t b) {
    return RanksBefore(nodes[a], nodes[b]);
  });
  // The cut precedes DI and refinements: a top-k answer derives them from
  // its k nodes only. It is also where the k best are chosen when the
  // block-max evaluator did not run (the planner judged full scoring
  // cheaper, or a segment holds tombstones).
  size_t kept = nodes.size();
  if (options.top_k > 0) kept = std::min<size_t>(kept, options.top_k);
  merged.origins.reserve(kept);
  for (size_t i = 0; i < kept; ++i) merged.origins.push_back(from[order[i]]);
  Permute(&order, &nodes);
  nodes.resize(kept);
  for (const GksNode& node : nodes) {
    if (node.is_lce) ++response.lce_count;
  }

  if (options.discover_di) {
    ScopedSpan span("di");
    DiAccumulator acc;
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (GivesDi(nodes[i])) di_source(merged.origins[i], nodes[i], &acc);
    }
    response.insights = std::move(acc).Take(options.di_top_m);
    span.AddItems(response.insights.size());
  }
  if (options.suggest_refinements) {
    ScopedSpan span("refinement");
    response.refinements = SuggestRefinements(query, nodes, response.insights);
    span.AddItems(response.refinements.size());
  }
  if (options.max_results > 0 && nodes.size() > options.max_results) {
    nodes.resize(options.max_results);
    merged.origins.resize(options.max_results);
  }
  return merged;
}

}  // namespace gks
