#include "core/lce.h"

#include <algorithm>
#include <bit>

#include "common/trace.h"
#include "core/ranking.h"

namespace gks {
namespace {

constexpr uint32_t kNoRow = NodeInfoTable::kNoRow;

}  // namespace

uint32_t LiftedEntityRow(const XmlIndex& index, DeweySpan candidate,
                         DeweySpan* lifted, size_t* cursor) {
  const NodeInfoTable& nodes = index.nodes;
  uint32_t row = nodes.SelfOrAncestorRowFrom(candidate, cursor);
  *lifted = candidate;
  // A row as long as the candidate is the candidate's own row; lifted,
  // its deepest ancestor row is the candidate's parent row.
  if (row != kNoRow && nodes.IdAt(row).size == candidate.size &&
      nodes.InfoAt(row).is_attribute() && candidate.size > 1) {
    *lifted = DeweySpan{candidate.data, candidate.size - 1};
    row = nodes.ParentRow(row);
  }
  return nodes.EntityRow(row);
}

std::vector<GksNode> ComputeGksNodes(const XmlIndex& index,
                                     const MergedList& sl,
                                     const std::vector<LcpCandidate>& lcps_in) {
  // SLCA-style minimality: drop ancestors whose keyword set is already
  // covered by their candidate descendants (Table 1's {x2}-not-{x1,x2,r}).
  std::vector<LcpCandidate> lcps = [&] {
    ScopedSpan span("prune");
    std::vector<LcpCandidate> pruned = PruneCoveredAncestors(sl, lcps_in);
    span.AddItems(pruned.size());
    return pruned;
  }();
  return ComputeGksNodesPruned(index, sl, lcps);
}

std::vector<GksNode> ComputeGksNodesPruned(
    const XmlIndex& index, const MergedList& sl,
    const std::vector<LcpCandidate>& lcps) {
  const NodeInfoTable& nodes = index.nodes;
  PotentialFlowRanker ranker(nodes, sl);

  // Entities with an independent witness: the lowest entity ancestor of at
  // least one occurrence in S_L (Def. 2.2.1 restricted to query keywords).
  std::vector<uint32_t> witnessed;
  uint32_t previous = kNoRow;
  for (size_t i = 0; i < sl.size(); ++i) {
    const uint32_t entity = nodes.EntityRow(ranker.EntryRow(i));
    if (entity != kNoRow && entity != previous) witnessed.push_back(entity);
    previous = entity;
  }
  std::sort(witnessed.begin(), witnessed.end());
  witnessed.erase(std::unique(witnessed.begin(), witnessed.end()),
                  witnessed.end());

  // Map each candidate to its response node; candidates that converge on
  // the same node aggregate their window counts. The candidates ascend in
  // document order, so one cursor sweeps the node store.
  struct Response {
    DeweySpan id;
    bool is_lce = false;
    uint32_t window_count = 0;
  };
  std::vector<Response> responses;
  responses.reserve(lcps.size());
  size_t row_cursor = 0;
  for (const LcpCandidate& lcp : lcps) {
    DeweySpan lifted;
    const uint32_t entity = LiftedEntityRow(index, DeweySpan::Of(lcp.node),
                                            &lifted, &row_cursor);
    if (entity != kNoRow &&
        std::binary_search(witnessed.begin(), witnessed.end(), entity)) {
      responses.push_back({nodes.IdAt(entity), true, lcp.window_count});
    } else {
      responses.push_back({lifted, false, lcp.window_count});
    }
  }
  std::sort(responses.begin(), responses.end(),
            [](const Response& a, const Response& b) {
              return a.id.Compare(b.id) < 0;
            });

  // Sorted above, the responses ascend, so one cursor sweeps S_L.
  std::vector<GksNode> out;
  std::vector<std::pair<size_t, size_t>> ranges;  // S_L range per node
  size_t sl_cursor = 0;
  for (size_t i = 0; i < responses.size();) {
    const DeweySpan id = responses[i].id;
    GksNode node;
    for (; i < responses.size() && responses[i].id == id; ++i) {
      node.is_lce = node.is_lce || responses[i].is_lce;
      node.window_count += responses[i].window_count;
    }
    node.id = id.ToDeweyId();
    const std::pair<size_t, size_t> range =
        sl.SubtreeRangeFrom(id, &sl_cursor);
    node.keyword_mask = sl.MaskOfRange(range.first, range.second);
    node.keyword_count = static_cast<uint32_t>(std::popcount(node.keyword_mask));
    out.push_back(std::move(node));
    ranges.push_back(range);
  }
  {
    ScopedSpan span("ranking");
    for (size_t n = 0; n < out.size(); ++n) {
      out[n].rank = ranker.Rank(DeweySpan::Of(out[n].id), ranges[n].first,
                                ranges[n].second, out[n].keyword_mask);
    }
    span.AddItems(out.size());
  }
  return out;
}

}  // namespace gks
