#include "core/lce.h"

#include <bit>
#include <map>
#include <set>

#include "common/trace.h"
#include "core/ranking.h"

namespace gks {
namespace {

using ComponentVec = std::vector<uint32_t>;

ComponentVec ToComponents(DeweySpan span) {
  return ComponentVec(span.data, span.data + span.size);
}

}  // namespace

DeweySpan LiftAttribute(const XmlIndex& index, DeweySpan candidate) {
  const NodeInfo* info = index.nodes.Find(candidate);
  if (info != nullptr && info->is_attribute() && candidate.size > 1) {
    return DeweySpan{candidate.data, candidate.size - 1};
  }
  return candidate;
}

bool LowestEntityOf(const XmlIndex& index, DeweySpan id, ComponentVec* out) {
  for (uint32_t len = id.size; len >= 1; --len) {
    DeweySpan prefix{id.data, len};
    const NodeInfo* info = index.nodes.Find(prefix);
    if (info != nullptr && info->is_entity()) {
      *out = ToComponents(prefix);
      return true;
    }
  }
  return false;
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
  // Entities with an independent witness: the lowest entity ancestor of at
  // least one occurrence in S_L (Def. 2.2.1 restricted to query keywords).
  std::set<ComponentVec> witnessed;
  for (size_t i = 0; i < sl.size(); ++i) {
    ComponentVec entity;
    if (LowestEntityOf(index, sl.IdAt(i), &entity)) {
      witnessed.insert(std::move(entity));
    }
  }

  // Map each candidate to its response node; aggregate window counts for
  // candidates that converge on the same node.
  struct Agg {
    bool is_lce = false;
    uint32_t window_count = 0;
  };
  std::map<ComponentVec, Agg> nodes;
  for (const LcpCandidate& lcp : lcps) {
    DeweySpan lifted = LiftAttribute(index, DeweySpan::Of(lcp.node));
    ComponentVec entity;
    bool has_entity = LowestEntityOf(index, lifted, &entity);
    if (has_entity && witnessed.count(entity) > 0) {
      Agg& agg = nodes[entity];
      agg.is_lce = true;
      agg.window_count += lcp.window_count;
    } else {
      Agg& agg = nodes[ToComponents(lifted)];
      agg.window_count += lcp.window_count;
    }
  }

  std::vector<GksNode> out;
  out.reserve(nodes.size());
  for (auto& [components, agg] : nodes) {
    GksNode node;
    node.id = DeweyId(components);
    node.is_lce = agg.is_lce;
    node.window_count = agg.window_count;
    node.keyword_mask = sl.SubtreeMask(DeweySpan::Of(node.id));
    node.keyword_count = static_cast<uint32_t>(std::popcount(node.keyword_mask));
    out.push_back(std::move(node));
  }
  {
    ScopedSpan span("ranking");
    for (GksNode& node : out) {
      node.rank = ComputePotentialFlowRank(index, sl, DeweySpan::Of(node.id),
                                           node.keyword_mask);
    }
    span.AddItems(out.size());
  }
  return out;
}

}  // namespace gks
