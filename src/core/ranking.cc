#include "core/ranking.h"

#include <bit>
#include <limits>

namespace gks {

PotentialFlowRanker::PotentialFlowRanker(const NodeInfoTable& nodes,
                                         const MergedList& sl)
    : nodes_(nodes), sl_(sl) {
  entry_rows_.reserve(sl.size());
  size_t cursor = 0;
  for (size_t i = 0; i < sl.size(); ++i) {
    entry_rows_.push_back(nodes.SelfOrAncestorRowFrom(sl.IdAt(i), &cursor));
  }
}

double PotentialFlowRanker::Rank(DeweySpan node, size_t begin, size_t end,
                                 uint64_t keyword_mask) {
  if (begin >= end || keyword_mask == 0) return 0.0;

  const double potential =
      static_cast<double>(std::popcount(keyword_mask));

  // Highest (shallowest) occurrence depth per keyword within the subtree.
  uint32_t min_depth[64];
  for (uint32_t& d : min_depth) d = std::numeric_limits<uint32_t>::max();
  for (size_t i = begin; i < end; ++i) {
    uint32_t atom = sl_.AtomAt(i);
    uint32_t depth = sl_.IdAt(i).size;
    if (depth < min_depth[atom]) min_depth[atom] = depth;
  }

  double rank = 0.0;
  // Terminals under the same parent row receive the same flow.
  uint32_t last_parent = NodeInfoTable::kNoRow;
  double last_flow = 0.0;
  for (size_t i = begin; i < end; ++i) {
    uint32_t atom = sl_.AtomAt(i);
    if ((keyword_mask & (1ull << atom)) == 0) continue;
    DeweySpan id = sl_.IdAt(i);
    if (id.size != min_depth[atom]) continue;  // not a terminal point

    // The deepest row strictly above the terminal.
    uint32_t row = entry_rows_[i];
    if (row != NodeInfoTable::kNoRow && nodes_.IdAt(row).size == id.size) {
      row = nodes_.ParentRow(row);
    }
    if (row == last_parent && row != NodeInfoTable::kNoRow) {
      rank += last_flow;
      continue;
    }
    // Divide the potential at each node on the path from the response node
    // down to the terminal's parent; what remains arrives at the terminal.
    path_.clear();
    for (uint32_t up = row; up != NodeInfoTable::kNoRow;
         up = nodes_.ParentRow(up)) {
      if (nodes_.IdAt(up).size < node.size) break;
      path_.push_back(nodes_.InfoAt(up).child_count);
    }
    double flow = potential;
    for (auto it = path_.rbegin(); it != path_.rend(); ++it) {
      flow /= static_cast<double>(*it > 0 ? *it : 1);
    }
    last_parent = row;
    last_flow = flow;
    rank += flow;
  }
  return rank;
}

}  // namespace gks
