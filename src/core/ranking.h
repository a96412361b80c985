#ifndef GKS_CORE_RANKING_H_
#define GKS_CORE_RANKING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/merged_list.h"
#include "index/node_info_table.h"

namespace gks {

/// Potential-flow rank of response nodes (Sec. 5). A node starts with
/// potential P = number of unique query keywords in its subtree; potential
/// divides equally among a node's direct children on the way down; the
/// rank is the total potential arriving at the *terminal points* — the
/// highest (shallowest) occurrence(s) of each keyword in the subtree.
///
/// The ranker resolves every S_L entry to the row of its deepest
/// self-or-ancestor element once, in one forward sweep (S_L and the node
/// rows are both in document order); a terminal's path then follows
/// parent rows up to the response node. A level without a row divides by
/// 1, as does a row with no children.
///
/// Example 5 of the paper is reproduced by the unit tests: for
/// Q3 = {a,b,c,d} on Figure 1, ranks are x2 = 3, x3 = 2.5, x4 = 2.
class PotentialFlowRanker {
 public:
  /// Both referents must outlive the ranker.
  PotentialFlowRanker(const NodeInfoTable& nodes, const MergedList& sl);

  /// Row of S_L entry i's deepest self-or-ancestor element, or
  /// NodeInfoTable::kNoRow.
  uint32_t EntryRow(size_t i) const { return entry_rows_[i]; }

  /// Rank of `node`, whose S_L subtree holds entries [begin, end) and
  /// whose unique-keyword mask is `keyword_mask`. Divides top-down, from
  /// the node to each terminal's parent.
  double Rank(DeweySpan node, size_t begin, size_t end, uint64_t keyword_mask);

 private:
  const NodeInfoTable& nodes_;
  const MergedList& sl_;
  std::vector<uint32_t> entry_rows_;
  std::vector<uint32_t> path_;  // one terminal's child counts, bottom-up
};

}  // namespace gks

#endif  // GKS_CORE_RANKING_H_
