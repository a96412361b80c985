#ifndef GKS_CORE_LCE_H_
#define GKS_CORE_LCE_H_

#include <cstdint>
#include <vector>

#include "core/merged_list.h"
#include "core/window_scan.h"
#include "dewey/dewey_id.h"
#include "index/xml_index.h"

namespace gks {

/// One node of the GKS response R_Q(s): either a Least Common Entity node
/// (Def. 2.2.1) promoted from one or more LCP candidates, or a bare LCP
/// candidate for which no entity ancestor exists (Sec. 4.2, last
/// paragraph).
struct GksNode {
  DeweyId id;
  bool is_lce = false;
  uint64_t keyword_mask = 0;   // unique query atoms in the subtree
  uint32_t keyword_count = 0;  // popcount of the mask
  uint32_t window_count = 0;   // windows that produced / mapped to this node
  double rank = 0.0;           // potential-flow rank (Sec. 5)
};

/// Maps LCP candidates to GKS response nodes:
///  1. candidates landing on an attribute node lift to its parent
///     (Def. 2.1.1: the AN's parent is the lowest ancestor of its value);
///  2. each candidate maps to its lowest self-or-ancestor entity node;
///  3. an entity survives as an LCE only with an *independent witness* —
///     a query-keyword occurrence whose lowest entity ancestor is that
///     node (Def. 2.2.1; equivalent to the add/remove protocol of
///     Lemmas 4-5 but order-independent);
///  4. candidates whose entity lacks a witness, or that have no entity
///     ancestor, are returned as plain (non-LCE) nodes so no response is
///     lost.
/// Keyword masks are computed exactly over each node's S_L subtree range;
/// ranks are filled by PotentialFlowRanker over the same range. Every
/// ancestor step follows the node store's parent rows: S_L entries are
/// resolved to rows once, in one forward sweep, and each candidate once.
/// Output is in document order (callers sort by rank).
std::vector<GksNode> ComputeGksNodes(const XmlIndex& index,
                                     const MergedList& sl,
                                     const std::vector<LcpCandidate>& lcps);

/// The post-prune body of ComputeGksNodes: `lcps` must already be pruned
/// (step "SLCA-style minimality"). The anchor-probe path prunes with
/// exact seek-computed masks before building its reduced merged list,
/// then enters here; `sl` only needs to cover the subtrees of the
/// surviving candidates' response nodes for masks/witnesses/ranks to be
/// exact (see probe_eval.h).
std::vector<GksNode> ComputeGksNodesPruned(
    const XmlIndex& index, const MergedList& sl,
    const std::vector<LcpCandidate>& lcps);

/// Steps 1 and 2 by node rows, as the LCE stage applies them: writes the
/// lifted candidate into `*lifted` — a candidate on an attribute node
/// lifts to its parent, since an attribute cannot be a meaningful
/// response root; any other stays where it is — and returns the row of
/// its lowest self-or-ancestor entity, or NodeInfoTable::kNoRow. The
/// probe evaluator derives its coverage prefixes from this same mapping.
/// Callers sweep candidates in ascending document order: `*cursor` holds
/// the node-store position of the previous call (0 before the first),
/// and the row search gallops forward from it.
uint32_t LiftedEntityRow(const XmlIndex& index, DeweySpan candidate,
                         DeweySpan* lifted, size_t* cursor);

}  // namespace gks

#endif  // GKS_CORE_LCE_H_
