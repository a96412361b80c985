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
/// ranks are filled by ComputePotentialFlowRank. Output is in document
/// order (callers sort by rank).
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

/// Deepest self-or-ancestor entity node of `id` (the LCE mapping step),
/// written into `*out` as components. False if no entity ancestor exists.
/// Exposed so the probe evaluator derives coverage prefixes from the
/// exact mapping the LCE stage will apply.
bool LowestEntityOf(const XmlIndex& index, DeweySpan id,
                    std::vector<uint32_t>* out);

}  // namespace gks

#endif  // GKS_CORE_LCE_H_
