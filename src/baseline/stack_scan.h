#ifndef GKS_BASELINE_STACK_SCAN_H_
#define GKS_BASELINE_STACK_SCAN_H_

#include <vector>

#include "core/merged_list.h"
#include "dewey/dewey_id.h"

namespace gks {

struct StackScanResult {
  std::vector<DeweyId> slcas;
  std::vector<DeweyId> elcas;
};

/// Single-pass stack algorithm for SLCA and ELCA over the sorted merged
/// occurrence list — the streaming counterpart of the MatchTrie oracle and
/// the family of "fast SLCA/ELCA computation" algorithms the paper cites
/// (XRank's Dewey stack; Zhou et al., EDBT 2010 / ICDE 2012).
///
/// The stack mirrors the path of the current occurrence; when a frame is
/// popped its subtree is complete, so it is emitted as
///  * SLCA  if its subtree covers all keywords and no child did, and
///  * ELCA  if its witnesses outside all-covering children span all
///    keywords (the exclusion rule).
/// O(|S_L| * d) time, O(d) live frames — no trie is built.
StackScanResult ComputeSlcaElcaByStack(const MergedList& sl,
                                       size_t atom_count);

}  // namespace gks

#endif  // GKS_BASELINE_STACK_SCAN_H_
