#include "core/window_scan.h"

#include <algorithm>
#include <map>

namespace gks {
namespace {

// Longest common prefix of two spans, as a fresh DeweyId.
DeweyId CommonPrefix(DeweySpan a, DeweySpan b) {
  uint32_t limit = std::min(a.size, b.size);
  uint32_t i = 0;
  while (i < limit && a.data[i] == b.data[i]) ++i;
  return DeweyId(std::vector<uint32_t>(a.data, a.data + i));
}

}  // namespace

std::vector<LcpCandidate> ComputeLcpCandidates(const MergedList& sl,
                                               uint32_t s) {
  std::vector<LcpCandidate> out;
  if (s == 0 || sl.empty()) return out;

  std::vector<uint32_t> atom_count(64, 0);
  uint32_t unique = 0;
  size_t r = 0;  // exclusive right end of the current window

  // Ordered map keyed by the id's components gives document-ordered output
  // for free; candidate counts are usually small compared to |S_L|.
  std::map<std::vector<uint32_t>, uint32_t> counts;

  for (size_t l = 0; l < sl.size(); ++l) {
    // Grow the window until it holds s unique keywords (the !sU loop).
    while (unique < s && r < sl.size()) {
      if (atom_count[sl.AtomAt(r)]++ == 0) ++unique;
      ++r;
    }
    if (unique < s) break;  // no further window can reach s keywords

    DeweyId prefix = CommonPrefix(sl.IdAt(l), sl.IdAt(r - 1));
    if (!prefix.empty()) {
      ++counts[prefix.components()];
    }

    // Slide: drop the left entry.
    if (--atom_count[sl.AtomAt(l)] == 0) --unique;
  }

  out.reserve(counts.size());
  for (auto& [components, count] : counts) {
    out.push_back(LcpCandidate{DeweyId(components), count});
  }
  return out;
}

std::vector<LcpCandidate> PruneCoveredAncestors(
    const MergedList& sl, std::vector<LcpCandidate> candidates) {
  // The candidates ascend in document order, so one cursor sweeps S_L.
  std::vector<uint64_t> masks;
  masks.reserve(candidates.size());
  size_t cursor = 0;
  for (const LcpCandidate& candidate : candidates) {
    const auto [begin, end] =
        sl.SubtreeRangeFrom(DeweySpan::Of(candidate.node), &cursor);
    masks.push_back(sl.MaskOfRange(begin, end));
  }
  return PruneCoveredAncestorsMasked(std::move(candidates), masks);
}

std::vector<LcpCandidate> PruneCoveredAncestorsMasked(
    std::vector<LcpCandidate> candidates, const std::vector<uint64_t>& masks) {
  struct Open {
    size_t index;               // into `candidates`
    uint64_t mask;              // own subtree keyword mask
    uint64_t descendant_union = 0;
    bool has_descendant = false;
  };

  std::vector<bool> keep(candidates.size(), true);
  std::vector<Open> stack;

  auto finalize = [&](const Open& open) {
    if (open.has_descendant && open.descendant_union == open.mask) {
      keep[open.index] = false;
    }
    if (!stack.empty()) {
      stack.back().descendant_union |= open.mask;
      stack.back().has_descendant = true;
    }
  };

  for (size_t i = 0; i < candidates.size(); ++i) {
    const DeweyId& id = candidates[i].node;
    while (!stack.empty() &&
           !candidates[stack.back().index].node.IsAncestorOf(id)) {
      Open open = stack.back();
      stack.pop_back();
      finalize(open);
    }
    stack.push_back(Open{i, masks[i], 0, false});
  }
  while (!stack.empty()) {
    Open open = stack.back();
    stack.pop_back();
    finalize(open);
  }

  std::vector<LcpCandidate> kept;
  kept.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (keep[i]) kept.push_back(std::move(candidates[i]));
  }
  return kept;
}

}  // namespace gks
