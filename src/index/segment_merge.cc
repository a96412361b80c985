#include "index/segment_merge.h"

#include <algorithm>
#include <map>

namespace gks {

size_t SizeTier(uint64_t bytes) {
  constexpr uint64_t kBase = 64 * 1024;
  size_t tier = 0;
  uint64_t ceiling = kBase;
  while (bytes > ceiling && tier < 32) {
    ceiling *= 4;
    ++tier;
  }
  return tier;
}

std::vector<size_t> PickMergeInputs(const std::vector<uint64_t>& segment_bytes,
                                    size_t fanout) {
  if (fanout < 2) return {};
  std::map<size_t, std::vector<size_t>> tiers;  // tier -> member indices
  for (size_t i = 0; i < segment_bytes.size(); ++i) {
    tiers[SizeTier(segment_bytes[i])].push_back(i);
  }
  for (auto& [tier, members] : tiers) {
    (void)tier;
    if (members.size() < fanout) continue;
    // Merge the tier's smallest members; stable sort keeps oldest-first
    // among equals so the pick is deterministic.
    std::stable_sort(members.begin(), members.end(),
                     [&](size_t a, size_t b) {
                       return segment_bytes[a] < segment_bytes[b];
                     });
    members.resize(fanout);
    // Commit-time bookkeeping is simpler over ascending indices.
    std::sort(members.begin(), members.end());
    return members;
  }
  return {};
}

}  // namespace gks
