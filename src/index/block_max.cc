#include "index/block_max.h"

#include <algorithm>

#include "index/posting_blocks.h"

namespace gks {

std::vector<BlockRankBound> ComputeBlockRankBounds(const PackedIds& ids,
                                                   const NodeInfoTable& nodes) {
  constexpr uint32_t kNoRow = NodeInfoTable::kNoRow;
  const size_t n = ids.size();
  const size_t blocks = (n + kPostingBlockSize - 1) / kPostingBlockSize;
  std::vector<BlockRankBound> bounds(blocks);
  if (blocks == 0) return bounds;

  // Pass 1: each id's own row and the row of its exact parent (kNoRow
  // where the id or its parent is no element), found in one forward
  // sweep: the list and the node rows are both in document order.
  std::vector<uint32_t> own(n);
  std::vector<uint32_t> parent(n);
  size_t cursor = 0;
  for (size_t i = 0; i < n; ++i) {
    const DeweySpan id = ids.At(i);
    uint32_t row = nodes.SelfOrAncestorRowFrom(id, &cursor);
    own[i] = row != kNoRow && nodes.IdAt(row).size == id.size ? row : kNoRow;
    if (own[i] != kNoRow) row = nodes.ParentRow(row);
    parent[i] = row != kNoRow && nodes.IdAt(row).size + 1 == id.size
                    ? row
                    : kNoRow;
  }
  // How many ids of THIS list share each exact parent — siblings are not
  // adjacent in document order once they have subtrees, so a running
  // count over neighbors would undercount.
  std::vector<uint32_t> siblings = parent;
  std::sort(siblings.begin(), siblings.end());

  // Pass 2: per-id weight, folded into per-block max weight + depth range.
  for (size_t b = 0; b < blocks; ++b) {
    const size_t begin = b * kPostingBlockSize;
    const size_t end = std::min(n, begin + kPostingBlockSize);
    BlockRankBound& bound = bounds[b];
    bound.weight_scaled = 1;  // raised to the block max below
    bound.min_depth = ids.At(begin).size;
    bound.max_depth = bound.min_depth;
    for (size_t i = begin; i < end; ++i) {
      DeweySpan id = ids.At(i);
      bound.min_depth = std::min(bound.min_depth, id.size);
      bound.max_depth = std::max(bound.max_depth, id.size);

      uint32_t scaled = kRankWeightOne;
      const NodeInfo* info =
          id.size > 1 && own[i] != kNoRow ? &nodes.InfoAt(own[i]) : nullptr;
      if (info != nullptr && info->is_attribute() && !info->is_entity() &&
          parent[i] != kNoRow) {
        const NodeInfo& parent_info = nodes.InfoAt(parent[i]);
        if (parent_info.child_count > 1) {
          auto [lo, hi] =
              std::equal_range(siblings.begin(), siblings.end(), parent[i]);
          const uint64_t k = static_cast<uint64_t>(hi - lo);
          // Ceil so the fixed-point bound never under-states k/cc.
          uint64_t up = (k * kRankWeightOne + parent_info.child_count - 1) /
                        parent_info.child_count;
          scaled = static_cast<uint32_t>(
              std::min<uint64_t>(up, kRankWeightOne));
          if (scaled == 0) scaled = 1;
        }
      }
      bound.weight_scaled = std::max(bound.weight_scaled, scaled);
    }
  }
  return bounds;
}

}  // namespace gks
