#ifndef GKS_INDEX_SEGMENT_MERGE_H_
#define GKS_INDEX_SEGMENT_MERGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gks {

/// Size-tiered merge policy for flushed RT segments (docs/INDEXING.md
/// § Segment lifecycle). Segments are bucketed by on-disk size into
/// geometric tiers; when a tier accumulates `fanout` members they are
/// merged into one segment of (roughly) the next tier. Write
/// amplification is O(log_fanout(total/flush)) per document — the classic
/// LSM trade against unbounded per-query segment counts.

/// Tier of a segment: floor(log4(bytes / 64KiB)), clamped at 0. Segments
/// within a factor-of-4 size band share a tier.
size_t SizeTier(uint64_t bytes);

/// Picks the next merge: the smallest tier holding >= fanout segments;
/// returns the indices (into `segment_bytes`) of its `fanout` smallest
/// members, oldest-first within equal sizes. Empty when nothing needs
/// merging or fanout == 0 (merging disabled).
std::vector<size_t> PickMergeInputs(const std::vector<uint64_t>& segment_bytes,
                                    size_t fanout);

}  // namespace gks

#endif  // GKS_INDEX_SEGMENT_MERGE_H_
