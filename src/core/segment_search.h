#ifndef GKS_CORE_SEGMENT_SEARCH_H_
#define GKS_CORE_SEGMENT_SEARCH_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/searcher.h"
#include "index/rt_segment.h"

namespace gks {

/// GKS search over a real-time segment set (docs/INDEXING.md): runs the
/// full single-index pipeline per segment, masks tombstoned documents,
/// and merges the per-segment results into one response that is
/// node-for-node identical to searching an offline index built over the
/// same live documents. Each segment is one partial of the merge core
/// (core/partial_merge.h), which owns the result order, DI and
/// refinements; a node's DI resolves through the segment it came from.
///
/// `top_k` stays exact under deletions: a segment overlapping the
/// tombstone set runs full evaluation (the k-th survivor may sit below k
/// dead nodes); truncation to k happens in the merge.
///
/// The snapshot is immutable; a SegmentSearcher can be constructed per
/// query for the price of a shared_ptr copy.
class SegmentSearcher {
 public:
  explicit SegmentSearcher(std::shared_ptr<const SegmentSetSnapshot> snapshot)
      : snapshot_(std::move(snapshot)) {}

  /// With a pool, the per-segment pipelines run concurrently (ParallelFor)
  /// and the merge re-establishes the deterministic global order — output
  /// is identical to the sequential walk. Callers already running *on* a
  /// pool worker degrade to the inline loop (ThreadPool no-blocking rule),
  /// so this pays off for direct library users, benches and the CLI.
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  Result<SearchResponse> Search(const Query& query,
                                const SearchOptions& options = {}) const;
  /// Parses `query_text` (quotes delimit phrases) and searches.
  Result<SearchResponse> Search(std::string_view query_text,
                                const SearchOptions& options = {}) const;

  const SegmentSetSnapshot& snapshot() const { return *snapshot_; }

 private:
  Result<SearchResponse> SearchMerged(const Query& query,
                                      const SearchOptions& options) const;

  std::shared_ptr<const SegmentSetSnapshot> snapshot_;
  ThreadPool* pool_ = nullptr;
};

/// DescribeNode over a segment set: resolves the node's segment by doc id
/// and formats with that segment's index.
std::string DescribeNode(const SegmentSetSnapshot& snapshot,
                         const GksNode& node, size_t max_attrs = 3);

/// ComputeDiContributions over a segment set: each node's contributions
/// resolve through the segment that holds its document.
std::vector<std::vector<DiContribution>> ComputeDiContributions(
    const SegmentSetSnapshot& snapshot, const std::vector<GksNode>& nodes,
    const Query& query, const DiOptions& options);

}  // namespace gks

#endif  // GKS_CORE_SEGMENT_SEARCH_H_
