#include "core/segment_search.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "common/trace.h"
#include "core/partial_merge.h"

namespace gks {
namespace {

/// True when any tombstone falls inside the segment's doc-id range.
bool SegmentHasTombstones(const SegmentSetSnapshot& snapshot,
                          const SegmentView& view) {
  if (snapshot.deleted == nullptr || snapshot.deleted->empty()) return false;
  auto it = std::lower_bound(snapshot.deleted->begin(),
                             snapshot.deleted->end(), view.doc_base);
  return it != snapshot.deleted->end() &&
         *it < view.doc_base + view.doc_count;
}

}  // namespace

Result<SearchResponse> SegmentSearcher::SearchMerged(
    const Query& query, const SearchOptions& options) const {
  // Per-segment searches run the full pipeline minus DI/refinements
  // (cross-segment stages) and minus trims (global operations). Each
  // installs its own collector, so gks.search.* metrics account every
  // segment; their traces graft below.
  SearchOptions inner_options = options;
  inner_options.discover_di = false;
  inner_options.suggest_refinements = false;
  inner_options.max_results = 0;

  // Per-segment pipelines are independent (each GksSearcher::Search
  // installs its own trace collector, counters are atomic), so with a
  // pool they fan out concurrently; the ordered merge below makes the
  // result identical to the sequential walk. ParallelFor degrades to the
  // inline loop when called from a pool worker or without a pool.
  const std::vector<SegmentView>& segments = snapshot_->segments;
  std::vector<std::optional<Result<SearchResponse>>> results(
      segments.size());
  ParallelFor(segments.size() > 1 ? pool_ : nullptr, segments.size(),
              [&](size_t i) {
                SearchOptions segment_options = inner_options;
                if (SegmentHasTombstones(*snapshot_, segments[i])) {
                  // Exactness under deletion: the segment's true k best
                  // survivors may rank below k masked nodes, so evaluate
                  // in full and let the merged sort truncate.
                  segment_options.top_k = 0;
                }
                GksSearcher searcher(segments[i].index.get());
                results[i].emplace(searcher.Search(query, segment_options));
              });

  // One partial per segment, in segment order, tombstoned documents
  // masked out.
  std::vector<Partial> partials(segments.size());
  std::vector<Trace> inner_traces;
  for (size_t i = 0; i < segments.size(); ++i) {
    if (!results[i]->ok()) return results[i]->status();
    SearchResponse& response = results[i]->value();
    for (GksNode& node : response.nodes) {
      if (snapshot_->IsDeleted(node.id.doc_id())) continue;
      partials[i].nodes.push_back(std::move(node));
    }
    partials[i].merged_list_size = response.merged_list_size;
    partials[i].candidate_count = response.candidate_count;
    partials[i].plan = std::move(response.plan);
    inner_traces.push_back(std::move(response.trace));
  }

  // A node's DI resolves through the segment it came from.
  SearchResponse merged =
      MergePartials(query, options, std::move(partials),
                    [&](NodeOrigin origin, const GksNode& node,
                        DiAccumulator* acc) {
                      AccumulateDi(*segments[origin.partial].index, node,
                                   query, DiOptions{}, acc);
                    })
          .response;
  for (size_t i = 0; i < inner_traces.size(); ++i) {
    merged.trace.Graft("segment:" + std::string(segments[i].label),
                       inner_traces[i]);
  }
  return merged;
}

Result<SearchResponse> SegmentSearcher::Search(
    const Query& query, const SearchOptions& options) const {
  WallTimer total_timer;
  // Cross-segment stages trace under their own collector; per-segment
  // pipelines already feed gks.search.* themselves, so this collector
  // carries no metric prefix (no double counting).
  TraceCollector collector;
  Result<SearchResponse> response = SearchMerged(query, options);
  if (!response.ok()) return response;
  Trace outer = collector.Finish();
  response->timings.di_ms = outer.ElapsedMs("di");
  response->timings.refine_ms = outer.ElapsedMs("refinement");
  for (const TraceSpan& span : response->trace.spans()) {
    // Stage sums across segments (response->trace holds the grafts).
    if (span.name == "merged_list") {
      response->timings.merge_ms += span.elapsed_ms;
    } else if (span.name == "window_scan") {
      response->timings.window_ms += span.elapsed_ms;
    } else if (span.name == "lce") {
      response->timings.lce_ms += span.elapsed_ms;
    }
  }
  response->trace.Graft("segments.combine", outer);
  response->timings.total_ms = total_timer.ElapsedMillis();
  return response;
}

Result<SearchResponse> SegmentSearcher::Search(
    std::string_view query_text, const SearchOptions& options) const {
  GKS_ASSIGN_OR_RETURN(Query query, Query::Parse(query_text));
  return Search(query, options);
}

std::string DescribeNode(const SegmentSetSnapshot& snapshot,
                         const GksNode& node, size_t max_attrs) {
  const SegmentView* view = snapshot.SegmentFor(node.id.doc_id());
  if (view == nullptr) return "<?> " + node.id.ToString();
  return DescribeNode(*view->index, node, max_attrs);
}

std::vector<std::vector<DiContribution>> ComputeDiContributions(
    const SegmentSetSnapshot& snapshot, const std::vector<GksNode>& nodes,
    const Query& query, const DiOptions& options) {
  std::vector<std::vector<DiContribution>> out(nodes.size());
  for (size_t n = 0; n < nodes.size(); ++n) {
    if (!GivesDi(nodes[n])) continue;
    const SegmentView* view = snapshot.SegmentFor(nodes[n].id.doc_id());
    if (view == nullptr) continue;
    out[n] = NodeDiContributions(*view->index, nodes[n], query, options);
  }
  return out;
}

}  // namespace gks
