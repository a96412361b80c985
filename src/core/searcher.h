#ifndef GKS_CORE_SEARCHER_H_
#define GKS_CORE_SEARCHER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/trace.h"
#include "core/di.h"
#include "core/lce.h"
#include "core/plan.h"
#include "core/query.h"
#include "core/refinement.h"
#include "index/xml_index.h"

namespace gks {

class ThreadPool;  // common/thread_pool.h

struct SearchOptions {
  /// Minimum number of distinct query keywords a node's subtree must
  /// contain (the paper's s). Clamped to min(s, |Q|); 0 means s = |Q|
  /// (classic AND semantics over GKS nodes).
  uint32_t s = 1;
  /// Keep at most this many ranked nodes in the response (0 = unlimited).
  size_t max_results = 0;
  /// Number of DI keywords to surface.
  size_t di_top_m = 5;
  /// Skip DI discovery (benchmarking search in isolation).
  bool discover_di = true;
  /// Skip refinement suggestions.
  bool suggest_refinements = true;
  /// Execution-strategy override. kAuto lets the planner pick between the
  /// k-way merge kernel and the anchor-probe evaluator from posting-list
  /// statistics; forcing a strategy is always exact, just possibly slower
  /// (docs/PERFORMANCE.md).
  PlanMode plan = PlanMode::kAuto;
  /// When > 0, return only the k best-ranked nodes via the block-max
  /// early-termination evaluator (docs/PERFORMANCE.md). The nodes equal
  /// full evaluation truncated to k; DI and refinements are then derived
  /// from those k nodes only (that is the point of a top-k query). Unlike
  /// `max_results` — a post-hoc trim — `top_k` changes how much work the
  /// evaluator does. Both may be set; max_results applies after.
  uint32_t top_k = 0;
  /// Anchor-postings floor below which a top-k request skips the
  /// block-max segment loop and runs the chosen strategy in full,
  /// truncating the ranked nodes to k afterwards (identical results; the
  /// planner records the choice in plan.topk.reason). Exposed for tests
  /// and benchmarks: 0 engages the evaluator for any non-empty anchor
  /// set, UINT64_MAX never engages it.
  uint64_t topk_scan_floor = kTopKFullScanPostings;
};

/// A GKS response: ranked nodes, DI keywords, refinement suggestions, and
/// search diagnostics (sizes that the paper's complexity analysis and
/// Figures 8-10 are expressed in).
struct SearchResponse {
  std::vector<GksNode> nodes;                       // sorted by rank desc
  std::vector<DiKeyword> insights;                  // top-m DI
  std::vector<RefinementSuggestion> refinements;
  uint32_t effective_s = 0;
  size_t merged_list_size = 0;   // |S_L|
  size_t candidate_count = 0;    // LCP-list entries
  size_t lce_count = 0;          // responses that are LCE nodes

  /// The planner's decision and the statistics behind it; `strategy`
  /// names the evaluator that produced `nodes`.
  PlanInfo plan;

  /// Per-stage wall-clock, for the complexity analysis and --explain.
  /// Populated from `trace` (the span tree is the source of truth);
  /// total_ms >= parse_ms + stage sum, the difference — reported as
  /// `other_ms` — being sort/allocation overhead outside any stage span
  /// (see docs/OBSERVABILITY.md).
  struct Timings {
    double parse_ms = 0.0;    // query-text parse (string overload only)
    double merge_ms = 0.0;    // k-way merge of the posting lists
    double window_ms = 0.0;   // sliding-window LCP candidates
    double lce_ms = 0.0;      // pruning + LCE mapping + ranking
    double di_ms = 0.0;       // DI discovery
    double refine_ms = 0.0;   // refinement suggestions
    double total_ms = 0.0;

    /// parse_ms + the five stage timings (excludes total_ms).
    double StageSumMs() const {
      return parse_ms + merge_ms + window_ms + lce_ms + di_ms + refine_ms;
    }
    /// total_ms minus the accounted stages (clamped at 0): sorting,
    /// result assembly and other unattributed work. Surfaced as
    /// `other_ms` in the explain document so allocator/arena overhead
    /// stays measurable.
    double OtherMs() const {
      double other = total_ms - StageSumMs();
      return other > 0.0 ? other : 0.0;
    }
  };
  Timings timings;

  /// Full span tree for this query (stage spans `merged_list`,
  /// `window_scan`, `lce` (children `prune`, `ranking`, and
  /// `probe.gather` on probe plans), `di`, `refinement`, plus `parse`
  /// for text queries and a zero-length `plan.<strategy>` marker).
  Trace trace;
};

/// Multi-line description of the search diagnostics ("explain" output).
std::string FormatSearchDiagnostics(const SearchResponse& response);

/// Machine-readable explain document (the `--explain-json` payload):
/// response summary + timings + the nested span tree. Schema documented
/// in docs/OBSERVABILITY.md.
std::string ExplainJson(const SearchResponse& response);

/// Facade over the whole Sec. 4-6 pipeline: merged list -> sliding-window
/// LCP candidates -> LCE mapping with independent witnesses -> potential
/// flow ranking -> DI -> refinements. Keeps no state between queries: a
/// response is a function of the index, the query and the options
/// (answers are cached, if at all, by the server; docs/PERFORMANCE.md).
class GksSearcher {
 public:
  /// `index` must outlive the searcher.
  explicit GksSearcher(const XmlIndex* index) : index_(index) {}

  Result<SearchResponse> Search(const Query& query,
                                const SearchOptions& options = {}) const;
  /// Parses `query_text` (quotes delimit phrases) and searches.
  Result<SearchResponse> Search(std::string_view query_text,
                                const SearchOptions& options = {}) const;

  /// Answers a batch of text queries, fanning them across `pool` (inline
  /// when null — the searcher is stateless and const, so each query is
  /// independent). Responses are positionally aligned with `query_texts`
  /// and identical to what sequential Search calls would return.
  std::vector<Result<SearchResponse>> SearchBatch(
      const std::vector<std::string>& query_texts,
      const SearchOptions& options, ThreadPool* pool) const;

  /// Recursive DI discovery (Sec. 2.3): round 0 returns DI^0 for `query`;
  /// each later round feeds the previous round's top-m DI values back as
  /// the next query. Stops early when a round yields no DI.
  Result<std::vector<std::vector<DiKeyword>>> DiscoverRecursiveDi(
      const Query& query, const SearchOptions& options, size_t rounds) const;

  const XmlIndex& index() const { return *index_; }

 private:
  /// Pipeline body; runs under the caller-installed TraceCollector.
  Result<SearchResponse> SearchTraced(const Query& query,
                                      const SearchOptions& options) const;

  const XmlIndex* index_;
};

/// One-line description of a response node for CLIs and examples:
/// "<Course> d0.0.1.1.0 [EN] keywords=3 rank=3.00 {Name: Data Mining}".
std::string DescribeNode(const XmlIndex& index, const GksNode& node,
                         size_t max_attrs = 3);

/// Canonical form of a parsed query: analyzed terms plus tag constraints,
/// independent of the raw spelling. The server's response cache keys on
/// it (server/wire_cache.h), so respellings share an entry.
std::string NormalizedQueryText(const Query& query);

}  // namespace gks

#endif  // GKS_CORE_SEARCHER_H_
