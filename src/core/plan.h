#ifndef GKS_CORE_PLAN_H_
#define GKS_CORE_PLAN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gks {

/// Execution strategy for one query. `kAuto` lets the planner pick from
/// per-term posting-list statistics; the other two force a strategy
/// (CLI `--plan=`, wire field "plan"). After planning, the chosen
/// strategy is never kAuto.
enum class PlanMode : uint8_t {
  kAuto = 0,
  kMerge,  // full k-way merge of every posting list (PR 2 kernel)
  kProbe,  // anchor-probe: seek-driven from the smallest lists
};

/// Canonical lowercase name ("auto", "merge", "probe").
const char* PlanModeName(PlanMode mode);

/// Parses a plan name (as accepted by --plan / the wire "plan" field).
/// Returns false on anything else; `*out` is untouched then.
bool ParsePlanMode(std::string_view text, PlanMode* out);

/// Per-atom posting-list statistics the planner decided from (and the
/// per-atom facts --explain-json reports).
struct PlanAtomStats {
  std::string keyword;    // the atom as typed (quotes removed)
  uint64_t postings = 0;  // document frequency |S_i|
  uint64_t blocks = 0;    // always 0: no list stays block-encoded
  uint32_t doc_span = 0;  // documents between first and last posting
  bool anchor = false;    // selected into the probe anchor set
  bool estimated = false; // phrase/tag atom: `postings` is the raw bound
};

/// Default disengage floor for the top-k axis: when the planner's anchor
/// postings — an upper bound on the candidate count, since every valid
/// window intersects the anchor set by pigeonhole — do not exceed this,
/// the block-max segment loop has nothing worth skipping and full scoring
/// plus truncation is cheaper (the evaluator's per-segment bookkeeping
/// showed up as a 0.5-0.6x regression on skewed queries; see
/// docs/PERFORMANCE.md). SearchOptions::topk_scan_floor overrides it.
inline constexpr uint64_t kTopKFullScanPostings = 4096;

/// The top-k axis of a plan: orthogonal to the strategy choice. When
/// engaged (`--top-k` > 0 on a non-empty query whose anchor postings
/// exceed the scan floor) the block-max evaluator replaces the full
/// evaluation pipeline — for any strategy, since every strategy returns
/// identical nodes — and fills the work counters after execution. When
/// `k > 0` but disengaged, the chosen strategy runs in full and the
/// searcher truncates the ranked nodes to k, which is byte-identical.
/// Either way, results equal full evaluation truncated to the k best.
struct PlanTopK {
  uint32_t k = 0;        // requested result bound (0 = full evaluation)
  bool engaged = false;  // block-max evaluator ran instead of the strategy
  std::string reason;    // one-line explanation (why engaged / why not)

  // Filled after execution (see TopKStats).
  uint64_t segments = 0;
  uint64_t segments_pruned_sparse = 0;
  uint64_t segments_pruned_bound = 0;
  uint64_t blocks_skipped = 0;
  uint64_t docs_skipped = 0;
};

/// The chosen plan plus everything needed to explain it: heuristic
/// inputs, the decision, and (after execution) probe-side work counters.
struct PlanInfo {
  PlanMode requested = PlanMode::kAuto;  // what the caller asked for
  PlanMode strategy = PlanMode::kMerge;  // what actually ran
  std::string reason;                    // one-line heuristic explanation

  uint64_t largest_postings = 0;  // max |S_i| over the atoms
  uint64_t anchor_postings = 0;   // summed sizes of the anchor set
  double skew = 0.0;              // largest / max(1, anchor_postings)

  // Filled by the probe evaluator after execution (0 on merge).
  uint64_t probe_events = 0;       // window end events evaluated
  uint64_t gathered_postings = 0;  // reduced-S_L entries gathered

  /// Top-k early-termination axis (composes with any strategy).
  PlanTopK topk;

  std::vector<PlanAtomStats> atoms;
};

}  // namespace gks

#endif  // GKS_CORE_PLAN_H_
