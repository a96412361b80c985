#ifndef GKS_CORE_PROBE_EVAL_H_
#define GKS_CORE_PROBE_EVAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/arena.h"
#include "core/merged_list.h"
#include "core/query.h"
#include "core/window_scan.h"
#include "index/xml_index.h"

namespace gks {

/// The anchor-probe evaluator has no tuning knobs. The empty struct stays
/// in ProbeEvaluator's signature because perfbench/traced.cc passes one.
struct ProbeOptions {};

/// Seek-driven evaluation of the GKS window scan (the planner's `probe`
/// strategy). Instead of merging every posting list into S_L, the
/// evaluator:
///
///   1. picks the n-s+1 *smallest* atom lists as anchors — by pigeonhole
///      every window holding s unique keywords out of n contains at least
///      one anchor occurrence, for any threshold s;
///   2. walks the anchor occurrences and, for each, seeks every list for
///      the first occurrence at-or-after it: these are exactly the
///      *window end events* (an entry e of atom c ends window [l, e]
///      iff no other c-occurrence lies in [l, e) — so e is the first
///      c-occurrence at-or-after the window's anchor);
///   3. for each end event derives the half-open interval of valid window
///      starts l from order statistics of the per-atom predecessor
///      positions (l must lie after both the previous c-occurrence and
///      the s-th largest other-atom predecessor, and at-or-before the
///      (s-1)-th largest), then counts, per prefix depth d of e, the S_L
///      entries inside subtree(e[0..d)) ∩ interval via per-list
///      subtree/bound seeks — each such entry is one window whose LCP has
///      exactly depth d. This reproduces ComputeLcpCandidates' counts
///      without S_L: every valid window start is an S_L entry in the
///      interval, and its LCP with e is their common prefix;
///   4. computes each candidate's exact subtree keyword mask by per-list
///      subtree seeks and prunes covered ancestors (same sweep as the
///      merge path);
///   5. builds a *reduced* merged list restricted to the coverage
///      prefixes of the surviving candidates (their entity/lifted
///      response nodes), merged in exact S_L order, so the downstream
///      LCE/witness/ranking stages run unchanged and produce
///      byte-identical output: every response node's subtree is fully
///      present, and rank summation order inside it is preserved.
///
/// Non-anchor lists are only read where a seek or a gather range lands,
/// so the work scales with the anchor list and the response subtrees,
/// not with the largest posting list.
class ProbeEvaluator {
 public:
  ProbeEvaluator(const XmlIndex& index, const Query& query, uint32_t s,
                 const ProbeOptions& options, QueryArena* arena);
  ~ProbeEvaluator();

  ProbeEvaluator(const ProbeEvaluator&) = delete;
  ProbeEvaluator& operator=(const ProbeEvaluator&) = delete;

  /// Phase 1: resolve per-atom occurrence lists (phrase/tag-constrained
  /// atoms are built; single-term atoms read the index's list in place)
  /// and select the anchor set from exact sizes.
  void PrepareLists();

  /// Phase 2: enumerate window end events from the anchor union and
  /// accumulate LCP candidates with exact window counts.
  void RunVirtualScan();

  /// Phase 3: exact per-candidate subtree masks + covered-ancestor prune.
  void PruneCandidates();

  /// Phase 4: build the reduced merged list over the survivors' coverage.
  void GatherReduced();

  /// Sum of per-atom occurrence-list sizes — |S_L| had it been built.
  size_t merged_size() const;
  /// Per-atom occurrence counts (exact after PrepareLists).
  const std::vector<size_t>& atom_sizes() const { return atom_sizes_; }
  /// Atom indices selected as anchors.
  const std::vector<uint32_t>& anchors() const { return anchors_; }
  size_t anchor_postings() const { return anchor_postings_; }
  size_t events() const { return events_; }

  /// Pre-prune candidates, document-ordered (== ComputeLcpCandidates).
  const std::vector<LcpCandidate>& candidates() const { return candidates_; }
  /// Post-prune survivors (== PruneCoveredAncestors of the merge path).
  const std::vector<LcpCandidate>& pruned() const { return pruned_; }
  /// The reduced merged list (valid after GatherReduced).
  const MergedList& reduced() const { return reduced_; }

 private:
  struct AtomList;

  void ProcessEndEvent(uint32_t atom, DeweySpan id, bool has_prev,
                       DeweySpan prev);

  const XmlIndex& index_;
  const Query& query_;
  const uint32_t s_;
  QueryArena* const arena_;

  std::vector<std::unique_ptr<AtomList>> lists_;
  std::vector<size_t> atom_sizes_;
  std::vector<uint32_t> anchors_;
  size_t anchor_postings_ = 0;
  size_t events_ = 0;

  // Per-event scratch, reused across events to stay allocation-free in
  // the hot loop: depth_totals_[d] = interval entries inside
  // subtree(p[0..d)), summed over lists; depth_hist_[e] = entries of the
  // linearly scanned lists sharing exactly e components with p.
  std::vector<uint64_t> depth_totals_;
  std::vector<uint64_t> depth_hist_;

  // Window counts keyed by candidate components; uint64 accumulation then
  // uint32 truncation matches the merge path's uint32 ++ wraparound.
  std::map<std::vector<uint32_t>, uint64_t> counts_;
  std::vector<LcpCandidate> candidates_;
  std::vector<uint64_t> masks_;
  std::vector<LcpCandidate> pruned_;
  MergedList reduced_;
};

}  // namespace gks

#endif  // GKS_CORE_PROBE_EVAL_H_
