#include "core/probe_eval.h"

#include <algorithm>

#include "common/metrics.h"
#include "core/lce.h"

namespace gks {
namespace {

struct ProbeMetrics {
  Counter* events;
  Counter* gathered;

  static const ProbeMetrics& Get() {
    static const ProbeMetrics metrics = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return ProbeMetrics{
          r.GetCounter("gks.search.plan.probe_events_total"),
          r.GetCounter("gks.search.plan.gathered_postings_total")};
    }();
    return metrics;
  }
};

// Adds one to hist[e] for each id in [lo, hi) of `ids` that shares
// exactly e leading components with `path` (e <= path.size).
void CountCommonPrefixDepths(const PackedIds& ids, size_t lo, size_t hi,
                             DeweySpan path, uint64_t* hist) {
  for (size_t j = lo; j < hi; ++j) {
    const DeweySpan id = ids.At(j);
    const uint32_t m = std::min(path.size, id.size);
    uint32_t d = 0;
    while (d < m && id.data[d] == path.data[d]) ++d;
    ++hist[d];
  }
}

}  // namespace

/// One query atom's occurrence list inside the evaluator: borrowed from
/// the index, or owned after phrase/tag filtering. Its boundary searches
/// are PackedIds' binary searches from scratch: unlike PostingCursor they
/// are not forward-only, since event processing needs *predecessor*
/// lookups that move backwards between probes.
struct ProbeEvaluator::AtomList {
  PackedIds owned;                 // arena scratch when active
  bool owned_active = false;
  const PackedIds* ids = nullptr;  // `owned` or the index's list
  size_t size = 0;
};

ProbeEvaluator::ProbeEvaluator(const XmlIndex& index, const Query& query,
                               uint32_t s, const ProbeOptions& /*options*/,
                               QueryArena* arena)
    : index_(index), query_(query), s_(s), arena_(arena) {}

ProbeEvaluator::~ProbeEvaluator() {
  if (arena_ == nullptr) return;
  for (std::unique_ptr<AtomList>& al : lists_) {
    if (al != nullptr && al->owned_active) arena_->PutIds(std::move(al->owned));
  }
}

size_t ProbeEvaluator::merged_size() const {
  size_t total = 0;
  for (size_t size : atom_sizes_) total += size;
  return total;
}

void ProbeEvaluator::PrepareLists() {
  const size_t n = query_.size();
  lists_.reserve(n);
  atom_sizes_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const QueryAtom& atom = query_.atoms()[i];
    auto al = std::make_unique<AtomList>();
    const bool constrained =
        atom.terms.size() > 1 || !atom.tag_constraint.empty();
    if (constrained) {
      // Phrase/tag atoms change list membership, so they are always built
      // through the shared occurrence builder.
      al->owned = arena_ != nullptr ? arena_->TakeIds() : PackedIds();
      AtomOccurrencesInto(index_, atom, &al->owned);
      al->owned_active = true;
      al->ids = &al->owned;
      al->size = al->owned.size();
    } else if (const PostingList* pl = index_.inverted.Find(atom.terms[0])) {
      al->ids = &pl->ids();
      al->size = pl->size();
    }
    atom_sizes_.push_back(al->size);
    lists_.push_back(std::move(al));
  }

  // Anchor set: the n-s+1 smallest lists (size, then atom index for
  // determinism). Every window with s unique atoms intersects it.
  std::vector<uint32_t> order(n);
  for (uint32_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (atom_sizes_[a] != atom_sizes_[b]) {
      return atom_sizes_[a] < atom_sizes_[b];
    }
    return a < b;
  });
  const size_t anchor_count = n >= s_ ? n - s_ + 1 : n;
  anchors_.assign(order.begin(), order.begin() + anchor_count);
  std::sort(anchors_.begin(), anchors_.end());

  for (uint32_t a : anchors_) anchor_postings_ += lists_[a]->size;
}

void ProbeEvaluator::RunVirtualScan() {
  const size_t n = query_.size();
  if (n == 0 || s_ == 0) return;

  // Walk the anchor union in ascending (id, atom) order. For each anchor
  // occurrence, the first c-occurrence at-or-after it (for every atom c)
  // is a window end event; consecutive anchors resolving to the same
  // index dedup via last_idx (event indices ascend with the anchors).
  struct AnchorCursor {
    uint32_t atom;
    size_t pos;
    const PackedIds* store;
  };
  std::vector<AnchorCursor> cursors;
  for (uint32_t a : anchors_) {
    AtomList& al = *lists_[a];
    if (al.size == 0) continue;
    cursors.push_back(AnchorCursor{a, 0, al.ids});
  }
  std::vector<size_t> last_idx(n, static_cast<size_t>(-1));

  while (true) {
    int best = -1;
    for (size_t i = 0; i < cursors.size(); ++i) {
      if (cursors[i].pos >= cursors[i].store->size()) continue;
      if (best < 0) {
        best = static_cast<int>(i);
        continue;
      }
      int cmp = cursors[i].store->At(cursors[i].pos).Compare(
          cursors[best].store->At(cursors[best].pos));
      if (cmp < 0 || (cmp == 0 && cursors[i].atom < cursors[best].atom)) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;
    AnchorCursor& ac = cursors[best];
    DeweySpan a_id = ac.store->At(ac.pos);
    const uint32_t a_atom = ac.atom;

    for (uint32_t c = 0; c < n; ++c) {
      AtomList& al = *lists_[c];
      if (al.size == 0) continue;
      // First index of list c at position >= (a_id, a_atom): same-id
      // entries count only when c sorts at-or-after the anchor's atom.
      size_t idx = c >= a_atom ? al.ids->LowerBound(a_id)
                               : al.ids->UpperBound(a_id);
      if (idx >= al.size || last_idx[c] == idx) continue;
      last_idx[c] = idx;
      ++events_;
      ProcessEndEvent(c, al.ids->At(idx), idx > 0,
                      idx > 0 ? al.ids->At(idx - 1) : DeweySpan{});
    }
    ++ac.pos;
  }

  candidates_.reserve(counts_.size());
  for (const auto& [components, count] : counts_) {
    candidates_.push_back(
        LcpCandidate{DeweyId(components), static_cast<uint32_t>(count)});
  }
  ProbeMetrics::Get().events->Add(events_);
}

void ProbeEvaluator::ProcessEndEvent(uint32_t c, DeweySpan p, bool has_prev,
                                     DeweySpan prev) {
  const size_t n = query_.size();
  // A position in S_L is the pair (id, atom); document order on the id,
  // atom index breaking ties — exactly the merge kernel's entry order.
  struct Pos {
    DeweyId id;
    uint32_t atom;
  };
  auto pos_less = [](const Pos& a, const Pos& b) {
    int cmp = DeweySpan::Of(a.id).Compare(DeweySpan::Of(b.id));
    if (cmp != 0) return cmp < 0;
    return a.atom < b.atom;
  };

  // Per other atom: the last occurrence strictly before position (p, c).
  std::vector<Pos> bounds;
  bounds.reserve(n > 0 ? n - 1 : 0);
  for (uint32_t i = 0; i < n; ++i) {
    if (i == c) continue;
    AtomList& al = *lists_[i];
    if (al.size == 0) continue;
    size_t at = i > c ? al.ids->LowerBound(p) : al.ids->UpperBound(p);
    if (at == 0) continue;
    bounds.push_back(Pos{al.ids->IdAt(at - 1), i});
  }
  // The window [l, p] needs s-1 other unique atoms before p.
  if (s_ >= 2 && bounds.size() < static_cast<size_t>(s_) - 1) return;
  std::sort(bounds.begin(), bounds.end(),
            [&](const Pos& a, const Pos& b) { return pos_less(b, a); });

  // Valid starts l lie in (L, M]: at-or-before the (s-1)-th largest other
  // predecessor T_{s-1} (every start in (T_s... must see s-1 others), and
  // after both the previous c-occurrence (else a later window ends here)
  // and T_s (else an s-th other atom would fit and the window would not
  // be minimal... it would end earlier). T_0 is p itself (s = 1: the
  // single-entry window [p, p]).
  Pos m;
  if (s_ == 1) {
    m = Pos{p.ToDeweyId(), c};
  } else {
    m = bounds[s_ - 2];
  }
  bool has_l = false;
  Pos l;
  if (has_prev) {
    l = Pos{prev.ToDeweyId(), c};
    has_l = true;
  }
  if (bounds.size() >= s_) {
    Pos& t = bounds[s_ - 1];
    if (!has_l || pos_less(l, t)) {
      l = t;
      has_l = true;
    }
  }
  if (has_l && !pos_less(l, m)) return;  // empty interval

  // First index of list i strictly after position x.
  auto first_after = [&](uint32_t i, const Pos& x) -> size_t {
    AtomList& al = *lists_[i];
    DeweySpan xid = DeweySpan::Of(x.id);
    return i > x.atom ? al.ids->LowerBound(xid) : al.ids->UpperBound(xid);
  };

  // Per-list bounds of the interval (L, M]; every S_L entry inside it is
  // one valid window start.
  std::vector<size_t> lo(n, 0);
  std::vector<size_t> hi(n, 0);
  uint64_t interval_total = 0;
  for (uint32_t i = 0; i < n; ++i) {
    if (lists_[i]->size == 0) continue;
    lo[i] = has_l ? first_after(i, l) : 0;
    hi[i] = first_after(i, m);
    if (hi[i] > lo[i]) interval_total += hi[i] - lo[i];
  }
  if (interval_total == 0) return;

  // lcp(start, p) has depth >= d iff start lies in subtree(p[0..d)); the
  // count with depth exactly d is the difference against depth d+1.
  // Lists with small intervals take one linear pass that histograms each
  // entry's common-prefix depth with p, covering every depth at once. The
  // rest keep per-depth subtree-boundary searches, deepest first, with a
  // per-list stop once a prefix's subtree swallows that list's whole
  // interval (subtree ranges nest, so every shallower prefix covers it
  // too).
  const uint32_t depth = p.size;
  constexpr size_t kDepthScanLinearMax = 256;
  depth_totals_.assign(depth + 1, 0);
  depth_hist_.assign(depth + 1, 0);
  for (uint32_t i = 0; i < n; ++i) {
    AtomList& al = *lists_[i];
    if (al.size == 0 || hi[i] <= lo[i]) continue;
    if (hi[i] - lo[i] <= kDepthScanLinearMax) {
      CountCommonPrefixDepths(*al.ids, lo[i], hi[i], p, depth_hist_.data());
      continue;
    }
    const uint64_t span = hi[i] - lo[i];
    for (uint32_t d = depth; d >= 1; --d) {
      DeweySpan q{p.data, d};
      size_t b = std::max(lo[i], al.ids->SubtreeBegin(q));
      size_t e = std::min(hi[i], al.ids->SubtreeEnd(q));
      if (e <= b) continue;
      const uint64_t inside = e - b;
      depth_totals_[d] += inside;
      if (inside == span) {
        for (uint32_t d2 = d - 1; d2 >= 1; --d2) depth_totals_[d2] += inside;
        break;
      }
    }
  }
  // An entry sharing exactly e components with p lies in the subtree of
  // every prefix of length d <= e.
  uint64_t shared = 0;
  for (uint32_t d = depth; d >= 1; --d) {
    shared += depth_hist_[d];
    depth_totals_[d] += shared;
  }
  uint64_t deeper = 0;
  for (uint32_t d = depth; d >= 1; --d) {
    const uint64_t total = depth_totals_[d];
    if (total > deeper) {
      counts_[std::vector<uint32_t>(p.data, p.data + d)] += total - deeper;
    }
    deeper = total;
    if (total == interval_total) break;
  }
}

void ProbeEvaluator::PruneCandidates() {
  const size_t n = query_.size();
  masks_.reserve(candidates_.size());
  for (const LcpCandidate& candidate : candidates_) {
    DeweySpan span = DeweySpan::Of(candidate.node);
    uint64_t mask = 0;
    for (uint32_t i = 0; i < n; ++i) {
      AtomList& al = *lists_[i];
      if (al.size == 0) continue;
      if (al.ids->SubtreeBegin(span) < al.ids->SubtreeEnd(span)) {
        mask |= 1ull << i;
      }
    }
    masks_.push_back(mask);
  }
  pruned_ = PruneCoveredAncestorsMasked(candidates_, masks_);
}

void ProbeEvaluator::GatherReduced() {
  const size_t n = query_.size();
  // Coverage prefix per survivor: the subtree the LCE stage will read for
  // this candidate's response node — its lowest entity ancestor after the
  // attribute lift, or the lifted candidate itself when no entity exists.
  std::vector<DeweySpan> prefixes;
  prefixes.reserve(pruned_.size());
  for (const LcpCandidate& candidate : pruned_) {
    DeweySpan lifted;
    const uint32_t entity =
        LiftedEntityRow(index_, DeweySpan::Of(candidate.node), &lifted);
    prefixes.push_back(entity != NodeInfoTable::kNoRow
                           ? index_.nodes.IdAt(entity)
                           : lifted);
  }
  // Document order; a prefix covered by the previous maximal one is
  // redundant (anything between an ancestor and its descendant in
  // document order shares the ancestor prefix, so one back-check
  // suffices).
  std::sort(prefixes.begin(), prefixes.end(),
            [](DeweySpan a, DeweySpan b) { return a.Compare(b) < 0; });
  std::vector<DeweySpan> maximal;
  for (DeweySpan prefix : prefixes) {
    if (!maximal.empty() && maximal.back().IsPrefixOf(prefix)) continue;
    maximal.push_back(prefix);
  }

  // Reduced S_L: each atom's postings restricted to the coverage
  // subtrees, k-way merged in exact S_L entry order. Downstream masks,
  // witnesses and ranks over any response-node subtree are then identical
  // to the full merge — the entries there are the same, in the same
  // order — while everything outside the coverage is never copied.
  std::vector<PackedIds> gathered;
  gathered.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    gathered.push_back(arena_ != nullptr ? arena_->TakeIds() : PackedIds());
  }
  for (uint32_t i = 0; i < n; ++i) {
    AtomList& al = *lists_[i];
    if (al.size == 0) continue;
    for (DeweySpan prefix : maximal) {
      gathered[i].AppendRange(*al.ids, al.ids->SubtreeBegin(prefix),
                              al.ids->SubtreeEnd(prefix));
    }
  }
  std::vector<const PackedIds*> ptrs;
  ptrs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) ptrs.push_back(&gathered[i]);
  reduced_ = MergedList::FromParts(ptrs, atom_sizes_, arena_);
  if (arena_ != nullptr) {
    for (PackedIds& g : gathered) arena_->PutIds(std::move(g));
  }
  ProbeMetrics::Get().gathered->Add(reduced_.size());
}

}  // namespace gks
