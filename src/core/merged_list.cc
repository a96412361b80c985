#include "core/merged_list.h"

#include <algorithm>

#include "common/metrics.h"
#include "index/posting_cursor.h"
#include "text/analyzer.h"

namespace gks {
namespace {

// Merge-kernel instruments (docs/OBSERVABILITY.md): `gallop_skips` counts
// entries emitted or skipped via galloping runs instead of per-entry heap
// or binary-search work — the direct measure of what the kernel saves over
// the naive O(|S_L| log n) merge.
struct MergeMetrics {
  Counter* gallop_skips;

  static const MergeMetrics& Get() {
    static const MergeMetrics metrics = [] {
      return MergeMetrics{MetricsRegistry::Global().GetCounter(
          "gks.search.merge.gallop_skips_total")};
    }();
    return metrics;
  }
};

// The k-way merge kernel shared by Build (full S_L) and FromParts
// (probe-reduced S_L): appends every entry of `lists` to ids/atoms in
// document order, equal ids tie-broken by ascending list index.
//
// Cursor-based k-way merge with galloping run copies. A binary min-heap
// of (list, position) cursors orders the heads (equal ids tie-break on
// the lower list index, preserving the historical deterministic order);
// after popping the minimum, the winning list is advanced by a *whole
// run* — a gallop finds how far it stays below the runner-up, and the
// run is block-copied without touching the heap. Skewed workloads (one
// long list among short ones, the fig8 shape) degenerate to memcpy-like
// streaming instead of per-entry heap sifts.
void MergeListsAppend(const std::vector<const PackedIds*>& lists,
                      PackedIds* out_ids, std::vector<uint32_t>* out_atoms) {
  struct Cursor {
    uint32_t list;
    size_t pos;
  };
  auto before = [&lists](const Cursor& a, const Cursor& b) {
    int cmp = lists[a.list]->At(a.pos).Compare(lists[b.list]->At(b.pos));
    if (cmp != 0) return cmp < 0;
    return a.list < b.list;  // deterministic tie-break for equal ids
  };

  std::vector<Cursor> heap;
  heap.reserve(lists.size());
  for (uint32_t i = 0; i < lists.size(); ++i) {
    if (lists[i]->size() > 0) heap.push_back(Cursor{i, 0});
  }
  // Manual replace-top heap: after the root's cursor advances it is sifted
  // down in place — one sift per emitted run instead of the pop+push pair
  // (sift-down + sift-up) a std heap pays per entry.
  auto sift_down = [&heap, &before](size_t i) {
    const size_t n = heap.size();
    const Cursor value = heap[i];
    while (true) {
      size_t best = 2 * i + 1;
      if (best >= n) break;
      const size_t right = best + 1;
      if (right < n && before(heap[right], heap[best])) best = right;
      if (!before(heap[best], value)) break;
      heap[i] = heap[best];
      i = best;
    }
    heap[i] = value;
  };
  if (heap.size() > 1) {
    for (size_t i = heap.size() / 2; i-- > 0;) sift_down(i);
  }

  size_t total = 0;
  size_t total_components = 0;
  for (const PackedIds* list : lists) {
    total += list->size();
    total_components += list->component_count();
  }
  out_ids->Reserve(out_ids->size() + total,
                   out_ids->component_count() + total_components);
  out_atoms->reserve(out_atoms->size() + total);

  // Adaptive galloping (the timsort discipline): while the winning list
  // keeps winning, each next entry costs ONE direct compare against the
  // runner-up's head instead of a heap pop+push (~2 log k compares); after
  // kMinGallop consecutive wins the rest of the run is located by an
  // exponential search and block-copied. Interleaved lists therefore cost
  // no more than the plain heap merge, skewed lists degenerate to
  // memcpy-like streaming.
  constexpr size_t kMinGallop = 4;
  uint64_t gallop_skips = 0;
  while (!heap.empty()) {
    const Cursor top = heap[0];
    const PackedIds& list = *lists[top.list];

    // Find the end of the winner's run: everything up to (or through, on a
    // tie it wins) the runner-up's head. The current minimum itself always
    // belongs to the run. In a binary heap the runner-up is simply the
    // smaller of the root's children, so the gallop bound costs at most
    // one extra comparison.
    size_t run_end;
    size_t next = 0;  // runner-up child index while the heap has >1 cursor
    if (heap.size() == 1) {  // last list standing: the tail is one run
      run_end = list.size();
    } else {
      next = 1;
      if (heap.size() > 2 && before(heap[2], heap[1])) next = 2;
      DeweySpan bound = lists[heap[next].list]->At(heap[next].pos);
      // Ties go to the lower list index, so the winner may emit entries
      // equal to the runner-up's head only when its own index is lower.
      const bool wins_ties = top.list < heap[next].list;

      run_end = top.pos + 1;
      bool gallop = true;
      while (run_end < list.size()) {
        if (run_end - top.pos > kMinGallop) break;  // streak: gallop the rest
        int cmp = list.At(run_end).Compare(bound);
        if (cmp > 0 || (cmp == 0 && !wins_ties)) {
          gallop = false;
          break;
        }
        ++run_end;
      }
      if (gallop && run_end < list.size()) {
        run_end = wins_ties ? list.UpperBoundFrom(bound, run_end)
                            : list.LowerBoundFrom(bound, run_end);
      }
    }

    out_ids->AppendRange(list, top.pos, run_end);
    out_atoms->insert(out_atoms->end(), run_end - top.pos, top.list);
    gallop_skips += run_end - top.pos - 1;
    if (run_end == list.size()) {
      heap[0] = heap.back();
      heap.pop_back();
      if (heap.size() > 1) sift_down(0);
    } else if (heap.size() > 1) {
      // Replace-top: advance the root's cursor in place. The run scan
      // already proved the runner-up child precedes the advanced head, so
      // hoist it into the root for free and sift from one level down.
      const Cursor value{top.list, run_end};
      heap[0] = heap[next];
      size_t i = next;
      while (true) {
        size_t best = 2 * i + 1;
        if (best >= heap.size()) break;
        const size_t right = best + 1;
        if (right < heap.size() && before(heap[right], heap[best])) {
          best = right;
        }
        if (!before(heap[best], value)) break;
        heap[i] = heap[best];
        i = best;
      }
      heap[i] = value;
    } else {
      heap[0].pos = run_end;
    }
  }
  if (gallop_skips > 0) MergeMetrics::Get().gallop_skips->Add(gallop_skips);
}

}  // namespace

bool TagConstraintMatcher::Matches(DeweySpan id) {
  const NodeInfo* info = index_.nodes.Find(id);
  if (info == nullptr) return false;
  if (info->tag_id >= cache_.size()) cache_.resize(info->tag_id + 1, 0);
  char& verdict = cache_[info->tag_id];
  if (verdict == 0) {
    text::AnalyzerOptions tag_options;
    tag_options.remove_stopwords = false;
    bool match = false;
    for (const std::string& token :
         text::Analyze(index_.nodes.TagName(info->tag_id), tag_options)) {
      if (token == constraint_) {
        match = true;
        break;
      }
    }
    verdict = match ? 1 : -1;
  }
  return verdict == 1;
}

void AtomOccurrencesInto(const XmlIndex& index, const QueryAtom& atom,
                         PackedIds* out) {
  std::vector<const PostingList*> lists;
  for (const std::string& term : atom.terms) {
    const PostingList* list = index.inverted.Find(term);
    if (list == nullptr) return;  // some token never occurs
    lists.push_back(list);
  }

  if (lists.size() == 1 && atom.tag_constraint.empty()) {
    // Single keyword, no constraint: the result IS the list; emit it in
    // one range copy.
    PostingCursor cursor(*lists[0]);
    cursor.EmitAll(out);
    return;
  }

  size_t smallest = 0;
  for (size_t l = 1; l < lists.size(); ++l) {
    if (lists[l]->size() < lists[smallest]->size()) smallest = l;
  }

  // Phrase intersection drives a cursor per token list: the candidate ids
  // come off the smallest list in document order, so each other list only
  // ever gallops forward from its previous position — O(log gap) per
  // candidate instead of a full O(log n) binary search per candidate.
  std::vector<PostingCursor> cursors;
  cursors.reserve(lists.size());
  for (const PostingList* list : lists) cursors.emplace_back(*list);
  TagConstraintMatcher matcher(index, atom.tag_constraint);
  PostingCursor& driver = cursors[smallest];
  for (; !driver.AtEnd(); driver.Next()) {
    DeweySpan id = driver.Head();
    bool in_all = true;
    for (size_t l = 0; l < cursors.size(); ++l) {
      if (l == smallest) continue;
      cursors[l].SeekLowerBound(id);
      if (cursors[l].AtEnd() || cursors[l].Head().Compare(id) != 0) {
        in_all = false;
        break;
      }
    }
    if (!in_all) continue;
    if (!atom.tag_constraint.empty() && !matcher.Matches(id)) continue;
    out->Add(id);
  }
}

PackedIds AtomOccurrences(const XmlIndex& index, const QueryAtom& atom) {
  PackedIds out;
  AtomOccurrencesInto(index, atom, &out);
  return out;
}

MergedList MergedList::Build(const XmlIndex& index, const Query& query,
                             QueryArena* arena) {
  MergedList out;
  std::vector<PackedIds> lists;
  lists.reserve(query.size());
  for (const QueryAtom& atom : query.atoms()) {
    PackedIds ids = arena != nullptr ? arena->TakeIds() : PackedIds();
    AtomOccurrencesInto(index, atom, &ids);
    lists.push_back(std::move(ids));
  }
  std::vector<const PackedIds*> ptrs;
  ptrs.reserve(lists.size());
  for (size_t i = 0; i < lists.size(); ++i) {
    out.atom_list_sizes_.push_back(lists[i].size());
    if (lists[i].size() > 0) out.present_atoms_ |= 1ull << i;
    ptrs.push_back(&lists[i]);
  }

  if (arena != nullptr) {
    out.ids_ = arena->TakeIds();
    out.atoms_ = arena->TakeU32();
  }
  MergeListsAppend(ptrs, &out.ids_, &out.atoms_);
  if (arena != nullptr) {
    for (PackedIds& list : lists) arena->PutIds(std::move(list));
  }
  return out;
}

MergedList MergedList::FromParts(const std::vector<const PackedIds*>& lists,
                                 const std::vector<size_t>& atom_list_sizes,
                                 QueryArena* arena) {
  MergedList out;
  out.atom_list_sizes_ = atom_list_sizes;
  for (size_t i = 0; i < atom_list_sizes.size(); ++i) {
    if (atom_list_sizes[i] > 0) out.present_atoms_ |= 1ull << i;
  }
  if (arena != nullptr) {
    out.ids_ = arena->TakeIds();
    out.atoms_ = arena->TakeU32();
  }
  MergeListsAppend(lists, &out.ids_, &out.atoms_);
  return out;
}

void MergedList::ReleaseTo(QueryArena* arena) {
  if (arena == nullptr) return;
  arena->PutIds(std::move(ids_));
  ids_ = PackedIds();
  arena->PutU32(std::move(atoms_));
  atoms_ = std::vector<uint32_t>();
  present_atoms_ = 0;
  atom_list_sizes_.clear();
}

uint64_t MergedList::MaskOfRange(size_t begin, size_t end) const {
  uint64_t mask = 0;
  for (size_t i = begin; i < end; ++i) mask |= 1ull << atoms_[i];
  return mask;
}

uint64_t MergedList::SubtreeMask(DeweySpan prefix) const {
  auto [begin, end] = SubtreeRange(prefix);
  return MaskOfRange(begin, end);
}

}  // namespace gks
