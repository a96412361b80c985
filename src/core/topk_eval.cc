#include "core/topk_eval.h"

#include <algorithm>
#include <memory>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/merged_list.h"
#include "core/partial_merge.h"
#include "core/window_scan.h"
#include "index/posting_cursor.h"

namespace gks {
namespace {

// Top-k instruments (docs/OBSERVABILITY.md). `blocks_skipped_total` is the
// acceptance signal: posting blocks the evaluator bypassed without
// decoding — the work a full evaluation would have paid.
struct TopKMetrics {
  Counter* queries;
  Counter* segments;
  Counter* pruned_sparse;
  Counter* pruned_bound;
  Counter* blocks_skipped;
  Counter* docs_skipped;

  static const TopKMetrics& Get() {
    static const TopKMetrics metrics = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return TopKMetrics{
          r.GetCounter("gks.search.topk.queries_total"),
          r.GetCounter("gks.search.topk.segments_total"),
          r.GetCounter("gks.search.topk.segments_pruned_sparse_total"),
          r.GetCounter("gks.search.topk.segments_pruned_bound_total"),
          r.GetCounter("gks.search.topk.blocks_skipped_total"),
          r.GetCounter("gks.search.topk.docs_skipped_total"),
      };
    }();
    return metrics;
  }
};

// Per-atom evaluation state: one cursor per token list, driven by the
// smallest (the atom's occurrences are a subset of every token list, so
// the driver's head document bounds where the atom can occur next).
struct AtomState {
  std::vector<PostingCursor> cursors;
  const PostingList* driver_list = nullptr;
  size_t driver = 0;           // index into cursors
  bool exists = false;         // every token list present in the index
  bool constrained = false;    // tag constraint or phrase: filter per id
  std::unique_ptr<TagConstraintMatcher> matcher;
  PackedIds occurrences;       // current segment's atom occurrences
};

// Document component of a cursor's current head (the head must exist).
uint32_t HeadDoc(const PostingCursor& cursor) {
  DeweySpan head = cursor.Head();
  return head.size > 0 ? head.data[0] : 0;
}

// Document component of a block's last id.
uint32_t BlockLastDoc(const PostingCursor& cursor, size_t b) {
  DeweySpan last = cursor.BlockLast(b);
  return last.size > 0 ? last.data[0] : 0;
}

// Largest per-occurrence rank weight the driver list can contribute in
// documents [current, doc_end): the max block-max weight over the blocks
// that overlap that document range. Without a rank_bounds section the
// unconditional bound 1.0 applies. The driver list over-approximates the
// atom (occurrences are a subset of it), so this is an upper bound on the
// atom's per-occurrence weight too.
double MaxWeightBelowDoc(const PostingCursor& cursor,
                         const std::vector<BlockRankBound>& bounds,
                         uint32_t doc_end) {
  if (bounds.empty()) return 1.0;
  size_t b = cursor.block_index();
  double weight = bounds[b].weight();
  // Ids of later blocks can still fall below doc_end (a document may span
  // blocks); extend while a block starts inside the window.
  while (b + 1 < bounds.size() && weight < 1.0 &&
         cursor.BlockFirst(b + 1).data[0] < doc_end) {
    ++b;
    weight = std::max(weight, bounds[b].weight());
  }
  return weight;
}

// Advances `cursor` to the first id at or past document `doc_end`, jumping
// whole undecoded blocks via the skip table. Returns the number of blocks
// bypassed without decoding their remainder.
uint64_t SkipCursorToDoc(PostingCursor* cursor, uint32_t doc_end) {
  uint64_t skipped = 0;
  while (!cursor->AtEnd()) {
    const size_t b = cursor->block_index();
    if (BlockLastDoc(*cursor, b) >= doc_end) break;
    cursor->SeekPastBlock(b);
    ++skipped;
  }
  if (!cursor->AtEnd()) {
    DeweySpan target{&doc_end, 1};
    cursor->SeekLowerBound(target);
  }
  return skipped;
}

// Appends the atom's occurrences inside document `doc` to state->
// occurrences, advancing every cursor past the document. Mirrors
// AtomOccurrencesInto (same candidate order, same checks), restricted to
// one document — which is exactly why the per-segment pipeline reproduces
// the full pipeline's entries for that document.
void EmitDocOccurrences(AtomState* state, uint32_t doc) {
  const uint32_t doc_end = doc + 1;
  PostingCursor& driver = state->cursors[state->driver];
  if (!state->constrained) {
    driver.EmitWhileDocBelow(doc_end, &state->occurrences);
    return;
  }
  for (; !driver.AtEnd(); driver.Next()) {
    DeweySpan id = driver.Head();
    if (id.size == 0 || id.data[0] >= doc_end) break;
    bool in_all = true;
    for (size_t l = 0; l < state->cursors.size(); ++l) {
      if (l == state->driver) continue;
      state->cursors[l].SeekLowerBound(id);
      if (state->cursors[l].AtEnd() ||
          state->cursors[l].Head().Compare(id) != 0) {
        in_all = false;
        break;
      }
    }
    if (!in_all) continue;
    if (state->matcher != nullptr && !state->matcher->Matches(id)) continue;
    state->occurrences.Add(id);
  }
}

}  // namespace

TopKResult EvaluateTopK(const XmlIndex& index, const Query& query, uint32_t s,
                        uint32_t k, QueryArena* arena) {
  TopKResult result;
  const TopKMetrics& metrics = TopKMetrics::Get();
  metrics.queries->Increment();

  const size_t n = query.size();
  std::vector<AtomState> atoms(n);
  for (size_t i = 0; i < n; ++i) {
    const QueryAtom& atom = query.atoms()[i];
    AtomState& state = atoms[i];
    std::vector<const PostingList*> lists;
    bool all = true;
    for (const std::string& term : atom.terms) {
      const PostingList* list = index.inverted.Find(term);
      if (list == nullptr) {
        all = false;
        break;
      }
      lists.push_back(list);
    }
    if (!all) continue;
    state.exists = true;
    state.constrained =
        lists.size() > 1 || !atom.tag_constraint.empty();
    if (!atom.tag_constraint.empty()) {
      state.matcher =
          std::make_unique<TagConstraintMatcher>(index, atom.tag_constraint);
    }
    state.cursors.reserve(lists.size());
    for (const PostingList* list : lists) state.cursors.emplace_back(*list);
    state.driver = 0;
    for (size_t l = 1; l < lists.size(); ++l) {
      if (lists[l]->size() < lists[state.driver]->size()) state.driver = l;
    }
    state.driver_list = lists[state.driver];
    state.occurrences = arena != nullptr ? arena->TakeIds() : PackedIds();
  }

  // Bounded top-k heap ordered by the searcher's sort; the front is the
  // WORST kept node, whose rank is the pruning threshold theta.
  std::vector<GksNode> heap;
  heap.reserve(k);

  std::vector<const PackedIds*> parts(n, nullptr);
  std::vector<size_t> part_sizes(n, 0);
  PackedIds empty_part;

  std::vector<uint32_t> active;  // atoms in the current segment (M)
  active.reserve(n);

  {
    ScopedSpan scan_span("topk.scan");
    while (true) {
      // Current document d: the smallest driver head. Atoms whose driver
      // already sits in d form the segment set M; everything else cannot
      // occur before its own head document.
      bool any = false;
      uint32_t d = 0;
      for (AtomState& state : atoms) {
        if (!state.exists || state.cursors[state.driver].AtEnd()) continue;
        uint32_t doc = HeadDoc(state.cursors[state.driver]);
        if (!any || doc < d) d = doc;
        any = true;
      }
      if (!any) break;

      active.clear();
      // The skip window [d, d_end): bounded by the first document some
      // OTHER atom could enter (its driver head) and by how far each
      // active driver's current block reaches — beyond its block end the
      // block-max bound says nothing without touching the next block's
      // skip entry, which MaxWeightBelowDoc does only when needed.
      uint32_t d_end = ~0u;
      for (uint32_t i = 0; i < n; ++i) {
        AtomState& state = atoms[i];
        if (!state.exists || state.cursors[state.driver].AtEnd()) continue;
        PostingCursor& driver = state.cursors[state.driver];
        if (HeadDoc(driver) == d) {
          active.push_back(i);
          uint32_t block_end = BlockLastDoc(driver, driver.block_index());
          if (block_end != ~0u && block_end + 1 < d_end) {
            d_end = block_end + 1;
          }
        } else {
          d_end = std::min(d_end, HeadDoc(driver));
        }
      }
      ++result.stats.segments;

      // Sparse skip: fewer than s atoms can occur anywhere in [d, d_end),
      // so no node there reaches s distinct keywords.
      bool skip = active.size() < s;
      bool bound_skip = false;
      if (!skip && heap.size() >= k) {
        // Bound skip: every node in [d, d_end) sees at most |M| distinct
        // atoms (potential P <= |M|) and each atom contributes at most
        // P * W_a, W_a the max block weight its driver overlaps — so
        // rank <= |M| * sum W_a. Strictly below theta means strictly
        // below every kept node: safe to drop, ties survive.
        double weight_sum = 0.0;
        for (uint32_t i : active) {
          AtomState& state = atoms[i];
          weight_sum += MaxWeightBelowDoc(state.cursors[state.driver],
                                          state.driver_list->rank_bounds(),
                                          d_end);
        }
        const double bound = static_cast<double>(active.size()) * weight_sum;
        if (bound < heap.front().rank) {
          skip = true;
          bound_skip = true;
        }
      }

      if (skip) {
        if (bound_skip) {
          ++result.stats.segments_pruned_bound;
        } else {
          ++result.stats.segments_pruned_sparse;
        }
        result.stats.docs_skipped += d_end - d;
        for (uint32_t i : active) {
          AtomState& state = atoms[i];
          result.stats.blocks_skipped +=
              SkipCursorToDoc(&state.cursors[state.driver], d_end);
        }
        continue;
      }

      // Evaluate document d through the exact full pipeline, restricted
      // to this document's occurrences. The per-atom lists are positioned
      // by query atom index so merge tie-breaks, masks and ranks match
      // the full merged list entry for entry. Stage spans of the inner
      // pipeline are recorded into a discarded per-segment collector —
      // thousands of per-document span trees would drown the query trace.
      uint64_t produced = 0;
      {
        TraceCollector discard;
        for (uint32_t i : active) {
          atoms[i].occurrences.Clear();
          EmitDocOccurrences(&atoms[i], d);
        }
        for (uint32_t i = 0; i < n; ++i) {
          parts[i] = &empty_part;
          part_sizes[i] = 0;
        }
        for (uint32_t i : active) {
          parts[i] = &atoms[i].occurrences;
          part_sizes[i] = atoms[i].occurrences.size();
        }
        MergedList sl = MergedList::FromParts(parts, part_sizes, arena);
        result.merged_list_size += sl.size();
        std::vector<LcpCandidate> candidates = ComputeLcpCandidates(sl, s);
        result.candidate_count += candidates.size();
        if (!candidates.empty()) {
          std::vector<GksNode> nodes =
              ComputeGksNodes(index, sl, candidates);
          produced = nodes.size();
          for (GksNode& node : nodes) {
            if (heap.size() < k) {
              heap.push_back(std::move(node));
              std::push_heap(heap.begin(), heap.end(), RanksBefore);
            } else if (RanksBefore(node, heap.front())) {
              std::pop_heap(heap.begin(), heap.end(), RanksBefore);
              heap.back() = std::move(node);
              std::push_heap(heap.begin(), heap.end(), RanksBefore);
            }
          }
        }
        sl.ReleaseTo(arena);
      }
      scan_span.AddItems(produced);
    }
  }

  {
    ScopedSpan span("topk.finalize");
    std::sort_heap(heap.begin(), heap.end(), RanksBefore);
    result.nodes = std::move(heap);
    span.AddItems(result.nodes.size());
  }

  if (arena != nullptr) {
    for (AtomState& state : atoms) {
      if (state.exists) arena->PutIds(std::move(state.occurrences));
    }
  }

  metrics.segments->Add(result.stats.segments);
  metrics.pruned_sparse->Add(result.stats.segments_pruned_sparse);
  metrics.pruned_bound->Add(result.stats.segments_pruned_bound);
  metrics.blocks_skipped->Add(result.stats.blocks_skipped);
  metrics.docs_skipped->Add(result.stats.docs_skipped);
  return result;
}

}  // namespace gks
