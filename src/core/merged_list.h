#ifndef GKS_CORE_MERGED_LIST_H_
#define GKS_CORE_MERGED_LIST_H_

#include <cstdint>
#include <vector>

#include "core/arena.h"
#include "core/query.h"
#include "index/posting_list.h"
#include "index/xml_index.h"

namespace gks {

/// The merged, document-ordered occurrence list S_L of Sec. 4.1: the
/// posting lists of all query keywords, k-way merged by Dewey id. Phrase
/// atoms first intersect their token lists (all tokens at the same node).
///
/// Storage is flat (PackedIds + parallel atom array); entry i is the pair
/// (id, keyword index in the query).
/// Materialized, document-ordered occurrence list of one query atom:
/// a single term's posting list, the intersection of a phrase's token
/// lists, and/or the subset whose containing element satisfies the atom's
/// tag constraint. Shared by the merged-list builder and the ILE baseline.
PackedIds AtomOccurrences(const XmlIndex& index, const QueryAtom& atom);

/// Same, appending into a caller-provided (cleared) buffer so arena
/// scratch can be reused across queries.
void AtomOccurrencesInto(const XmlIndex& index, const QueryAtom& atom,
                         PackedIds* out);

/// True if the element's tag satisfies the atom's constraint. Tags are
/// stored raw ("Course"); the constraint is analyzed, so compare through
/// the tag pipeline with per-tag-id memoization. Shared by the merged-list
/// builder and the top-k evaluator (both filter occurrences the same way,
/// which is what keeps their results identical).
class TagConstraintMatcher {
 public:
  /// Both referents must outlive the matcher.
  TagConstraintMatcher(const XmlIndex& index, const std::string& constraint)
      : index_(index), constraint_(constraint) {}

  bool Matches(DeweySpan id);

 private:
  const XmlIndex& index_;
  const std::string& constraint_;
  std::vector<char> cache_;  // by tag id: 0 unknown, 1 match, -1 mismatch
};

class MergedList {
 public:
  /// Builds S_L for `query` against `index` with a cursor-based k-way
  /// merge: galloping (exponential-search) cursor advance replaces the
  /// historical per-entry binary search, so the cost is
  /// O(|S_L| + sum over runs of log(run length) * log k) — linear when
  /// the lists are skewed and runs are long (see docs/PERFORMANCE.md).
  /// Output order is deterministic: document order, ties between atoms
  /// broken by ascending atom index.
  ///
  /// When `arena` is non-null, per-atom scratch and the output arrays
  /// draw on (and return to) the arena; call ReleaseTo when done with
  /// the list to recycle its storage. Behavior is otherwise identical.
  static MergedList Build(const XmlIndex& index, const Query& query,
                          QueryArena* arena = nullptr);

  /// Assembles a merged list directly from per-atom occurrence lists
  /// (entry order: document order, atom-index tie-break — identical to
  /// Build over the same lists). The anchor-probe evaluator uses this to
  /// merge each atom's *coverage subset*; `atom_list_sizes` then carries
  /// the full per-atom sizes so diagnostics stay meaningful.
  static MergedList FromParts(const std::vector<const PackedIds*>& lists,
                              const std::vector<size_t>& atom_list_sizes,
                              QueryArena* arena = nullptr);

  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  DeweySpan IdAt(size_t i) const { return ids_.At(i); }
  uint32_t AtomAt(size_t i) const { return atoms_[i]; }

  /// Contiguous range of entries inside `prefix`'s subtree.
  std::pair<size_t, size_t> SubtreeRange(DeweySpan prefix) const {
    return {ids_.SubtreeBegin(prefix), ids_.SubtreeEnd(prefix)};
  }
  /// The same range for sweeps over prefixes in ascending document order:
  /// `*cursor` holds the previous call's range start (0 before the first),
  /// the start gallops forward from it and the end from the start.
  std::pair<size_t, size_t> SubtreeRangeFrom(DeweySpan prefix,
                                             size_t* cursor) const {
    *cursor = ids_.SubtreeBeginFrom(prefix, *cursor);
    return {*cursor, ids_.SubtreeEndFrom(prefix, *cursor)};
  }

  /// Unique-atom mask over the entries of [begin, end).
  uint64_t MaskOfRange(size_t begin, size_t end) const;
  /// Unique-atom mask of `prefix`'s whole subtree.
  uint64_t SubtreeMask(DeweySpan prefix) const;

  /// Bit set for every query atom that produced at least one posting.
  uint64_t present_atoms() const { return present_atoms_; }

  /// Per-atom posting counts after phrase intersection (|S_i| in Sec. 4).
  const std::vector<size_t>& atom_list_sizes() const {
    return atom_list_sizes_;
  }

  /// Hands the backing arrays to `arena` for the next query; the list
  /// reads as empty afterwards.
  void ReleaseTo(QueryArena* arena);

 private:
  PackedIds ids_;
  std::vector<uint32_t> atoms_;
  uint64_t present_atoms_ = 0;
  std::vector<size_t> atom_list_sizes_;
};

}  // namespace gks

#endif  // GKS_CORE_MERGED_LIST_H_
