#ifndef GKS_INDEX_NODE_INFO_TABLE_H_
#define GKS_INDEX_NODE_INFO_TABLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "dewey/dewey_id.h"
#include "index/node_kind.h"
#include "index/posting_list.h"

namespace gks {

/// The paper keeps two hash tables — `entityHash` (entity nodes) and
/// `elementHash` (repeating + connecting nodes) — each mapping a Dewey id
/// to the node's direct-child count (Sec. 2.4). This class is one
/// document-ordered store of every element instead: a sorted PackedIds of
/// Dewey ids with an aligned NodeInfo row each (flags + child count + tag
/// + optional value), looked up by binary search. It exposes the paper's
/// `isEntity` / `isElement` functions on top, plus the tag/value
/// dictionaries. The valued rows (value_id != kNoValue) are the attribute
/// directory DI discovery (Sec. 6.2) range-scans.
///
/// Each row also links to its parent row: the row of its deepest proper
/// prefix that is an element (a level without a row is skipped). The
/// links are derived whenever rows are sorted or appended in order, and
/// never written to disk. Walks up the tree — the LCE mapping, the
/// potential-flow rank, DI paths, rank bounds — follow them instead of
/// binary-searching each Dewey prefix. Entity rows are not stored:
/// AddFlags may change them, so EntityRow reads the flags on the way up.
///
/// Each value also keeps its analyzed terms (text::Analyze) as ids into a
/// dictionary of the terms that occur in values: the value-term table.
/// Like the parent rows it is derived — whenever a value is added, so by
/// the builder, the parallel build's merge, a decode and the real-time
/// path alike — and never written to disk. DI's query-term rule compares
/// these ids instead of analyzing each value on every query.
class NodeInfoTable {
 public:
  /// Interns `tag`, returning a dense id. Idempotent per distinct string.
  uint32_t InternTag(std::string_view tag);
  /// Looks up an already-interned tag without interning; false if unknown.
  bool FindTag(std::string_view tag, uint32_t* tag_id) const;
  const std::string& TagName(uint32_t tag_id) const { return tags_[tag_id]; }
  size_t tag_count() const { return tags_.size(); }

  /// Stores an attribute value for DI discovery and derives its row of
  /// the value-term table; returns its dense id.
  uint32_t AddValue(std::string value);
  /// Deduplicating variant: returns the existing id when the same string
  /// was interned before (the reverse map is built lazily, so it also
  /// works on indexes loaded from disk).
  uint32_t InternValue(std::string_view value);
  const std::string& Value(uint32_t value_id) const {
    return values_[value_id];
  }
  size_t value_count() const { return values_.size(); }

  /// "No such term": FindValueTerm's answer for a term no value holds.
  static constexpr uint32_t kNoTerm = 0xffffffffu;

  /// The analyzed terms of value `value_id`, in text::Analyze order with
  /// repeats, as value-term ids.
  std::span<const uint32_t> ValueTerms(uint32_t value_id) const {
    const uint32_t begin = value_term_offsets_[value_id];
    return {value_terms_.data() + begin,
            value_term_offsets_[value_id + 1] - begin};
  }
  /// Value-term id of an analyzed term, or kNoTerm when no value holds it.
  uint32_t FindValueTerm(std::string_view term) const {
    auto it = term_ids_.find(term);
    return it == term_ids_.end() ? kNoTerm : it->second;
  }
  const std::string& ValueTermName(uint32_t term_id) const {
    return term_names_[term_id];
  }
  size_t value_term_count() const { return term_names_.size(); }

  /// Appends the row of an element not stored yet. Rows may arrive in any
  /// order; lookups need Finalize first, unless every row was appended in
  /// document order (the parallel build's merge appends later documents,
  /// a decode appends ascending rows). In-order appends link each row to
  /// its parent as they go.
  void Put(DeweySpan id, const NodeInfo& info);
  void Put(const DeweyId& id, const NodeInfo& info) {
    Put(DeweySpan::Of(id), info);
  }

  /// Sorts the rows into document order and links parents. Call once
  /// after the last Put; a no-op when every Put came in order.
  void Finalize();

  /// Returns the node's info or nullptr if the id names no element.
  const NodeInfo* Find(DeweySpan id) const;
  const NodeInfo* Find(const DeweyId& id) const {
    return Find(DeweySpan::Of(id));
  }

  /// "No such row": the answer of every row lookup that finds nothing.
  static constexpr uint32_t kNoRow = 0xffffffffu;

  /// Row of `id`, or kNoRow when no element has that id (binary search).
  uint32_t RowOf(DeweySpan id) const;

  /// Row of the deepest element whose id is a non-empty prefix of `id`,
  /// `id` itself included, or kNoRow. One binary search; an id that is
  /// not a row (a hostile posting, a lifted candidate) lands on its
  /// deepest ancestor that is.
  uint32_t SelfOrAncestorRow(DeweySpan id) const {
    return SelfOrAncestorRowAt(id, ids_.SubtreeBegin(id));
  }
  /// The same lookup for sweeps over ids in ascending document order:
  /// `*cursor` holds the previous call's position (0 before the first)
  /// and the search gallops forward from it.
  uint32_t SelfOrAncestorRowFrom(DeweySpan id, size_t* cursor) const {
    *cursor = ids_.LowerBoundFrom(id, *cursor);
    return SelfOrAncestorRowAt(id, *cursor);
  }

  /// Row of the deepest element that is a proper prefix of row `row`'s
  /// id, or kNoRow.
  uint32_t ParentRow(uint32_t row) const { return parents_[row]; }

  /// The first entity row on the way up from `row`, `row` included: the
  /// lowest self-or-ancestor entity. kNoRow when there is none or `row`
  /// is kNoRow.
  uint32_t EntityRow(uint32_t row) const {
    while (row != kNoRow && !infos_[row].is_entity()) row = parents_[row];
    return row;
  }

  /// Paper API: number of direct children if the node is an entity node,
  /// 0 otherwise ("returns ... if true, null otherwise").
  uint32_t IsEntity(DeweySpan id) const;
  /// Paper API: child count if the node is a repeating/connecting node.
  uint32_t IsElement(DeweySpan id) const;

  size_t size() const { return infos_.size(); }
  /// Rows carrying a value: the attribute directory's entries.
  size_t ValuedRowCount() const;

  /// Row access, for the rows ForEachValuedRow reports.
  DeweySpan IdAt(size_t row) const { return ids_.At(row); }
  const NodeInfo& InfoAt(size_t row) const { return infos_[row]; }

  /// Iterates every (id, info) pair in document order.
  template <typename F>
  void ForEach(F f) const {
    for (size_t row = 0; row < size(); ++row) f(ids_.At(row), infos_[row]);
  }

  /// The ownership rule of DI, facets and chunks (Sec. 6.2): calls
  /// `fn(row, owned)` for every valued row in `root`'s subtree, `root`
  /// included, in document order, until `fn` returns false. `owned` is
  /// false when an entity sits strictly below `root` on the row's path,
  /// the row itself counted. One forward scan: the shallowest such entity
  /// seen so far covers every following row that it prefixes.
  template <typename Fn>
  void ForEachValuedRow(DeweySpan root, Fn&& fn) const {
    ForEachValuedRowIn(root, ids_.SubtreeBegin(root), std::forward<Fn>(fn));
  }
  /// The same walk under the element of row `root_row`.
  template <typename Fn>
  void ForEachValuedRowUnder(uint32_t root_row, Fn&& fn) const {
    ForEachValuedRowIn(ids_.At(root_row), root_row, std::forward<Fn>(fn));
  }

  /// Adds category flags to an existing node (used by the schema-aware
  /// reconciliation pass); returns false if the node is unknown. Clears
  /// the connecting flag when a positive category is added and keeps the
  /// category tallies consistent.
  bool AddFlags(DeweySpan id, uint8_t flags);

  /// Category tallies for the Table 5 experiment. A node with both EN and
  /// RN flags counts toward both tallies, mirroring the paper ("its entry
  /// is present in both the hash tables").
  struct CategoryCounts {
    uint64_t attribute = 0;
    uint64_t repeating = 0;
    uint64_t entity = 0;
    uint64_t connecting = 0;
    uint64_t total = 0;  // total categorized element nodes
  };
  const CategoryCounts& counts() const { return counts_; }

  /// Approximate heap footprint for index-size reporting.
  size_t MemoryUsage() const;

  /// The nodes section: dictionaries, then the rows in document order
  /// with front-coded ids.
  void EncodeTo(std::string* dst) const;
  /// Corruption unless the row ids ascend strictly: binary search relies
  /// on it.
  static Status DecodeFrom(std::string_view* input, NodeInfoTable* out);

  /// The `attributes` section, written from the valued rows: their
  /// front-coded ids, then their tag ids, then their value ids.
  void EncodeAttributesTo(std::string* dst) const;
  /// Consumes an `attributes` section from the front of `*input`;
  /// Corruption unless it is exactly what EncodeAttributesTo writes.
  Status CheckAttributes(std::string_view* input) const;

 private:
  // ForEachValuedRow's scan; `begin` is the first row of `root`'s subtree.
  template <typename Fn>
  void ForEachValuedRowIn(DeweySpan root, size_t begin, Fn&& fn) const {
    const size_t end = ids_.SubtreeEndFrom(root, begin);
    DeweySpan entity;  // size 0: no entity below root on the current path
    for (size_t row = begin; row < end; ++row) {
      const DeweySpan id = ids_.At(row);
      const NodeInfo& info = infos_[row];
      if (entity.size == 0 || !entity.IsPrefixOf(id)) {
        entity = id.size > root.size && info.is_entity() ? id : DeweySpan{};
      }
      if (info.value_id != kNoValue && !fn(row, entity.size == 0)) return;
    }
  }

  // SelfOrAncestorRow once `pos` is the first row not before `id`.
  uint32_t SelfOrAncestorRowAt(DeweySpan id, size_t pos) const;
  // The deepest of rows [0, limit) whose non-empty id is a proper prefix
  // of `id`; `id` sorts after row limit - 1 (or limit is 0). Walks the
  // parent links up from row limit - 1.
  uint32_t NearestPrefixRow(DeweySpan id, size_t limit) const;

  PackedIds ids_;
  std::vector<NodeInfo> infos_;  // aligned with ids_
  std::vector<uint32_t> parents_;  // aligned with ids_; derived, not saved
  bool in_order_ = true;  // every Put so far ascended: parents_ is valid
  std::vector<std::string> tags_;
  std::unordered_map<std::string, uint32_t, TransparentStringHash,
                     std::equal_to<>>
      tag_ids_;
  std::vector<std::string> values_;
  // Lazy reverse map for InternValue; rebuilt on first use after a load.
  std::unordered_map<std::string, uint32_t, TransparentStringHash,
                     std::equal_to<>>
      value_ids_;
  // The value-term table (derived by AddValue, not saved): value v's term
  // ids are value_terms_[value_term_offsets_[v], value_term_offsets_[v+1]).
  std::vector<uint32_t> value_terms_;
  std::vector<uint32_t> value_term_offsets_ = {0};
  std::vector<std::string> term_names_;
  std::unordered_map<std::string, uint32_t, TransparentStringHash,
                     std::equal_to<>>
      term_ids_;
  // Derivation cache: each distinct raw token is checked for a stop word
  // and stemmed once; kNoTerm marks a stop word.
  std::unordered_map<std::string, uint32_t, TransparentStringHash,
                     std::equal_to<>>
      token_terms_;
  CategoryCounts counts_;
};

}  // namespace gks

#endif  // GKS_INDEX_NODE_INFO_TABLE_H_
