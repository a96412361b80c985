#ifndef GKS_INDEX_POSTING_LIST_H_
#define GKS_INDEX_POSTING_LIST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "dewey/dewey_id.h"

namespace gks {

/// A non-owning view over the components of one Dewey id stored inside a
/// PackedIds container. Valid only while the container is alive and
/// unmodified.
struct DeweySpan {
  const uint32_t* data = nullptr;
  uint32_t size = 0;

  static DeweySpan Of(const DeweyId& id) {
    return {id.components().data(),
            static_cast<uint32_t>(id.components().size())};
  }
  // A span into a temporary would dangle immediately; forbid it.
  static DeweySpan Of(DeweyId&&) = delete;

  DeweyId ToDeweyId() const {
    return DeweyId(std::vector<uint32_t>(data, data + size));
  }

  /// Document-order comparison (ancestor before descendant).
  int Compare(const DeweySpan& other) const;

  /// True if `this` equals `other` or is an ancestor of it.
  bool IsPrefixOf(const DeweySpan& other) const;

  /// Three-way comparison of `this` against the *subtree* rooted at
  /// `prefix`: negative if this sorts before every node in that subtree,
  /// zero if inside it (prefix is self-or-ancestor), positive if after.
  int CompareToSubtree(const DeweySpan& prefix) const;

  bool operator==(const DeweySpan& other) const { return Compare(other) == 0; }
};

/// Front coding of one id of a sorted sequence: varints for the length of
/// the prefix it shares with `previous` and for the fresh suffix length,
/// then the suffix components. Adjacent ids share most of their path
/// (same document, same entry subtree), which is what keeps the
/// serialized index smaller than the source XML.
void PutFrontCoded(std::string* dst, DeweySpan previous, DeweySpan id);
/// Reads one front-coded id from the front of `*input`; `*id` holds its
/// predecessor on entry and the decoded id on return.
Status GetFrontCoded(std::string_view* input, std::vector<uint32_t>* id);

/// A flat, cache-friendly sequence of Dewey ids: all components live in one
/// contiguous buffer with an offsets side-array. This is the storage format
/// for posting lists and the node store — per-id heap allocations would
/// dominate memory on multi-million-posting corpora.
class PackedIds {
 public:
  PackedIds() { offsets_.push_back(0); }

  void Add(const DeweyId& id) { Add(DeweySpan::Of(id)); }
  void Add(DeweySpan span);

  /// Pre-sizes the backing arrays for `ids` ids totalling `components`
  /// path components (bulk-merge fast path).
  void Reserve(size_t ids, size_t components) {
    offsets_.reserve(ids + 1);
    components_.reserve(components);
  }

  /// Appends ids [begin, end) of `src` in one block copy — the run-emission
  /// fast path of the k-way merge. `src` must not alias this container.
  void AppendRange(const PackedIds& src, size_t begin, size_t end);

  /// Total path components stored across all ids.
  size_t component_count() const { return components_.size(); }

  size_t size() const { return offsets_.size() - 1; }
  bool empty() const { return size() == 0; }

  DeweySpan At(size_t i) const {
    return {components_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }
  DeweyId IdAt(size_t i) const { return At(i).ToDeweyId(); }

  /// Index permutation that orders the ids in document order.
  std::vector<uint32_t> SortPermutation() const;

  /// Reorders storage according to `perm` (as produced by SortPermutation).
  void ApplyPermutation(const std::vector<uint32_t>& perm);

  /// First index i with At(i) inside the subtree of `prefix`, assuming the
  /// container is sorted. Together with SubtreeEnd this yields the
  /// contiguous range of all self-or-descendants of `prefix`.
  size_t SubtreeBegin(DeweySpan prefix) const;
  size_t SubtreeEnd(DeweySpan prefix) const;

  /// First index i with At(i) >= id / > id in document order (sorted
  /// container, binary search from scratch).
  size_t LowerBound(DeweySpan id) const;
  size_t UpperBound(DeweySpan id) const;

  /// Galloping (exponential-search) variants for cursor-based scans: the
  /// answer is found in O(log distance) probes from `from` instead of
  /// O(log size) from scratch, so walking a sorted list of ascending
  /// probes costs O(log gap) per step. `from` must be <= the answer
  /// (callers pass their last cursor position); results equal the
  /// from-scratch variants.
  size_t SubtreeBeginFrom(DeweySpan prefix, size_t from) const;
  size_t SubtreeEndFrom(DeweySpan prefix, size_t from) const;

  /// First index i >= from with At(i) >= id in document order (galloping).
  size_t LowerBoundFrom(DeweySpan id, size_t from) const;
  /// First index i >= from with At(i) > id in document order (galloping).
  size_t UpperBoundFrom(DeweySpan id, size_t from) const;

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(std::string_view* input, PackedIds* out);

  /// Drops all ids but keeps the backing capacity (scratch-buffer reuse).
  void Clear() {
    components_.clear();
    offsets_.assign(1, 0);
  }

  /// Heap bytes used (for index-size reporting).
  size_t MemoryUsage() const {
    return components_.capacity() * sizeof(uint32_t) +
           offsets_.capacity() * sizeof(uint32_t);
  }

 private:
  /// Binary search from scratch over the whole container: the first index
  /// i with !before(At(i)), assuming `before` holds for a prefix of the
  /// ids and fails for the rest.
  template <typename Before>
  size_t Search(const Before& before) const;

  std::vector<uint32_t> components_;
  std::vector<uint32_t> offsets_;  // size()+1 entries; [i, i+1) delimits id i
};

/// Fixed-point scale of BlockRankBound::weight_scaled: 65536 == weight 1.0.
inline constexpr uint32_t kRankWeightOne = 65536;

/// Per-posting-block upper bound on rank potential (format v2 rank_bounds
/// section): the maximum per-occurrence term weight of any id in the block
/// (fixed-point, ceil-rounded so the stored bound never under-states the
/// true weight) plus the block's depth envelope. A missing section reads
/// as weight 1.0 — the unconditional bound — so bounds are always sound,
/// only sometimes loose.
struct BlockRankBound {
  uint32_t weight_scaled = kRankWeightOne;
  uint32_t min_depth = 0;
  uint32_t max_depth = 0;

  double weight() const {
    return static_cast<double>(weight_scaled) / kRankWeightOne;
  }
};

/// One keyword's inverted list: document-ordered, duplicate-free Dewey ids
/// of the nodes whose directly-contained text (or tag name) matches the
/// keyword. Built in arbitrary order, then finalized once; a loaded list
/// arrives finalized.
class PostingList {
 public:
  void Add(const DeweyId& id) { ids_.Add(id); }

  /// Sorts into document order and removes duplicate ids. Idempotent.
  void Finalize();

  size_t size() const { return ids_.size(); }
  bool empty() const { return size() == 0; }

  /// The id store (sorted once finalized).
  const PackedIds& ids() const { return ids_; }

  /// First/last id of a finalized, non-empty list.
  DeweySpan first_id() const { return ids_.At(0); }
  DeweySpan last_id() const { return ids_.At(ids_.size() - 1); }

  DeweySpan At(size_t i) const { return ids_.At(i); }
  DeweyId IdAt(size_t i) const { return ids_.IdAt(i); }

  size_t SubtreeBegin(DeweySpan prefix) const {
    return ids_.SubtreeBegin(prefix);
  }
  size_t SubtreeEnd(DeweySpan prefix) const { return ids_.SubtreeEnd(prefix); }

  /// Galloping cursor-based variants (see PackedIds).
  size_t LowerBoundFrom(DeweySpan id, size_t from) const {
    return ids_.LowerBoundFrom(id, from);
  }
  size_t UpperBoundFrom(DeweySpan id, size_t from) const {
    return ids_.UpperBoundFrom(id, from);
  }

  /// Appends a finalized `tail` whose first id sorts strictly after this
  /// list's last id (the parallel build's merge: the tail belongs to a
  /// later document). InvalidArgument if the order would break.
  Status ExtendWith(const PostingList& tail);

  /// Reads a format-v1 posting list (files older builds wrote).
  static Status DecodeFrom(std::string_view* input, PostingList* out);

  /// Encodes as a block-postings blob (format v2; see posting_blocks.h).
  void EncodeBlocksTo(std::string* dst) const;
  /// Decodes a block-postings blob from the front of `*input`.
  static Status DecodeBlocksFrom(std::string_view* input, PostingList* out);

  /// Per-block rank bounds (one entry per kPostingBlockSize-id block, the
  /// fixed blocking of the v2 encoding). Empty when the index carries no
  /// rank_bounds section — readers must then assume weight 1.0.
  const std::vector<BlockRankBound>& rank_bounds() const {
    return rank_bounds_;
  }
  void set_rank_bounds(std::vector<BlockRankBound> bounds) {
    rank_bounds_ = std::move(bounds);
  }

  size_t MemoryUsage() const { return ids_.MemoryUsage(); }

 private:
  PackedIds ids_;
  std::vector<BlockRankBound> rank_bounds_;
  bool finalized_ = false;
};

}  // namespace gks

#endif  // GKS_INDEX_POSTING_LIST_H_
