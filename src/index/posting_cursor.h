#ifndef GKS_INDEX_POSTING_CURSOR_H_
#define GKS_INDEX_POSTING_CURSOR_H_

#include <cstddef>
#include <cstdint>

#include "index/posting_blocks.h"
#include "index/posting_list.h"

namespace gks {

/// Forward-only reader over one posting list: positions map 1:1 onto the
/// list's PackedIds, and seeks gallop from the current position, so a
/// walk over ascending targets costs O(log gap) per step. The underlying
/// list must outlive the cursor and stay unmodified.
class PostingCursor {
 public:
  explicit PostingCursor(const PostingList& list) : ids_(&list.ids()) {}

  size_t size() const { return ids_->size(); }
  bool AtEnd() const { return pos_ >= size(); }
  /// Global document-order index of the current id.
  size_t position() const { return pos_; }

  /// Current id. Must not be called when AtEnd().
  DeweySpan Head() const { return ids_->At(pos_); }

  void Next() { ++pos_; }

  /// Advances to the first id >= `target` in document order (no-op when
  /// already there). Never moves backwards; callers feed ascending targets.
  void SeekLowerBound(DeweySpan target);

  /// Advances to the first id not strictly before the subtree of `prefix`;
  /// returns true iff the new head exists and lies inside that subtree.
  bool SeekToSubtree(DeweySpan prefix);

  /// Appends every remaining id to `out` and leaves the cursor at the end.
  void EmitAll(PackedIds* out);

  /// Appends ids in document order while the head's document component
  /// (first path component) stays below `doc_end`, leaving the cursor on
  /// the first id at or past document `doc_end` (or at the end).
  void EmitWhileDocBelow(uint32_t doc_end, PackedIds* out);

  /// Block addressing for top-k evaluation: the list is viewed in
  /// kPostingBlockSize-id blocks — the fixed blocking of the v2 encoding —
  /// so indices align entry-for-entry with PostingList::rank_bounds().
  size_t block_count() const {
    return (size() + kPostingBlockSize - 1) / kPostingBlockSize;
  }
  /// Block holding the current position. Must not be called when AtEnd().
  size_t block_index() const { return pos_ / kPostingBlockSize; }
  DeweySpan BlockFirst(size_t b) const;
  DeweySpan BlockLast(size_t b) const;

  /// Jumps to the first id of the block after `b` (>= the block holding
  /// the current position) without visiting the ids in between — the
  /// top-k bound-skip primitive. Past the last block the cursor reads
  /// AtEnd. Never moves backwards.
  void SeekPastBlock(size_t b);

 private:
  const PackedIds* ids_;
  size_t pos_ = 0;  // global id index
};

}  // namespace gks

#endif  // GKS_INDEX_POSTING_CURSOR_H_
