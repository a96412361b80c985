#include "index/posting_cursor.h"

#include <algorithm>

namespace gks {

void PostingCursor::SeekLowerBound(DeweySpan target) {
  if (AtEnd()) return;
  pos_ = ids_->LowerBoundFrom(target, pos_);
}

bool PostingCursor::SeekToSubtree(DeweySpan prefix) {
  if (AtEnd()) return false;
  pos_ = ids_->SubtreeBeginFrom(prefix, pos_);
  return !AtEnd() && Head().CompareToSubtree(prefix) == 0;
}

void PostingCursor::EmitWhileDocBelow(uint32_t doc_end, PackedIds* out) {
  while (!AtEnd()) {
    DeweySpan head = Head();
    if (head.size == 0 || head.data[0] >= doc_end) return;
    out->Add(head);
    Next();
  }
}

DeweySpan PostingCursor::BlockFirst(size_t b) const {
  return ids_->At(b * kPostingBlockSize);
}

DeweySpan PostingCursor::BlockLast(size_t b) const {
  return ids_->At(std::min(size(), (b + 1) * kPostingBlockSize) - 1);
}

void PostingCursor::SeekPastBlock(size_t b) {
  if (AtEnd()) return;
  pos_ = std::max(pos_, std::min(size(), (b + 1) * kPostingBlockSize));
}

void PostingCursor::EmitAll(PackedIds* out) {
  out->AppendRange(*ids_, pos_, size());
  pos_ = size();
}

}  // namespace gks
