#include "index/posting_list.h"

#include <algorithm>
#include <numeric>

#include "common/metrics.h"
#include "common/simd/kernels.h"
#include "common/varint.h"
#include "index/posting_blocks.h"

namespace gks {

int DeweySpan::Compare(const DeweySpan& other) const {
  uint32_t limit = std::min(size, other.size);
  for (uint32_t i = 0; i < limit; ++i) {
    if (data[i] != other.data[i]) return data[i] < other.data[i] ? -1 : 1;
  }
  if (size == other.size) return 0;
  return size < other.size ? -1 : 1;
}

bool DeweySpan::IsPrefixOf(const DeweySpan& other) const {
  if (size > other.size) return false;
  for (uint32_t i = 0; i < size; ++i) {
    if (data[i] != other.data[i]) return false;
  }
  return true;
}

int DeweySpan::CompareToSubtree(const DeweySpan& prefix) const {
  uint32_t limit = std::min(size, prefix.size);
  for (uint32_t i = 0; i < limit; ++i) {
    if (data[i] != prefix.data[i]) return data[i] < prefix.data[i] ? -1 : 1;
  }
  if (size >= prefix.size) return 0;  // prefix is self-or-ancestor: inside
  return -1;  // strict ancestor of the subtree root sorts before the subtree
}

void PackedIds::Add(DeweySpan span) {
  components_.insert(components_.end(), span.data, span.data + span.size);
  offsets_.push_back(static_cast<uint32_t>(components_.size()));
}

void PackedIds::AppendRange(const PackedIds& src, size_t begin, size_t end) {
  if (begin >= end) return;
  const uint32_t src_base = src.offsets_[begin];
  const uint32_t dst_base = static_cast<uint32_t>(components_.size());
  components_.insert(components_.end(),
                     src.components_.begin() + src_base,
                     src.components_.begin() + src.offsets_[end]);
  // Rebase the source offsets in one gather-shift kernel pass:
  // dst_base + (src.offsets_[i] - src_base), in uint32 wraparound
  // arithmetic, identical for every dispatch tier.
  const simd::Kernels& kernels = simd::Active();
  const size_t old_size = offsets_.size();
  offsets_.resize(old_size + (end - begin));
  kernels.shift_u32(src.offsets_.data() + begin + 1, end - begin,
                    dst_base - src_base, offsets_.data() + old_size);
  kernels.gather_calls->Increment();
}

std::vector<uint32_t> PackedIds::SortPermutation() const {
  std::vector<uint32_t> perm(size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::sort(perm.begin(), perm.end(), [this](uint32_t a, uint32_t b) {
    return At(a).Compare(At(b)) < 0;
  });
  return perm;
}

void PackedIds::ApplyPermutation(const std::vector<uint32_t>& perm) {
  PackedIds sorted;
  sorted.components_.reserve(components_.size());
  sorted.offsets_.reserve(offsets_.size());
  for (uint32_t i : perm) sorted.Add(At(i));
  *this = std::move(sorted);
}

namespace {

// Shared gallop skeleton: `before(i)` is true while entry i sorts before
// the answer. Doubling probes from `from` bracket the answer in
// O(log distance), then a binary search inside the bracket pins it.
template <typename Before>
size_t GallopSearch(size_t from, size_t size, const Before& before) {
  if (from >= size || !before(from)) return from;
  size_t step = 1;
  size_t lo = from;  // invariant: before(lo)
  while (lo + step < size && before(lo + step)) {
    lo += step;
    step *= 2;
  }
  size_t hi = std::min(lo + step, size);  // !before(hi) or hi == size
  ++lo;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (before(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

size_t PackedIds::SubtreeBeginFrom(DeweySpan prefix, size_t from) const {
  return GallopSearch(from, size(), [this, prefix](size_t i) {
    return At(i).CompareToSubtree(prefix) < 0;
  });
}

size_t PackedIds::SubtreeEndFrom(DeweySpan prefix, size_t from) const {
  return GallopSearch(from, size(), [this, prefix](size_t i) {
    return At(i).CompareToSubtree(prefix) <= 0;
  });
}

size_t PackedIds::LowerBoundFrom(DeweySpan id, size_t from) const {
  return GallopSearch(from, size(), [this, id](size_t i) {
    return At(i).Compare(id) < 0;
  });
}

size_t PackedIds::UpperBoundFrom(DeweySpan id, size_t from) const {
  return GallopSearch(from, size(), [this, id](size_t i) {
    return At(i).Compare(id) <= 0;
  });
}

size_t PackedIds::SubtreeBegin(DeweySpan prefix) const {
  size_t lo = 0;
  size_t hi = size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (At(mid).CompareToSubtree(prefix) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t PackedIds::SubtreeEnd(DeweySpan prefix) const {
  size_t lo = 0;
  size_t hi = size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (At(mid).CompareToSubtree(prefix) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void PutFrontCoded(std::string* dst, DeweySpan previous, DeweySpan id) {
  uint32_t shared = 0;
  const uint32_t limit = std::min(id.size, previous.size);
  while (shared < limit && id.data[shared] == previous.data[shared]) {
    ++shared;
  }
  PutVarint32(dst, shared);
  PutVarint32(dst, id.size - shared);
  for (uint32_t j = shared; j < id.size; ++j) PutVarint32(dst, id.data[j]);
}

Status GetFrontCoded(std::string_view* input, std::vector<uint32_t>* id) {
  uint32_t shared = 0;
  uint32_t fresh = 0;
  GKS_RETURN_IF_ERROR(GetVarint32(input, &shared));
  GKS_RETURN_IF_ERROR(GetVarint32(input, &fresh));
  if (shared > id->size()) {
    return Status::Corruption("front-coded prefix exceeds predecessor");
  }
  if (fresh > 1u << 20) return Status::Corruption("implausible id length");
  id->resize(shared);
  for (uint32_t j = 0; j < fresh; ++j) {
    uint32_t component = 0;
    GKS_RETURN_IF_ERROR(GetVarint32(input, &component));
    id->push_back(component);
  }
  return Status::OK();
}

void PackedIds::EncodeTo(std::string* dst) const {
  PutVarint64(dst, size());
  DeweySpan previous{nullptr, 0};
  for (size_t i = 0; i < size(); ++i) {
    PutFrontCoded(dst, previous, At(i));
    previous = At(i);
  }
}

Status PackedIds::DecodeFrom(std::string_view* input, PackedIds* out) {
  *out = PackedIds();
  uint64_t count = 0;
  GKS_RETURN_IF_ERROR(GetVarint64(input, &count));
  std::vector<uint32_t> id;
  for (uint64_t i = 0; i < count; ++i) {
    GKS_RETURN_IF_ERROR(GetFrontCoded(input, &id));
    out->Add(DeweySpan{id.data(), static_cast<uint32_t>(id.size())});
  }
  return Status::OK();
}

void PostingList::Finalize() {
  if (finalized_) return;
  finalized_ = true;
  std::vector<uint32_t> perm = ids_.SortPermutation();
  PackedIds sorted;
  for (size_t i = 0; i < perm.size(); ++i) {
    DeweySpan span = ids_.At(perm[i]);
    if (i > 0 && span.Compare(ids_.At(perm[i - 1])) == 0) continue;
    sorted.Add(span);
  }
  ids_ = std::move(sorted);
}

Status PostingList::ExtendWith(const PostingList& tail) {
  if (tail.empty()) return Status::OK();
  Finalize();  // an empty or unfinalized receiver becomes sorted first
  if (!empty() && At(size() - 1).Compare(tail.At(0)) >= 0) {
    return Status::InvalidArgument(
        "ExtendWith requires the tail to sort after the existing postings");
  }
  for (size_t i = 0; i < tail.size(); ++i) ids_.Add(tail.At(i));
  return Status::OK();
}

Status PostingList::DecodeFrom(std::string_view* input, PostingList* out) {
  *out = PostingList();
  GKS_RETURN_IF_ERROR(PackedIds::DecodeFrom(input, &out->ids_));
  out->finalized_ = true;
  return Status::OK();
}

void PostingList::EncodeBlocksTo(std::string* dst) const {
  EncodeBlockPostings(ids_, dst);
}

Status PostingList::DecodeBlocksFrom(std::string_view* input,
                                     PostingList* out) {
  *out = PostingList();
  GKS_RETURN_IF_ERROR(DecodeBlockPostings(input, &out->ids_));
  out->finalized_ = true;
  return Status::OK();
}

}  // namespace gks
