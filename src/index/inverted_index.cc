#include "index/inverted_index.h"

#include <algorithm>

#include "common/varint.h"
#include "index/block_max.h"
#include "index/posting_blocks.h"

namespace gks {

void InvertedIndex::Add(std::string_view term, const DeweyId& id) {
  auto it = lists_.find(term);
  if (it == lists_.end()) {
    it = lists_.emplace(std::string(term), PostingList()).first;
  }
  it->second.Add(id);
}

void InvertedIndex::Finalize(ThreadPool* pool) {
  if (pool == nullptr || pool->size() <= 1 || lists_.size() < 2) {
    for (auto& [term, list] : lists_) {
      (void)term;
      list.Finalize();
    }
    return;
  }
  // Per-keyword sorts are independent; fan them across the pool. The
  // gather order is the map's iteration order, but every schedule produces
  // the same per-list result, so finalization stays deterministic.
  std::vector<PostingList*> lists;
  lists.reserve(lists_.size());
  for (auto& [term, list] : lists_) {
    (void)term;
    lists.push_back(&list);
  }
  ParallelFor(pool, lists.size(), [&lists](size_t i) {
    lists[i]->Finalize();
  });
}

const PostingList* InvertedIndex::Find(std::string_view term) const {
  auto it = lists_.find(term);
  return it == lists_.end() ? nullptr : &it->second;
}

PostingList* InvertedIndex::MutableList(std::string_view term) {
  auto it = lists_.find(term);
  if (it == lists_.end()) {
    it = lists_.emplace(std::string(term), PostingList()).first;
  }
  return &it->second;
}

uint64_t InvertedIndex::posting_count() const {
  uint64_t total = 0;
  for (const auto& [term, list] : lists_) {
    (void)term;
    total += list.size();
  }
  return total;
}

size_t InvertedIndex::MemoryUsage() const {
  size_t bytes = 0;
  for (const auto& [term, list] : lists_) {
    bytes += term.capacity() + list.MemoryUsage() + sizeof(list) +
             sizeof(void*) * 2;
  }
  return bytes;
}

Status InvertedIndex::DecodeFrom(std::string_view* input, InvertedIndex* out) {
  *out = InvertedIndex();
  uint64_t count = 0;
  GKS_RETURN_IF_ERROR(GetVarint64(input, &count));
  for (uint64_t i = 0; i < count; ++i) {
    std::string term;
    GKS_RETURN_IF_ERROR(GetLengthPrefixed(input, &term));
    PostingList list;
    GKS_RETURN_IF_ERROR(PostingList::DecodeFrom(input, &list));
    out->lists_.emplace(std::move(term), std::move(list));
  }
  return Status::OK();
}

namespace {

// Lexicographic term order — the iteration order EncodeToBlocks writes
// and the bounds section must mirror entry for entry. The serialized index
// is then a deterministic function of the logical contents, independent
// of hash-map iteration or build schedule — what lets the parallel build
// be verified byte-identical against the sequential one, and keeps
// on-disk indexes diffable across runs.
template <typename Map>
std::vector<const std::string*> SortedTermPointers(const Map& lists) {
  std::vector<const std::string*> terms;
  terms.reserve(lists.size());
  for (const auto& [term, list] : lists) {
    (void)list;
    terms.push_back(&term);
  }
  std::sort(terms.begin(), terms.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  return terms;
}

}  // namespace

void InvertedIndex::EncodeToBlocks(std::string* dst) const {
  PutVarint64(dst, lists_.size());
  for (const std::string* term : SortedTermPointers(lists_)) {
    PutLengthPrefixed(dst, *term);
    lists_.find(*term)->second.EncodeBlocksTo(dst);
  }
}

Status InvertedIndex::DecodeFromBlocks(std::string_view* input,
                                       InvertedIndex* out) {
  *out = InvertedIndex();
  uint64_t count = 0;
  GKS_RETURN_IF_ERROR(GetVarint64(input, &count));
  for (uint64_t i = 0; i < count; ++i) {
    std::string term;
    GKS_RETURN_IF_ERROR(GetLengthPrefixed(input, &term));
    PostingList list;
    GKS_RETURN_IF_ERROR(PostingList::DecodeBlocksFrom(input, &list));
    out->lists_.emplace(std::move(term), std::move(list));
  }
  return Status::OK();
}

void InvertedIndex::EncodeRankBoundsTo(const NodeInfoTable& nodes,
                                       std::string* dst) const {
  PutVarint64(dst, lists_.size());
  for (const std::string* term : SortedTermPointers(lists_)) {
    const PostingList& list = lists_.find(*term)->second;
    std::vector<BlockRankBound> bounds =
        ComputeBlockRankBounds(list.ids(), nodes);
    PutVarint64(dst, bounds.size());
    for (const BlockRankBound& bound : bounds) {
      PutVarint32(dst, bound.weight_scaled);
      PutVarint32(dst, bound.min_depth);
      PutVarint32(dst, bound.max_depth);
    }
  }
}

Status InvertedIndex::ApplyRankBounds(std::string_view section) {
  std::string_view in = section;
  auto at = [&section](std::string_view rest) {
    return " at section byte " + std::to_string(section.size() - rest.size());
  };
  auto read64 = [&](uint64_t* v) {
    return GetVarint64(&in, v).ok()
               ? Status::OK()
               : Status::Corruption("rank_bounds section truncated" + at(in));
  };
  auto read32 = [&](uint32_t* v) {
    return GetVarint32(&in, v).ok()
               ? Status::OK()
               : Status::Corruption("rank_bounds section truncated" + at(in));
  };

  uint64_t term_count = 0;
  GKS_RETURN_IF_ERROR(read64(&term_count));
  if (term_count != lists_.size()) {
    return Status::Corruption(
        "rank_bounds section lists " + std::to_string(term_count) +
        " terms, inverted index has " + std::to_string(lists_.size()) +
        at(in));
  }
  for (const std::string* term : SortedTermPointers(lists_)) {
    PostingList* list = &lists_.find(*term)->second;
    uint64_t block_count = 0;
    GKS_RETURN_IF_ERROR(read64(&block_count));
    const uint64_t expected =
        (list->size() + kPostingBlockSize - 1) / kPostingBlockSize;
    if (block_count != expected) {
      return Status::Corruption(
          "rank_bounds block count " + std::to_string(block_count) +
          " for term '" + *term + "' (list has " + std::to_string(expected) +
          " blocks)" + at(in));
    }
    std::vector<BlockRankBound> bounds(block_count);
    for (uint64_t b = 0; b < block_count; ++b) {
      BlockRankBound& bound = bounds[b];
      GKS_RETURN_IF_ERROR(read32(&bound.weight_scaled));
      GKS_RETURN_IF_ERROR(read32(&bound.min_depth));
      GKS_RETURN_IF_ERROR(read32(&bound.max_depth));
      if (bound.weight_scaled == 0 || bound.weight_scaled > kRankWeightOne) {
        return Status::Corruption("rank_bounds weight " +
                                  std::to_string(bound.weight_scaled) +
                                  " out of range" + at(in));
      }
      if (bound.min_depth > bound.max_depth) {
        return Status::Corruption("rank_bounds depth range inverted" + at(in));
      }
      // Bounds describe fixed kPostingBlockSize blocks (the decoder
      // rejects any other blocking). The block's first and last id are
      // ground truth for its depth envelope: an envelope excluding either
      // cannot bound the block.
      const size_t begin = b * kPostingBlockSize;
      const size_t end = std::min(list->size(), begin + kPostingBlockSize);
      const uint32_t first_depth = list->At(begin).size;
      const uint32_t last_depth = list->At(end - 1).size;
      if (first_depth < bound.min_depth || first_depth > bound.max_depth ||
          last_depth < bound.min_depth || last_depth > bound.max_depth) {
        return Status::Corruption("rank_bounds bound contradicts block " +
                                  std::to_string(b) + " of term '" + *term +
                                  "'" + at(in));
      }
    }
    list->set_rank_bounds(std::move(bounds));
  }
  if (!in.empty()) {
    return Status::Corruption("trailing bytes after rank_bounds section" +
                              at(in));
  }
  return Status::OK();
}

void AttrDirectory::Add(const DeweyId& id, uint32_t tag_id,
                        uint32_t value_id) {
  ids_.Add(id);
  tag_ids_.push_back(tag_id);
  value_ids_.push_back(value_id);
}

void AttrDirectory::Finalize() {
  std::vector<uint32_t> perm = ids_.SortPermutation();
  std::vector<uint32_t> tags(perm.size());
  std::vector<uint32_t> values(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    tags[i] = tag_ids_[perm[i]];
    values[i] = value_ids_[perm[i]];
  }
  ids_.ApplyPermutation(perm);
  tag_ids_ = std::move(tags);
  value_ids_ = std::move(values);
}

void AttrDirectory::EncodeTo(std::string* dst) const {
  ids_.EncodeTo(dst);
  PutVarint64(dst, tag_ids_.size());
  for (uint32_t tag : tag_ids_) PutVarint32(dst, tag);
  for (uint32_t value : value_ids_) PutVarint32(dst, value);
}

Status AttrDirectory::DecodeFrom(std::string_view* input, AttrDirectory* out) {
  *out = AttrDirectory();
  GKS_RETURN_IF_ERROR(PackedIds::DecodeFrom(input, &out->ids_));
  uint64_t count = 0;
  GKS_RETURN_IF_ERROR(GetVarint64(input, &count));
  if (count != out->ids_.size()) {
    return Status::Corruption("attr directory size mismatch");
  }
  out->tag_ids_.resize(count);
  out->value_ids_.resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    GKS_RETURN_IF_ERROR(GetVarint32(input, &out->tag_ids_[i]));
  }
  for (uint64_t i = 0; i < count; ++i) {
    GKS_RETURN_IF_ERROR(GetVarint32(input, &out->value_ids_[i]));
  }
  return Status::OK();
}

}  // namespace gks
