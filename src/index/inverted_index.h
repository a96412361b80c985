#ifndef GKS_INDEX_INVERTED_INDEX_H_
#define GKS_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/hash.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "dewey/dewey_id.h"
#include "index/posting_list.h"

namespace gks {

class NodeInfoTable;  // node_info_table.h

/// Keyword -> posting-list map (Sec. 2.4). Terms are already analyzed
/// (lower-cased, stop-worded, stemmed) by the index builder; each posting
/// is the Dewey id of the element that directly contains the keyword
/// (text) or carries it as its tag name.
class InvertedIndex {
 public:
  void Add(std::string_view term, const DeweyId& id);

  /// Sorts and deduplicates every list. Must be called once after the last
  /// Add and before any Find. With a pool, the per-keyword sorts fan out
  /// across its workers (each list's finalize is independent, so the
  /// result is identical regardless of scheduling).
  void Finalize(ThreadPool* pool = nullptr);

  /// Posting list for `term`, or nullptr if the term never occurs.
  const PostingList* Find(std::string_view term) const;

  /// Existing-or-new mutable list for `term` (AppendDocuments).
  PostingList* MutableList(std::string_view term);

  size_t term_count() const { return lists_.size(); }
  uint64_t posting_count() const;

  /// Iterates (term, list) pairs in unspecified order.
  template <typename F>
  void ForEach(F f) const {
    for (const auto& [term, list] : lists_) f(term, list);
  }

  size_t MemoryUsage() const;

  /// Reads a format-v1 inverted index section (files older builds wrote).
  static Status DecodeFrom(std::string_view* input, InvertedIndex* out);

  /// Format v2: terms in lexicographic order, each followed by its
  /// block-postings blob (posting_blocks.h), so the bytes are a
  /// deterministic function of the index contents.
  void EncodeToBlocks(std::string* dst) const;
  /// Decodes a block-format section from the front of `*input`.
  static Status DecodeFromBlocks(std::string_view* input, InvertedIndex* out);

  /// Format v2 rank_bounds section (block_max.h): per term in
  /// lexicographic order — mirroring EncodeToBlocks, terms are not
  /// repeated — a varint block count followed by one
  /// (weight_scaled, min_depth, max_depth) varint triple per posting
  /// block.
  void EncodeRankBoundsTo(const NodeInfoTable& nodes, std::string* dst) const;

  /// Parses a rank_bounds section payload, validates it against the
  /// loaded lists (term and block counts must line up; weights must lie in
  /// (0, 1]; each block's depth envelope must contain its first and last
  /// id), and attaches the bounds to each list. Corruption with a section
  /// byte offset on any mismatch.
  Status ApplyRankBounds(std::string_view section);

 private:
  std::unordered_map<std::string, PostingList, TransparentStringHash,
                     std::equal_to<>>
      lists_;
};

}  // namespace gks

#endif  // GKS_INDEX_INVERTED_INDEX_H_
