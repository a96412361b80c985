#ifndef GKS_INDEX_NODE_INFO_TABLE_H_
#define GKS_INDEX_NODE_INFO_TABLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "dewey/dewey_id.h"
#include "index/node_kind.h"
#include "index/posting_list.h"

namespace gks {

/// The paper keeps two hash tables — `entityHash` (entity nodes) and
/// `elementHash` (repeating + connecting nodes) — each mapping a Dewey id
/// to the node's direct-child count (Sec. 2.4). This class stores one map
/// of Dewey id -> NodeInfo (flags + child count + tag + optional attribute
/// value) and exposes the paper's `isEntity` / `isElement` functions on
/// top, plus tag/value dictionaries shared with DI discovery.
class NodeInfoTable {
 public:
  /// Interns `tag`, returning a dense id. Idempotent per distinct string.
  uint32_t InternTag(std::string_view tag);
  /// Looks up an already-interned tag without interning; false if unknown.
  bool FindTag(std::string_view tag, uint32_t* tag_id) const;
  const std::string& TagName(uint32_t tag_id) const { return tags_[tag_id]; }
  size_t tag_count() const { return tags_.size(); }

  /// Stores an attribute value for DI discovery; returns its dense id.
  uint32_t AddValue(std::string value);
  /// Deduplicating variant: returns the existing id when the same string
  /// was interned before (the reverse map is built lazily, so it also
  /// works on indexes loaded from disk).
  uint32_t InternValue(std::string_view value);
  const std::string& Value(uint32_t value_id) const {
    return values_[value_id];
  }
  size_t value_count() const { return values_.size(); }

  void Put(DeweySpan id, const NodeInfo& info);
  void Put(const DeweyId& id, const NodeInfo& info) {
    Put(DeweySpan::Of(id), info);
  }

  /// Returns the node's info or nullptr if the id names no element.
  const NodeInfo* Find(DeweySpan id) const;
  const NodeInfo* Find(const DeweyId& id) const {
    return Find(DeweySpan::Of(id));
  }

  /// Paper API: number of direct children if the node is an entity node,
  /// 0 otherwise ("returns ... if true, null otherwise").
  uint32_t IsEntity(DeweySpan id) const;
  /// Paper API: child count if the node is a repeating/connecting node.
  uint32_t IsElement(DeweySpan id) const;

  /// Deepest self-or-ancestor of `id` (within the same document) that is an
  /// entity node; false if none exists. `out` receives the entity's id.
  bool LowestEntityAncestor(DeweySpan id, DeweyId* out) const;

  size_t size() const { return map_.size(); }

  /// Iterates every (id, info) pair in unspecified order. The DeweySpan is
  /// valid only during the callback.
  template <typename F>
  void ForEach(F f) const {
    std::vector<uint32_t> components;
    for (const auto& [key, info] : map_) {
      DecodeKey(key, &components);
      f(DeweySpan{components.data(),
                  static_cast<uint32_t>(components.size())},
        info);
    }
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

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(std::string_view* input, NodeInfoTable* out);

 private:
  static std::string EncodeKey(DeweySpan id);
  static void DecodeKey(const std::string& key,
                        std::vector<uint32_t>* components);

  std::unordered_map<std::string, NodeInfo, TransparentStringHash,
                     std::equal_to<>>
      map_;
  std::vector<std::string> tags_;
  std::unordered_map<std::string, uint32_t, TransparentStringHash,
                     std::equal_to<>>
      tag_ids_;
  std::vector<std::string> values_;
  // Lazy reverse map for InternValue; rebuilt on first use after a load.
  std::unordered_map<std::string, uint32_t, TransparentStringHash,
                     std::equal_to<>>
      value_ids_;
  CategoryCounts counts_;
};

}  // namespace gks

#endif  // GKS_INDEX_NODE_INFO_TABLE_H_
