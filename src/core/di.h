#ifndef GKS_CORE_DI_H_
#define GKS_CORE_DI_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/lce.h"
#include "core/query.h"
#include "index/xml_index.h"

namespace gks {

/// One element of the weighted keyword set S_w^Q (Sec. 6.2): an attribute
/// value exposed by the LCE nodes of the query response, its schema path
/// (tag names from the LCE down to the attribute node — the "semantics"
/// of the keyword, e.g. ip -> year -> "2001"), and its weight — the sum of
/// the ranks of every LCE node exposing it.
struct DiKeyword {
  std::string value;
  std::vector<std::string> path;
  double weight = 0.0;
  uint32_t support = 0;  // number of LCE nodes exposing the value

  /// "<year: 2001>" style rendering used by the Table 8 harness.
  std::string ToString() const;
};

struct DiOptions {
  size_t top_m = 5;
};

/// Safety valve for LCE nodes with enormous attribute fan-out (e.g. a
/// root-level response): DI discovery, facets and numeric aggregates scan
/// at most this many valued node rows per node, owned or not.
inline constexpr size_t kMaxValuedRowsPerNode = 100000;

/// One attribute occurrence a response node contributes to DI: the
/// aggregation key (attribute tag name, value string) plus the tag path
/// from the owning entity down to the attribute. This is the partition-
/// independent form of an occurrence: a coordinator feeds these into a
/// DiAccumulator without touching any index (docs/DISTRIBUTED.md).
struct DiContribution {
  std::string tag;
  std::string value;
  std::vector<std::string> path;
};

/// Which response nodes give DI (Sec. 6.2): LCE nodes with a positive
/// rank. Every DI source — an index walk, a segment walk, decoded shard
/// contributions — is filtered by this one rule.
inline bool GivesDi(const GksNode& node) {
  return node.is_lce && node.rank > 0.0;
}

/// The DI aggregation (Sec. 6.2), the one definition every search path
/// shares. Occurrences are keyed by (attribute tag name, value): the same
/// value under different tags carries different semantics ("2001" as a
/// year vs as a street number). Fed in merged rank order, the first
/// contributor of a key fixes its path, and its weight sums the ranks of
/// the contributing nodes.
class DiAccumulator {
 public:
  /// Adds one occurrence of (tag, value) exposed by a node of rank
  /// `rank`. Both views must outlive the accumulator; `make_path()` runs
  /// only for the key's first occurrence.
  template <typename MakePath>
  void Add(std::string_view tag, std::string_view value, double rank,
           MakePath&& make_path) {
    auto [it, inserted] = keywords_.try_emplace(Key{tag, value});
    DiKeyword& di = it->second;
    if (inserted) {
      di.value = std::string(value);
      di.path = make_path();
    }
    di.weight += rank;
    ++di.support;
  }

  /// The top `top_m` keywords, sorted by weight desc, value asc, path asc.
  /// The path leg totalizes the order: keys with equal weight and value
  /// still differ in the attribute tag, the path's last element.
  std::vector<DiKeyword> Take(size_t top_m) &&;

 private:
  struct Key {
    std::string_view tag;
    std::string_view value;
    bool operator==(const Key& other) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const {
      return std::hash<std::string_view>()(key.tag) * 31 +
             std::hash<std::string_view>()(key.value);
    }
  };
  std::unordered_map<Key, DiKeyword, KeyHash> keywords_;
};

/// The query-term rule of DI (Sec. 6.2), resolved against one index: "if
/// a keyword in the attribute node is part of the user query Q, it is not
/// included in the set". Built once per query and index (per segment of a
/// set), it maps the query's analyzed terms to the index's value-term ids
/// (NodeInfoTable::ValueTerms), so testing a value compares integers.
class DiTermFilter {
 public:
  /// `nodes` must outlive the filter.
  DiTermFilter(const NodeInfoTable& nodes, const Query& query);

  /// True when an analyzed term of value `value_id` is a query term.
  bool Drops(uint32_t value_id) const {
    if (query_terms_.empty()) return false;
    for (const uint32_t term : nodes_->ValueTerms(value_id)) {
      if (std::find(query_terms_.begin(), query_terms_.end(), term) !=
          query_terms_.end()) {
        return true;
      }
    }
    return false;
  }

 private:
  const NodeInfoTable* nodes_;
  std::vector<uint32_t> query_terms_;  // the query terms some value holds
};

/// The DI source of an index: feeds the attribute occurrences `node`
/// owns into `acc`. An occurrence counts when `node` is the deepest
/// self-or-ancestor entity of the attribute and `filter` (built for this
/// index) keeps its value; at most kMaxValuedRowsPerNode valued rows are
/// scanned. The caller applies GivesDi.
void AccumulateDi(const XmlIndex& index, const GksNode& node,
                  const DiTermFilter& filter, DiAccumulator* acc);

/// The same occurrences as AccumulateDi, as wire contributions in
/// document order.
std::vector<DiContribution> NodeDiContributions(const XmlIndex& index,
                                                const GksNode& node,
                                                const DiTermFilter& filter);

/// Discovers the top-m DI keywords (Def. 2.3.1) for a ranked response.
/// Runs in O(|S_w^Q|) plus the final top-m sort.
std::vector<DiKeyword> DiscoverDi(const XmlIndex& index,
                                  const std::vector<GksNode>& nodes,
                                  const Query& query,
                                  const DiOptions& options = {});

/// Per-node DI contributions, aligned with `nodes`; nodes that give no DI
/// get empty lists. Feeding them to a DiAccumulator in rank order gives
/// exactly DiscoverDi's keywords. The DiOptions argument shapes nothing
/// here: top_m applies where the contributions are replayed.
std::vector<std::vector<DiContribution>> ComputeDiContributions(
    const XmlIndex& index, const std::vector<GksNode>& nodes,
    const Query& query, const DiOptions& options);

}  // namespace gks

#endif  // GKS_CORE_DI_H_
