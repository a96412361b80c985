// Independent DI oracle: recompute the weighted keyword set S_w^Q
// (Sec. 6.2) of a response straight from the DOM of a random document and
// compare it with the engine's insights. The segment and shard suites
// compare merged DI with single-index DI; both sides run the same engine
// accumulation, so only an oracle that shares none of it can catch a bug
// in that accumulation.
//
// The definition, literally: every LCE response node with a positive rank
// contributes, in response order, each value-storing element of its DOM
// subtree (pre-order) whose nearest self-or-ancestor entity is that node,
// unless the value's analyzed terms repeat a query term. Occurrences
// aggregate by (attribute tag name, value): the first contributor fixes
// the path (tag names from the LCE down to the attribute), the weight sums
// the contributors' ranks, the support counts them. The keywords sort by
// weight desc, value asc, path asc, and the top m survive.
//
// The engine runs over the built index and over the same index saved and
// loaded, whose value-term table the decoder derives afresh.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "core/searcher.h"
#include "data/random_tree_gen.h"
#include "index/serialization.h"
#include "tests/test_util.h"
#include "text/analyzer.h"
#include "xml/dom_builder.h"

namespace gks {
namespace {

using gks::testing::BuildIndexFromXml;
using gks::testing::ParseQueryOrDie;

// The index stores a leaf-text value only up to this size
// (kMaxStoredValueBytes in index_builder.cc); random-tree leaves hold
// one or two short keywords, far below it.
constexpr size_t kMaxStoredValueBytes = 256;

struct OracleNode {
  const xml::DomNode* dom = nullptr;
  DeweyId id;
  std::vector<OracleNode*> children;  // element children only
  bool stores_value = false;
  std::string value;  // direct text, segments joined by one space
};

// Builds the oracle tree with builder-compatible Dewey ids (text segments
// consume ordinals too) and indexes it by id.
OracleNode* BuildOracle(const xml::DomNode& dom, DeweyId id,
                        std::vector<std::unique_ptr<OracleNode>>* pool,
                        std::map<DeweyId, OracleNode*>* by_id) {
  pool->push_back(std::make_unique<OracleNode>());
  OracleNode* node = pool->back().get();
  node->dom = &dom;
  node->id = std::move(id);
  (*by_id)[node->id] = node;
  bool has_text = false;
  bool has_element = false;
  uint32_t ordinal = 0;
  for (const auto& child : dom.children()) {
    if (child->is_text()) {
      if (has_text) node->value.push_back(' ');
      node->value += child->text();
      has_text = true;
      ++ordinal;
    } else {
      has_element = true;
      node->children.push_back(
          BuildOracle(*child, node->id.Child(ordinal++), pool, by_id));
    }
  }
  node->stores_value = has_text && !has_element && !node->value.empty() &&
                       node->value.size() <= kMaxStoredValueBytes;
  return node;
}

struct OracleKeyword {
  std::string value;
  std::vector<std::string> path;
  double weight = 0.0;
  uint32_t support = 0;
};

// Counts of the situations the (tag, value) key and the first-contributor
// rule decide, so the suite can show it reached them.
struct Coverage {
  uint64_t value_under_two_tags = 0;
  uint64_t key_under_two_paths = 0;
  uint64_t dropped_by_query_term = 0;  // owned occurrences the rule left out
};

// The query-term rule, by string comparison of freshly analyzed terms.
bool HitsQueryTerm(const Query& query, const std::string& value) {
  for (const std::string& term : text::Analyze(value)) {
    for (const QueryAtom& atom : query.atoms()) {
      if (std::find(atom.terms.begin(), atom.terms.end(), term) !=
          atom.terms.end()) {
        return true;
      }
    }
  }
  return false;
}

// Pre-order walk below `lce`: `entity` is the nearest self-or-ancestor
// entity of `node`, `path` the tag names from the LCE down to `node`.
void Collect(const XmlIndex& index, const Query& query, const OracleNode& lce,
             const OracleNode& node, const OracleNode* entity,
             std::vector<std::string>* path, double rank,
             std::map<std::pair<std::string, std::string>, OracleKeyword>* acc,
             Coverage* coverage) {
  const NodeInfo* info = index.nodes.Find(node.id);
  ASSERT_NE(info, nullptr) << node.id.ToString();
  if (info->is_entity()) entity = &node;
  path->push_back(node.dom->name());
  if (node.stores_value && entity == &lce) {
    if (HitsQueryTerm(query, node.value)) {
      ++coverage->dropped_by_query_term;
    } else {
      OracleKeyword& keyword = (*acc)[{node.dom->name(), node.value}];
      if (keyword.support == 0) {
        keyword.value = node.value;
        keyword.path = *path;
      } else if (keyword.path != *path) {
        ++coverage->key_under_two_paths;
      }
      keyword.weight += rank;
      ++keyword.support;
    }
  }
  for (const OracleNode* child : node.children) {
    Collect(index, query, lce, *child, entity, path, rank, acc, coverage);
  }
  path->pop_back();
}

std::vector<OracleKeyword> OracleDi(
    const XmlIndex& index, const std::map<DeweyId, OracleNode*>& by_id,
    const Query& query, const std::vector<GksNode>& nodes, size_t top_m,
    Coverage* coverage) {
  std::map<std::pair<std::string, std::string>, OracleKeyword> acc;
  for (const GksNode& node : nodes) {
    if (!node.is_lce || !(node.rank > 0.0)) continue;
    auto it = by_id.find(node.id);
    EXPECT_NE(it, by_id.end()) << node.id.ToString();
    if (it == by_id.end()) continue;
    std::vector<std::string> path;
    Collect(index, query, *it->second, *it->second, nullptr, &path, node.rank,
            &acc, coverage);
  }
  std::map<std::string, std::set<std::string>> tags_of_value;
  std::vector<OracleKeyword> out;
  for (auto& [key, keyword] : acc) {
    tags_of_value[key.second].insert(key.first);
    out.push_back(std::move(keyword));
  }
  for (const auto& [value, tags] : tags_of_value) {
    if (tags.size() > 1) ++coverage->value_under_two_tags;
  }
  std::sort(out.begin(), out.end(),
            [](const OracleKeyword& a, const OracleKeyword& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              if (a.value != b.value) return a.value < b.value;
              return a.path < b.path;
            });
  if (out.size() > top_m) out.resize(top_m);
  return out;
}

void ExpectSameDi(const std::vector<OracleKeyword>& want,
                  const std::vector<DiKeyword>& got) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("keyword " + std::to_string(i));
    EXPECT_EQ(got[i].value, want[i].value);
    EXPECT_EQ(got[i].path, want[i].path);
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].weight),
              std::bit_cast<uint64_t>(want[i].weight))
        << got[i].weight << " vs " << want[i].weight;
    EXPECT_EQ(got[i].support, want[i].support);
  }
}

TEST(DiOracle, EngineDiMatchesTheDomDefinition) {
  // One- to three-keyword queries over the 8-keyword vocabulary, two
  // with a tag keyword; s sweeps 0 (= |Q|) up to |Q|.
  const std::vector<std::string> queries = {
      "k0",       "k3",          "k0 k1",    "k2 k5",       "k4 k7",
      "k1 k6",    "k0 k3 k5",    "k2 k4 k6", "t1 k2",       "t3 k0 k7",
  };
  const std::vector<size_t> top_ms = {1, 5, 1000};
  const std::vector<uint32_t> top_ks = {0, 3};
  Coverage coverage;
  uint64_t compared = 0;
  uint64_t non_empty = 0;
  for (uint32_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    data::RandomTreeOptions options;
    options.seed = seed;
    std::string xmltext = data::GenerateRandomTree(options);
    XmlIndex built = BuildIndexFromXml(xmltext);
    Result<xml::DomDocument> dom = xml::ParseDom(xmltext);
    ASSERT_TRUE(dom.ok()) << dom.status().ToString();
    std::vector<std::unique_ptr<OracleNode>> pool;
    std::map<DeweyId, OracleNode*> by_id;
    BuildOracle(*dom->root(), DeweyId({0, 0}), &pool, &by_id);
    // The loaded index derives its value-term table on decode.
    const std::string path = ::testing::TempDir() + "gks_di_oracle_" +
                             std::to_string(seed) + ".gksidx";
    ASSERT_TRUE(SaveIndex(built, path).ok());
    Result<XmlIndex> loaded = LoadIndex(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    for (const XmlIndex* searched : {&built, &*loaded}) {
      SCOPED_TRACE(searched == &built ? "built" : "loaded");
      const XmlIndex& index = *searched;
      GksSearcher searcher(&index);
      for (const std::string& text : queries) {
        Query query = ParseQueryOrDie(text);
        for (uint32_t s = 0; s <= query.size(); ++s) {
          for (uint32_t top_k : top_ks) {
            for (size_t top_m : top_ms) {
              SCOPED_TRACE(text + " s=" + std::to_string(s) +
                           " top_k=" + std::to_string(top_k) +
                           " m=" + std::to_string(top_m));
              SearchOptions search;
              search.s = s;
              search.top_k = top_k;
              search.di_top_m = top_m;
              search.max_results = 0;
              Result<SearchResponse> response = searcher.Search(query, search);
              ASSERT_TRUE(response.ok()) << response.status().ToString();
              std::vector<OracleKeyword> want =
                  OracleDi(index, by_id, query, response->nodes, top_m,
                           &coverage);
              ExpectSameDi(want, response->insights);
              ++compared;
              if (!want.empty()) ++non_empty;
            }
          }
        }
      }
    }
  }
  // The comparison must have bitten: most responses carry DI, and the
  // cases the key, tie and query-term rules decide did occur.
  EXPECT_GT(non_empty, compared / 2);
  EXPECT_GT(coverage.value_under_two_tags, 0u);
  EXPECT_GT(coverage.key_under_two_paths, 0u);
  EXPECT_GT(coverage.dropped_by_query_term, 0u);
}

}  // namespace
}  // namespace gks
