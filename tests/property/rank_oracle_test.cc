// Independent rank oracle: recompute the potential-flow rank (Sec. 5) of
// every response node straight from the DOM of a random document and
// compare it, as a double, with the engine's rank. The engine walks the
// node store's parent rows; the oracle shares none of that: its child
// counts come from the parsed tree and its occurrences from analyzing
// each element's tag and text.
//
// The definition, literally: a node N holding P distinct query keywords
// in its subtree starts with potential P. For each keyword, its terminal
// points are its shallowest occurrences below N (N included). Potential
// divides equally among the children (elements and text segments) of
// every node from N down to a terminal's parent, in that order; the rank
// sums what reaches each terminal, in document order, keywords of one
// element in query order.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "core/searcher.h"
#include "data/figures.h"
#include "data/random_tree_gen.h"
#include "tests/test_util.h"
#include "text/analyzer.h"
#include "xml/dom_builder.h"

namespace gks {
namespace {

using gks::testing::BuildIndexFromXml;
using gks::testing::ParseQueryOrDie;

struct OracleNode {
  DeweyId id;
  std::vector<const OracleNode*> children;  // element children only
  uint32_t child_count = 0;                 // elements + text segments
  std::vector<std::string> terms;           // of the tag and the text
};

// Builds the oracle tree with builder-compatible Dewey ids (text segments
// consume ordinals too) and indexes it by id.
const OracleNode* BuildOracle(const xml::DomNode& dom, DeweyId id,
                              std::vector<std::unique_ptr<OracleNode>>* pool,
                              std::map<DeweyId, const OracleNode*>* by_id) {
  pool->push_back(std::make_unique<OracleNode>());
  OracleNode* node = pool->back().get();
  node->id = std::move(id);
  (*by_id)[node->id] = node;
  text::AnalyzerOptions tag_options;
  tag_options.remove_stopwords = false;
  node->terms = text::Analyze(dom.name(), tag_options);
  uint32_t ordinal = 0;
  for (const auto& child : dom.children()) {
    if (child->is_text()) {
      for (std::string& term : text::Analyze(child->text())) {
        node->terms.push_back(std::move(term));
      }
      ++ordinal;
    } else {
      node->children.push_back(
          BuildOracle(*child, node->id.Child(ordinal++), pool, by_id));
    }
  }
  node->child_count = ordinal;
  return node;
}

bool Holds(const OracleNode& node, const std::string& term) {
  return std::find(node.terms.begin(), node.terms.end(), term) !=
         node.terms.end();
}

struct Occurrence {
  uint32_t atom = 0;
  uint32_t depth = 0;
  std::vector<uint32_t> path;  // child counts from N down to the parent
};

// Pre-order walk below N; `path` holds the child counts of N .. parent.
void CollectOccurrences(const Query& query, const OracleNode& node,
                        std::vector<uint32_t>* path,
                        std::vector<Occurrence>* out) {
  for (uint32_t atom = 0; atom < query.size(); ++atom) {
    if (Holds(node, query.atoms()[atom].terms[0])) {
      out->push_back({atom, static_cast<uint32_t>(node.id.components().size()),
                      *path});
    }
  }
  path->push_back(node.child_count);
  for (const OracleNode* child : node.children) {
    CollectOccurrences(query, *child, path, out);
  }
  path->pop_back();
}

struct OracleRank {
  uint64_t mask = 0;
  double rank = 0.0;
  bool divided_twice = false;  // some terminal lies two levels below N
};

OracleRank RankOf(const Query& query, const OracleNode& node) {
  std::vector<uint32_t> path;
  std::vector<Occurrence> occurrences;
  CollectOccurrences(query, node, &path, &occurrences);
  OracleRank out;
  uint32_t min_depth[64];
  std::fill(std::begin(min_depth), std::end(min_depth),
            std::numeric_limits<uint32_t>::max());
  for (const Occurrence& occurrence : occurrences) {
    out.mask |= 1ull << occurrence.atom;
    min_depth[occurrence.atom] =
        std::min(min_depth[occurrence.atom], occurrence.depth);
  }
  const double potential = static_cast<double>(std::popcount(out.mask));
  for (const Occurrence& occurrence : occurrences) {
    if (occurrence.depth != min_depth[occurrence.atom]) continue;
    double flow = potential;
    for (uint32_t children : occurrence.path) {
      flow /= static_cast<double>(children);
    }
    out.rank += flow;
    out.divided_twice = out.divided_twice || occurrence.path.size() >= 2;
  }
  return out;
}

struct Oracle {
  std::vector<std::unique_ptr<OracleNode>> pool;
  std::map<DeweyId, const OracleNode*> by_id;
};

void BuildFromXml(const std::string& xmltext, Oracle* oracle) {
  Result<xml::DomDocument> dom = xml::ParseDom(xmltext);
  ASSERT_TRUE(dom.ok()) << dom.status().ToString();
  BuildOracle(*dom->root(), DeweyId({0, 0}), &oracle->pool, &oracle->by_id);
}

TEST(RankOracle, EngineRanksMatchTheDomDefinition) {
  const std::vector<std::string> queries = {
      "k0",    "k3",       "k0 k1",    "k2 k5",       "k4 k7 k1",
      "t1 k2", "k0 k3 k5", "k2 k4 k6", "t3 k0 k7 k5", "k1 k2 k3 k6",
  };
  uint64_t compared = 0;
  uint64_t fractional = 0;
  uint64_t deep = 0;
  for (uint32_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    data::RandomTreeOptions options;
    options.seed = seed;
    options.target_nodes = 120 + (seed % 4) * 60;
    options.max_depth = 4 + seed % 4;
    const std::string xmltext = data::GenerateRandomTree(options);
    XmlIndex index = BuildIndexFromXml(xmltext);
    Oracle oracle;
    BuildFromXml(xmltext, &oracle);
    GksSearcher searcher(&index);
    for (const std::string& text : queries) {
      Query query = ParseQueryOrDie(text);
      for (uint32_t s = 1; s <= query.size(); ++s) {
        for (PlanMode plan : {PlanMode::kMerge, PlanMode::kProbe}) {
          SCOPED_TRACE(text + " s=" + std::to_string(s) + " plan=" +
                       PlanModeName(plan));
          SearchOptions search;
          search.s = s;
          search.plan = plan;
          search.discover_di = false;
          search.suggest_refinements = false;
          Result<SearchResponse> response = searcher.Search(query, search);
          ASSERT_TRUE(response.ok()) << response.status().ToString();
          for (const GksNode& node : response->nodes) {
            SCOPED_TRACE(node.id.ToString());
            auto it = oracle.by_id.find(node.id);
            ASSERT_NE(it, oracle.by_id.end());
            const OracleRank want = RankOf(query, *it->second);
            EXPECT_EQ(node.keyword_mask, want.mask);
            EXPECT_EQ(node.rank, want.rank);
            EXPECT_EQ(std::bit_cast<uint64_t>(node.rank),
                      std::bit_cast<uint64_t>(want.rank));
            ++compared;
            if (want.rank != static_cast<double>(static_cast<int>(want.rank))) {
              ++fractional;
            }
            if (want.divided_twice) ++deep;
          }
        }
      }
    }
  }
  // The comparison must have bitten: many ranks, most of them fractional,
  // and terminals several levels below their response node.
  EXPECT_GT(compared, 1000u);
  EXPECT_GT(fractional, compared / 2);
  EXPECT_GT(deep, compared / 10);
}

TEST(RankOracle, ReproducesExample5) {
  // Q3 = {a, b, c, d}, s = 2 on Figure 1: x2 = 3, x3 = 2.5, x4 = 2.
  const std::string xmltext = data::Figure1Xml();
  XmlIndex index = BuildIndexFromXml(xmltext);
  Oracle oracle;
  BuildFromXml(xmltext, &oracle);
  Query query = ParseQueryOrDie("ka kb kc kd");
  SearchOptions search;
  search.s = 2;
  Result<SearchResponse> response = GksSearcher(&index).Search(query, search);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const std::vector<std::pair<std::string, double>> want = {
      {"d0.0.0.4", 3.0}, {"d0.0.1", 2.5}, {"d0.0.2", 2.0}};
  ASSERT_EQ(response->nodes.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    const GksNode& node = response->nodes[i];
    EXPECT_EQ(node.id.ToString(), want[i].first);
    const OracleRank oracle_rank = RankOf(query, *oracle.by_id.at(node.id));
    EXPECT_EQ(oracle_rank.rank, want[i].second);
    EXPECT_EQ(node.rank, want[i].second);
  }
}

}  // namespace
}  // namespace gks
