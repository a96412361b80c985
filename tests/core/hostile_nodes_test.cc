// A node section the builder never writes: one element level has no row
// (its children's parent element is missing) and some postings name ids
// that are no rows at all. Such a file loads, and every stage that walks
// ancestors must keep the per-prefix semantics: a missing level divides
// the rank by 1 and reads "?" in a DI path, the entity search goes
// through shorter prefixes, and rank bounds tally siblings by exact
// parent prefix. The reference here walks prefixes with Find, the way
// the definitions read.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "core/di.h"
#include "core/lce.h"
#include "core/merged_list.h"
#include "core/searcher.h"
#include "core/window_scan.h"
#include "index/block_max.h"
#include "index/serialization.h"
#include "tests/test_util.h"
#include "text/analyzer.h"

namespace gks {
namespace {

using gks::testing::ParseQueryOrDie;

// d0.0 dblp
//   d0.0.0 article (entity)
//     d0.0.0.0 title "deep graphs"
//     d0.0.0.1            <- no row: the authors' parent element
//       d0.0.0.1.0 author "alice"
//       d0.0.0.1.1 author "bob"
//     d0.0.0.2 year "2001"
//   d0.0.1 article (entity)
//     d0.0.1.0 title "graph search"
//     d0.0.1.1 year "2001"
//   d0.0.2 list (claims 1000 children)
//     d0.0.2.500 item "many"
// Postings on ids without a row: "ghost" at d0.0.0.1 and d0.0.1.7,
// "search" at d0.0.1.7, and "many" at d0.0.2.0 .. d0.0.2.127.
XmlIndex HostileIndex() {
  XmlIndex index;
  index.catalog.AddDocument("hostile.xml");
  NodeInfoTable& nodes = index.nodes;
  auto put = [&](std::vector<uint32_t> components, const char* tag,
                 uint8_t flags, uint32_t child_count, const char* value) {
    NodeInfo info;
    info.flags = flags;
    info.child_count = child_count;
    info.tag_id = nodes.InternTag(tag);
    if (value != nullptr) info.value_id = nodes.InternValue(value);
    nodes.Put(DeweyId(std::move(components)), info);
  };
  const uint8_t attribute = kFlagAttribute;
  const uint8_t author = kFlagAttribute | kFlagRepeating;
  put({0, 0, 1, 1}, "year", attribute, 1, "2001");
  put({0, 0, 0, 1, 1}, "author", author, 1, "bob");
  put({0, 0}, "dblp", kFlagConnecting, 3, nullptr);
  put({0, 0, 0}, "article", kFlagEntity, 3, nullptr);
  put({0, 0, 0, 0}, "title", attribute, 1, "deep graphs");
  put({0, 0, 0, 1, 0}, "author", author, 1, "alice");
  put({0, 0, 0, 2}, "year", attribute, 1, "2001");
  put({0, 0, 1}, "article", kFlagEntity | kFlagRepeating, 2, nullptr);
  put({0, 0, 1, 0}, "title", attribute, 1, "graph search");
  put({0, 0, 2}, "list", kFlagConnecting, 1000, nullptr);
  put({0, 0, 2, 500}, "item", attribute, 1, "many");
  nodes.Finalize();

  auto post = [&](const char* word, std::vector<uint32_t> components) {
    for (const std::string& term : text::Analyze(word)) {
      index.inverted.Add(term, DeweyId(components));
    }
  };
  post("deep graphs", {0, 0, 0, 0});
  post("alice", {0, 0, 0, 1, 0});
  post("bob", {0, 0, 0, 1, 1});
  post("2001", {0, 0, 0, 2});
  post("graph search", {0, 0, 1, 0});
  post("2001", {0, 0, 1, 1});
  post("ghost", {0, 0, 0, 1});
  post("ghost search", {0, 0, 1, 7});
  // A full first block of ids without rows under d0.0.2, then its one row.
  for (uint32_t i = 0; i < 128; ++i) post("many", {0, 0, 2, i});
  post("many", {0, 0, 2, 500});
  index.inverted.Finalize();
  return index;
}

XmlIndex SavedAndLoaded() {
  const std::string path = ::testing::TempDir() + "gks_hostile_nodes.gksidx";
  EXPECT_TRUE(SaveIndex(HostileIndex(), path).ok());
  Result<XmlIndex> loaded = LoadIndex(path);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return std::move(loaded).value();
}

// ---- Per-prefix reference ----

bool PrefixEntity(const XmlIndex& index, DeweySpan id,
                  std::vector<uint32_t>* out) {
  for (uint32_t len = id.size; len >= 1; --len) {
    const NodeInfo* info = index.nodes.Find(DeweySpan{id.data, len});
    if (info != nullptr && info->is_entity()) {
      out->assign(id.data, id.data + len);
      return true;
    }
  }
  return false;
}

double PrefixRank(const XmlIndex& index, const MergedList& sl, DeweySpan node,
                  uint64_t mask) {
  auto [begin, end] = sl.SubtreeRange(node);
  if (begin >= end || mask == 0) return 0.0;
  const double potential = static_cast<double>(std::popcount(mask));
  std::map<uint32_t, uint32_t> min_depth;
  for (size_t i = begin; i < end; ++i) {
    auto [it, fresh] = min_depth.try_emplace(sl.AtomAt(i), sl.IdAt(i).size);
    if (!fresh) it->second = std::min(it->second, sl.IdAt(i).size);
  }
  double rank = 0.0;
  for (size_t i = begin; i < end; ++i) {
    const DeweySpan id = sl.IdAt(i);
    if ((mask >> sl.AtomAt(i) & 1) == 0) continue;
    if (id.size != min_depth[sl.AtomAt(i)]) continue;
    double flow = potential;
    for (uint32_t len = node.size; len < id.size; ++len) {
      const NodeInfo* info = index.nodes.Find(DeweySpan{id.data, len});
      flow /= info != nullptr && info->child_count > 0 ? info->child_count : 1;
    }
    rank += flow;
  }
  return rank;
}

std::vector<GksNode> PrefixNodes(const XmlIndex& index, const MergedList& sl,
                                 const std::vector<LcpCandidate>& lcps) {
  std::vector<std::vector<uint32_t>> witnessed;
  for (size_t i = 0; i < sl.size(); ++i) {
    std::vector<uint32_t> entity;
    if (PrefixEntity(index, sl.IdAt(i), &entity)) witnessed.push_back(entity);
  }
  std::map<std::vector<uint32_t>, GksNode> nodes;
  size_t cursor = 0;  // the candidates ascend
  for (const LcpCandidate& lcp : lcps) {
    DeweySpan lifted = DeweySpan::Of(lcp.node);
    const NodeInfo* info = index.nodes.Find(lifted);
    if (info != nullptr && info->is_attribute() && lifted.size > 1) {
      --lifted.size;
    }
    DeweySpan got_lifted;
    LiftedEntityRow(index, DeweySpan::Of(lcp.node), &got_lifted, &cursor);
    EXPECT_EQ(got_lifted, lifted);
    std::vector<uint32_t> entity;
    const bool lce =
        PrefixEntity(index, lifted, &entity) &&
        std::find(witnessed.begin(), witnessed.end(), entity) !=
            witnessed.end();
    if (!lce) entity.assign(lifted.data, lifted.data + lifted.size);
    GksNode& node = nodes[entity];
    node.is_lce = node.is_lce || lce;
    node.window_count += lcp.window_count;
  }
  std::vector<GksNode> out;
  for (auto& [components, node] : nodes) {
    node.id = DeweyId(components);
    const DeweySpan span = DeweySpan::Of(node.id);
    node.keyword_mask = sl.SubtreeMask(span);
    node.keyword_count = static_cast<uint32_t>(std::popcount(node.keyword_mask));
    node.rank = PrefixRank(index, sl, span, node.keyword_mask);
    out.push_back(node);
  }
  return out;
}

std::vector<BlockRankBound> PrefixBounds(const PackedIds& ids,
                                         const NodeInfoTable& nodes) {
  auto parent_key = [](DeweySpan id) {
    std::string key((id.size - 1) * sizeof(uint32_t), '\0');
    std::memcpy(key.data(), id.data, key.size());
    return key;
  };
  std::map<std::string, uint32_t> siblings;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids.At(i).size > 1) ++siblings[parent_key(ids.At(i))];
  }
  std::vector<BlockRankBound> bounds((ids.size() + 127) / 128);
  for (size_t i = 0; i < ids.size(); ++i) {
    const DeweySpan id = ids.At(i);
    BlockRankBound& bound = bounds[i / 128];
    if (i % 128 == 0) {
      bound.weight_scaled = 1;
      bound.min_depth = bound.max_depth = id.size;
    }
    bound.min_depth = std::min(bound.min_depth, id.size);
    bound.max_depth = std::max(bound.max_depth, id.size);
    uint32_t scaled = kRankWeightOne;
    const NodeInfo* info = id.size > 1 ? nodes.Find(id) : nullptr;
    const NodeInfo* parent =
        info != nullptr ? nodes.Find(DeweySpan{id.data, id.size - 1})
                        : nullptr;
    if (info != nullptr && info->is_attribute() && !info->is_entity() &&
        parent != nullptr && parent->child_count > 1) {
      const uint64_t k = siblings[parent_key(id)];
      scaled = static_cast<uint32_t>(std::min<uint64_t>(
          (k * kRankWeightOne + parent->child_count - 1) / parent->child_count,
          kRankWeightOne));
    }
    bound.weight_scaled = std::max(bound.weight_scaled, scaled);
  }
  return bounds;
}

void ExpectSameNodes(const std::vector<GksNode>& want,
                     const std::vector<GksNode>& got) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(want[i].id.ToString());
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].is_lce, want[i].is_lce);
    EXPECT_EQ(got[i].keyword_mask, want[i].keyword_mask);
    EXPECT_EQ(got[i].keyword_count, want[i].keyword_count);
    EXPECT_EQ(got[i].window_count, want[i].window_count);
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].rank),
              std::bit_cast<uint64_t>(want[i].rank))
        << got[i].rank << " vs " << want[i].rank;
  }
}

TEST(HostileNodeSection, LoadsAndBoundsTallySiblingsByParentPrefix) {
  XmlIndex index = SavedAndLoaded();
  EXPECT_EQ(index.nodes.size(), 11u);
  EXPECT_EQ(index.nodes.Find(DeweyId({0, 0, 0, 1})), nullptr);
  size_t lists = 0;
  index.inverted.ForEach([&](const std::string& term, const PostingList& list) {
    SCOPED_TRACE(term);
    const std::vector<BlockRankBound> want =
        PrefixBounds(list.ids(), index.nodes);
    ASSERT_EQ(list.rank_bounds().size(), want.size());
    for (size_t b = 0; b < want.size(); ++b) {
      EXPECT_EQ(list.rank_bounds()[b].weight_scaled, want[b].weight_scaled);
      EXPECT_EQ(list.rank_bounds()[b].min_depth, want[b].min_depth);
      EXPECT_EQ(list.rank_bounds()[b].max_depth, want[b].max_depth);
    }
    ++lists;
  });
  EXPECT_EQ(lists, 8u);
  auto weight = [&](const char* word, size_t block) {
    return index.inverted.Find(text::Analyze(word)[0])
        ->rank_bounds()[block]
        .weight_scaled;
  };
  // "2001": one year under each article: 1/3 and 1/2, ceil-rounded.
  EXPECT_EQ(weight("2001", 0), (kRankWeightOne + 1) / 2);
  // "alice": the author's exact parent has no row, so no sibling bound.
  EXPECT_EQ(weight("alice", 0), kRankWeightOne);
  // "many": the item's 128 siblings without rows count toward its share
  // of d0.0.2's flow: 129/1000, ceil-rounded.
  EXPECT_EQ(weight("many", 0), kRankWeightOne);
  EXPECT_EQ(weight("many", 1), (129 * kRankWeightOne + 999) / 1000);
}

TEST(HostileNodeSection, LceNodesAndRanksFollowThePerPrefixWalk) {
  XmlIndex index = SavedAndLoaded();
  const std::vector<std::string> queries = {
      "alice",           "ghost",         "alice ghost",
      "bob 2001",        "alice bob",     "ghost search",
      "deep alice 2001", "graph ghost search", "many ghost"};
  size_t compared = 0;
  for (const std::string& text : queries) {
    Query query = ParseQueryOrDie(text);
    MergedList sl = MergedList::Build(index, query);
    for (uint32_t s = 1; s <= query.size(); ++s) {
      SCOPED_TRACE(text + " s=" + std::to_string(s));
      const std::vector<LcpCandidate> pruned =
          PruneCoveredAncestors(sl, ComputeLcpCandidates(sl, s));
      const std::vector<GksNode> want = PrefixNodes(index, sl, pruned);
      ExpectSameNodes(want, ComputeGksNodesPruned(index, sl, pruned));
      compared += want.size();
      for (const LcpCandidate& candidate : pruned) {
        std::vector<uint32_t> want_entity;
        const DeweySpan span = DeweySpan::Of(candidate.node);
        const uint32_t got_row =
            index.nodes.EntityRow(index.nodes.SelfOrAncestorRow(span));
        ASSERT_EQ(got_row != NodeInfoTable::kNoRow,
                  PrefixEntity(index, span, &want_entity));
        if (got_row != NodeInfoTable::kNoRow) {
          EXPECT_EQ(index.nodes.IdAt(got_row).ToDeweyId().components(),
                    want_entity);
        }
      }
    }
  }
  EXPECT_GT(compared, 10u);

  // The missing level divides by 1: alice's flow from article d0.0.0
  // (three children) reaches her whole through d0.0.0.1.
  SearchResponse alice = gks::testing::SearchOrDie(index, "alice");
  ASSERT_EQ(alice.nodes.size(), 1u);
  EXPECT_EQ(alice.nodes[0].id.ToString(), "d0.0.0");
  EXPECT_TRUE(alice.nodes[0].is_lce);
  EXPECT_EQ(alice.nodes[0].rank, 1.0 / 3.0);

  // Postings without rows map to their deepest entity ancestors.
  SearchResponse ghost = gks::testing::SearchOrDie(index, "ghost");
  ASSERT_EQ(ghost.nodes.size(), 2u);
  EXPECT_EQ(gks::testing::FindNode(ghost, "d0.0.0")->rank, 1.0 / 3.0);
  EXPECT_EQ(gks::testing::FindNode(ghost, "d0.0.1")->rank, 0.5);
}

TEST(HostileNodeSection, DiPathsReadQuestionMarksForMissingLevels) {
  XmlIndex index = SavedAndLoaded();
  SearchOptions options;
  options.di_top_m = 10;
  SearchResponse response = gks::testing::SearchOrDie(index, "alice", options);
  ASSERT_EQ(response.insights.size(), 3u);
  // Equal weights (1/3 each) sort by value; "alice" repeats the query.
  EXPECT_EQ(response.insights[0].value, "2001");
  EXPECT_EQ(response.insights[0].path,
            (std::vector<std::string>{"article", "year"}));
  EXPECT_EQ(response.insights[1].value, "bob");
  EXPECT_EQ(response.insights[1].path,
            (std::vector<std::string>{"article", "?", "author"}));
  EXPECT_EQ(response.insights[2].value, "deep graphs");
  EXPECT_EQ(response.insights[2].path,
            (std::vector<std::string>{"article", "title"}));

  const std::vector<std::vector<DiContribution>> contributions =
      ComputeDiContributions(index, response.nodes, ParseQueryOrDie("alice"),
                             DiOptions{});
  ASSERT_EQ(contributions.size(), 1u);
  ASSERT_EQ(contributions[0].size(), 3u);
  EXPECT_EQ(contributions[0][1].value, "bob");
  EXPECT_EQ(contributions[0][1].path,
            (std::vector<std::string>{"article", "?", "author"}));
}

}  // namespace
}  // namespace gks
