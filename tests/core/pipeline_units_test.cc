// Focused unit tests for the individual pipeline stages: merged list
// construction (incl. phrase intersection), window scanning edge cases,
// pruning shapes, DI options, and the searcher's option handling.

#include <bit>
#include <set>
#include <string>
#include <string_view>

#include "gtest/gtest.h"
#include "core/di.h"
#include "core/merged_list.h"
#include "core/searcher.h"
#include "core/window_scan.h"
#include "data/figures.h"
#include "tests/test_util.h"

namespace gks {
namespace {

using gks::testing::BuildIndexFromXml;
using gks::testing::ParseQueryOrDie;
using gks::testing::SearchOrDie;

class MergedListUnits : public ::testing::Test {
 protected:
  void SetUp() override {
    index_ = BuildIndexFromXml(
        "<r>"
        "<a>red fox</a>"
        "<a>red wolf</a>"
        "<b>fox</b>"
        "</r>");
  }
  XmlIndex index_;
};

TEST_F(MergedListUnits, SingleTermAtoms) {
  MergedList sl = MergedList::Build(index_, ParseQueryOrDie("red fox"));
  // red: 2 postings; fox: 2 postings -> 4 entries, document order.
  ASSERT_EQ(sl.size(), 4u);
  EXPECT_EQ(sl.atom_list_sizes(), (std::vector<size_t>{2, 2}));
  EXPECT_EQ(sl.present_atoms(), 0b11ull);
  for (size_t i = 1; i < sl.size(); ++i) {
    EXPECT_LE(sl.IdAt(i - 1).Compare(sl.IdAt(i)), 0);
  }
}

TEST_F(MergedListUnits, PhraseIntersectsTokens) {
  // "red fox" as a phrase: both tokens at the same node -> only the first
  // <a> qualifies.
  MergedList sl = MergedList::Build(index_, ParseQueryOrDie("\"red fox\""));
  ASSERT_EQ(sl.size(), 1u);
  EXPECT_EQ(sl.IdAt(0).ToDeweyId().ToString(), "d0.0.0");
}

TEST_F(MergedListUnits, PhraseWithAbsentTokenIsEmpty) {
  MergedList sl =
      MergedList::Build(index_, ParseQueryOrDie("\"red zebra\""));
  EXPECT_TRUE(sl.empty());
  EXPECT_EQ(sl.present_atoms(), 0u);
}

TEST_F(MergedListUnits, MissingAtomLeavesGapInPresentMask) {
  MergedList sl =
      MergedList::Build(index_, ParseQueryOrDie("red zebra fox"));
  EXPECT_EQ(sl.present_atoms(), 0b101ull);
  EXPECT_EQ(sl.atom_list_sizes()[1], 0u);
}

TEST_F(MergedListUnits, SubtreeMaskAndRange) {
  MergedList sl = MergedList::Build(index_, ParseQueryOrDie("red fox wolf"));
  DeweyId root = *DeweyId::Parse("0.0");
  EXPECT_EQ(sl.SubtreeMask(DeweySpan::Of(root)), 0b111ull);
  DeweyId first_a = *DeweyId::Parse("0.0.0");
  EXPECT_EQ(sl.SubtreeMask(DeweySpan::Of(first_a)), 0b011ull);  // red+fox
  auto [begin, end] = sl.SubtreeRange(DeweySpan::Of(first_a));
  EXPECT_EQ(end - begin, 2u);
}

TEST(WindowScanUnits, SGreaterThanDistinctAtomsYieldsNothing) {
  XmlIndex index = BuildIndexFromXml("<r><a>x</a><a>y</a></r>");
  MergedList sl = MergedList::Build(index, ParseQueryOrDie("x y"));
  EXPECT_TRUE(ComputeLcpCandidates(sl, 3).empty());
  EXPECT_TRUE(ComputeLcpCandidates(sl, 0).empty());
}

TEST(WindowScanUnits, SEqualsOneCandidatesAreOccurrences) {
  XmlIndex index = BuildIndexFromXml("<r><a>x</a><b>x y</b></r>");
  MergedList sl = MergedList::Build(index, ParseQueryOrDie("x y"));
  std::vector<LcpCandidate> candidates = ComputeLcpCandidates(sl, 1);
  // Occurrence nodes: <a> (x), <b> (x and y — one candidate, two windows).
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].node.ToString(), "d0.0.0");
  EXPECT_EQ(candidates[0].window_count, 1u);
  EXPECT_EQ(candidates[1].node.ToString(), "d0.0.1");
  EXPECT_EQ(candidates[1].window_count, 2u);
}

TEST(WindowScanUnits, DuplicateKeywordsExtendTheWindow) {
  // x x x y: the first window covering {x, y} spans all four entries.
  XmlIndex index =
      BuildIndexFromXml("<r><a>x</a><a>x</a><a>x</a><a>y</a></r>");
  MergedList sl = MergedList::Build(index, ParseQueryOrDie("x y"));
  std::vector<LcpCandidate> candidates = ComputeLcpCandidates(sl, 2);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].node.ToString(), "d0.0");  // the shared root
  // One window per left end that can still reach both keywords: l=0..2
  // (the window starting at y itself never sees a second keyword).
  EXPECT_EQ(candidates[0].window_count, 3u);
}

TEST(WindowScanUnits, PruneKeepsAncestorWithExtraKeyword) {
  // Ancestor r covers {x, y, z}; its only candidate descendant covers
  // {x, y}: r contributes z and must survive pruning.
  XmlIndex index = BuildIndexFromXml(
      "<r><inner><a>x</a><a>y</a></inner><b>z</b></r>");
  MergedList sl = MergedList::Build(index, ParseQueryOrDie("x y z"));
  std::vector<LcpCandidate> pruned =
      PruneCoveredAncestors(sl, ComputeLcpCandidates(sl, 2));
  bool has_root = false;
  for (const LcpCandidate& candidate : pruned) {
    if (candidate.node.ToString() == "d0.0") has_root = true;
  }
  EXPECT_TRUE(has_root);
}

TEST(WindowScanUnits, PruneIsNoOpWithoutNesting) {
  XmlIndex index = BuildIndexFromXml("<r><a>x</a><b>y</b></r>");
  MergedList sl = MergedList::Build(index, ParseQueryOrDie("x y"));
  std::vector<LcpCandidate> raw = ComputeLcpCandidates(sl, 1);
  std::vector<LcpCandidate> pruned = PruneCoveredAncestors(sl, raw);
  EXPECT_EQ(pruned.size(), raw.size());
}

TEST(DiUnits, TopMLimitsOutput) {
  XmlIndex index = BuildIndexFromXml(data::Figure2aXml());
  SearchOptions options;
  options.s = 1;
  options.di_top_m = 1;
  SearchResponse response =
      SearchOrDie(index, "karen mike john julie serena", options);
  EXPECT_EQ(response.insights.size(), 1u);
}

TEST(DiUnits, ValuedRowValveCapsScan) {
  // The valve counts valued rows scanned, even those DI drops. The first
  // course's Name repeats the query and `fillers` Student rows follow, so
  // its last Student, Serena, is valued row fillers + 2: DI reports her
  // only while that row is inside the valve.
  auto reports_serena = [](size_t fillers) {
    std::string xml = "<Dept><Course><Name>Karen</Name><Students>";
    for (size_t i = 0; i < fillers; ++i) xml += "<Student>Filler</Student>";
    xml +=
        "<Student>Serena</Student></Students></Course><Course><Name>AI"
        "</Name><Students><Student>Peter</Student></Students></Course>"
        "</Dept>";
    XmlIndex index = BuildIndexFromXml(xml);
    Query query = ParseQueryOrDie("karen");
    SearchOptions search;
    search.s = 1;
    Result<SearchResponse> response = GksSearcher(&index).Search(query, search);
    if (!response.ok()) {
      ADD_FAILURE() << response.status().ToString();
      return false;
    }
    EXPECT_EQ(response->nodes.size(), 1u);
    bool seen = false;
    for (const DiKeyword& di : DiscoverDi(index, response->nodes, query)) {
      seen = seen || di.value == "Serena";
    }
    return seen;
  };
  EXPECT_TRUE(reports_serena(3));
  EXPECT_TRUE(reports_serena(kMaxValuedRowsPerNode - 2));
  EXPECT_FALSE(reports_serena(kMaxValuedRowsPerNode - 1));
}

// The values DI reports for `query_text` at s=1, every keyword kept.
std::set<std::string> DiValues(const XmlIndex& index,
                               std::string_view query_text) {
  SearchOptions options;
  options.s = 1;
  options.di_top_m = 1000;
  std::set<std::string> values;
  for (const DiKeyword& di : SearchOrDie(index, query_text, options).insights) {
    values.insert(di.value);
  }
  return values;
}

TEST(DiUnits, OnePhraseTokenDropsAValue) {
  // Every token of a phrase is a query term: a value repeating only
  // "mining" or only "data" is left out, like the phrase's own node.
  XmlIndex index = BuildIndexFromXml(
      "<Dept><Course><Name>Data Mining</Name><Topic>Mining</Topic>"
      "<Topic>Data</Topic><Room>Hall</Room></Course>"
      "<Course><Name>AI</Name><Topic>Logic</Topic><Room>Lab</Room></Course>"
      "</Dept>");
  EXPECT_EQ(DiValues(index, "\"Data Mining\""),
            (std::set<std::string>{"Hall"}));
}

TEST(DiUnits, StopWordOnlyValueRepeatsNoQueryTerm) {
  // "The" analyzes to no term at all, so no query can repeat it.
  XmlIndex index = BuildIndexFromXml(
      "<Dept><Course><Name>Karen</Name><Note>The</Note><Room>Hall</Room>"
      "<Room>Lab</Room></Course><Course><Name>AI</Name><Room>Web</Room>"
      "<Room>Lab</Room></Course></Dept>");
  EXPECT_EQ(DiValues(index, "karen"),
            (std::set<std::string>{"Hall", "Lab", "The"}));
}

TEST(DiUnits, QueryTermNoValueHolds) {
  // "student" is only a tag name: no value holds it, so it drops nothing,
  // alone or beside a term that does drop a value.
  XmlIndex index = BuildIndexFromXml(
      "<Dept><Course><Name>Karen</Name><Student>Peter</Student>"
      "<Student>Mike</Student></Course><Course><Name>AI</Name>"
      "<Student>Serena</Student><Student>John</Student></Course></Dept>");
  EXPECT_EQ(DiValues(index, "student"),
            (std::set<std::string>{"AI", "John", "Karen", "Mike", "Peter",
                                   "Serena"}));
  EXPECT_EQ(DiValues(index, "karen student"),
            (std::set<std::string>{"AI", "John", "Mike", "Peter", "Serena"}));
}

TEST(SearcherUnits, MaxResultsTruncatesAfterRanking) {
  XmlIndex index = BuildIndexFromXml(data::Figure2aXml());
  SearchOptions all;
  all.s = 1;
  SearchResponse full = SearchOrDie(index, "karen mike john", all);
  ASSERT_GT(full.nodes.size(), 1u);

  SearchOptions top1 = all;
  top1.max_results = 1;
  SearchResponse truncated = SearchOrDie(index, "karen mike john", top1);
  ASSERT_EQ(truncated.nodes.size(), 1u);
  EXPECT_EQ(truncated.nodes[0].id, full.nodes[0].id);
}

TEST(SearcherUnits, DisablingDiAndRefinements) {
  XmlIndex index = BuildIndexFromXml(data::Figure2aXml());
  SearchOptions options;
  options.s = 1;
  options.discover_di = false;
  options.suggest_refinements = false;
  SearchResponse response = SearchOrDie(index, "karen mike", options);
  EXPECT_TRUE(response.insights.empty());
  EXPECT_TRUE(response.refinements.empty());
  EXPECT_FALSE(response.nodes.empty());
}

TEST(SearcherUnits, InvalidQueryPropagates) {
  XmlIndex index = BuildIndexFromXml("<r><a>x</a></r>");
  GksSearcher searcher(&index);
  Result<SearchResponse> response = searcher.Search("\"unterminated");
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST(SearcherUnits, SIsClampedToQuerySize) {
  XmlIndex index = BuildIndexFromXml("<r><a>x</a><a>y</a></r>");
  SearchOptions options;
  options.s = 99;
  SearchResponse response = SearchOrDie(index, "x y", options);
  EXPECT_EQ(response.effective_s, 2u);
}

}  // namespace
}  // namespace gks
