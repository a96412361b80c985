// SegmentSearcher exactness (docs/INDEXING.md § Search over segments):
// searching a segment set must be node-for-node identical to searching
// one offline index built over the same live documents — ranks, DI,
// refinements and top-k included — with tombstones masked exactly.

#include "core/segment_search.h"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "index/rt_segment.h"
#include "tests/test_util.h"

namespace gks {
namespace {

/// The corpus: enough keyword overlap that queries span documents and
/// enough attributes that DI discovery has something to surface.
const std::vector<std::pair<std::string, std::string>>& Corpus() {
  static const auto* docs = new std::vector<std::pair<std::string, std::string>>{
      {"a.xml",
       "<article year=\"2001\"><title>xml keyword search</title>"
       "<author>weinstein</author></article>"},
      {"b.xml",
       "<article year=\"2001\"><title>keyword query semantics</title>"
       "<author>jones</author></article>"},
      {"c.xml",
       "<article year=\"2004\"><title>database keyword ranking</title>"
       "<author>weinstein</author></article>"},
      {"d.xml",
       "<article year=\"2004\"><title>xml database systems</title>"
       "<author>smith</author></article>"},
      {"e.xml",
       "<article year=\"2008\"><title>search ranking potential flow</title>"
       "<author>jones</author></article>"},
  };
  return *docs;
}

/// Builds a snapshot whose segments partition Corpus() at the given
/// split points (global doc ids stay identical to the combined index).
std::shared_ptr<const SegmentSetSnapshot> MakeSnapshot(
    const std::vector<size_t>& batch_sizes,
    std::vector<uint32_t> deleted = {}, uint64_t epoch = 1) {
  auto snapshot = std::make_shared<SegmentSetSnapshot>();
  uint32_t next_id = 0;
  size_t cursor = 0;
  for (size_t count : batch_sizes) {
    std::vector<RtDocument> docs;
    for (size_t i = 0; i < count; ++i, ++cursor) {
      RtDocument doc;
      doc.doc_id = next_id + static_cast<uint32_t>(i);
      doc.name = Corpus()[cursor].first;
      doc.xml = Corpus()[cursor].second;
      docs.push_back(std::move(doc));
    }
    Result<XmlIndex> segment = BuildSegmentIndex(docs);
    EXPECT_TRUE(segment.ok()) << segment.status().ToString();
    SegmentView view;
    view.index = std::make_shared<const XmlIndex>(std::move(segment).value());
    view.doc_base = next_id;
    view.doc_count = static_cast<uint32_t>(count);
    view.label = "seg-" + std::to_string(next_id);
    snapshot->segments.push_back(std::move(view));
    next_id += static_cast<uint32_t>(count);
  }
  snapshot->deleted =
      std::make_shared<const std::vector<uint32_t>>(std::move(deleted));
  snapshot->epoch = epoch;
  return snapshot;
}

/// Asserts the parts of two responses that must be exactly equal across
/// the combined-index and segment-set execution paths.
void ExpectEquivalent(const SearchResponse& combined,
                      const SearchResponse& segmented) {
  EXPECT_EQ(combined.effective_s, segmented.effective_s);
  ASSERT_EQ(combined.nodes.size(), segmented.nodes.size());
  for (size_t i = 0; i < combined.nodes.size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    EXPECT_EQ(combined.nodes[i].id.ToString(),
              segmented.nodes[i].id.ToString());
    EXPECT_DOUBLE_EQ(combined.nodes[i].rank, segmented.nodes[i].rank);
    EXPECT_EQ(combined.nodes[i].keyword_count,
              segmented.nodes[i].keyword_count);
    EXPECT_EQ(combined.nodes[i].is_lce, segmented.nodes[i].is_lce);
  }
  ASSERT_EQ(combined.insights.size(), segmented.insights.size());
  for (size_t i = 0; i < combined.insights.size(); ++i) {
    SCOPED_TRACE("insight " + std::to_string(i));
    EXPECT_EQ(combined.insights[i].value, segmented.insights[i].value);
    EXPECT_EQ(combined.insights[i].path, segmented.insights[i].path);
    EXPECT_DOUBLE_EQ(combined.insights[i].weight, segmented.insights[i].weight);
    EXPECT_EQ(combined.insights[i].support, segmented.insights[i].support);
  }
  ASSERT_EQ(combined.refinements.size(), segmented.refinements.size());
  for (size_t i = 0; i < combined.refinements.size(); ++i) {
    SCOPED_TRACE("refinement " + std::to_string(i));
    EXPECT_EQ(combined.refinements[i].keywords,
              segmented.refinements[i].keywords);
    EXPECT_DOUBLE_EQ(combined.refinements[i].score,
                     segmented.refinements[i].score);
  }
}

SearchResponse SearchSnapshot(
    std::shared_ptr<const SegmentSetSnapshot> snapshot, std::string_view text,
    const SearchOptions& options = {}) {
  SegmentSearcher searcher(std::move(snapshot));
  Result<SearchResponse> response = searcher.Search(text, options);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return std::move(response).value();
}

TEST(SegmentSearchTest, SingleSegmentMatchesThePlainSearcher) {
  XmlIndex combined = gks::testing::BuildIndexFromDocs(Corpus());
  for (const char* query : {"keyword", "xml database", "\"keyword search\"",
                            "weinstein ranking"}) {
    SCOPED_TRACE(query);
    ExpectEquivalent(gks::testing::SearchOrDie(combined, query),
                     SearchSnapshot(MakeSnapshot({5}), query));
  }
}

TEST(SegmentSearchTest, PartitionedSegmentsMatchTheCombinedIndex) {
  XmlIndex combined = gks::testing::BuildIndexFromDocs(Corpus());
  for (const std::vector<size_t>& split :
       {std::vector<size_t>{2, 3}, {1, 1, 1, 1, 1}, {3, 1, 1}}) {
    for (const char* query :
         {"keyword", "xml keyword search", "database ranking"}) {
      SCOPED_TRACE(query);
      ExpectEquivalent(gks::testing::SearchOrDie(combined, query),
                       SearchSnapshot(MakeSnapshot(split), query));
    }
  }
}

TEST(SegmentSearchTest, SOptionIsHonoredAcrossSegments) {
  XmlIndex combined = gks::testing::BuildIndexFromDocs(Corpus());
  for (uint32_t s : {1u, 2u, 3u}) {
    SCOPED_TRACE(s);
    SearchOptions options;
    options.s = s;
    ExpectEquivalent(
        gks::testing::SearchOrDie(combined, "xml keyword search", options),
        SearchSnapshot(MakeSnapshot({2, 2, 1}), "xml keyword search",
                       options));
  }
}

TEST(SegmentSearchTest, TombstonesMaskExactlyTheDeletedDocuments) {
  // Deleting b.xml (doc 1) and d.xml (doc 3) must give the same answer
  // as an index that never contained them — modulo doc-id numbering, so
  // compare (name, rank) pairs through the respective catalogs.
  std::vector<std::pair<std::string, std::string>> remaining = {
      Corpus()[0], Corpus()[2], Corpus()[4]};
  XmlIndex reference = gks::testing::BuildIndexFromDocs(remaining);

  auto snapshot = MakeSnapshot({2, 2, 1}, /*deleted=*/{1, 3});
  for (const char* query : {"keyword", "xml", "ranking jones"}) {
    SCOPED_TRACE(query);
    SearchResponse expected = gks::testing::SearchOrDie(reference, query);
    SearchResponse masked = SearchSnapshot(snapshot, query);
    ASSERT_EQ(expected.nodes.size(), masked.nodes.size());
    for (size_t i = 0; i < expected.nodes.size(); ++i) {
      EXPECT_EQ(reference.catalog.document(expected.nodes[i].id.doc_id())
                    .name,
                snapshot->Document(masked.nodes[i].id.doc_id())->name);
      EXPECT_DOUBLE_EQ(expected.nodes[i].rank, masked.nodes[i].rank);
    }
  }
}

TEST(SegmentSearchTest, TopKStaysExactUnderDeletions) {
  // The k best live nodes — not the k best nodes with dead ones skipped
  // afterwards. Full evaluation over the same snapshot is the oracle.
  auto snapshot = MakeSnapshot({2, 2, 1}, /*deleted=*/{0, 2});
  SearchResponse full = SearchSnapshot(snapshot, "keyword search");
  for (uint32_t k : {1u, 2u, 3u}) {
    SCOPED_TRACE(k);
    SearchOptions options;
    options.top_k = k;
    SearchResponse topk = SearchSnapshot(snapshot, "keyword search", options);
    ASSERT_LE(topk.nodes.size(), static_cast<size_t>(k));
    ASSERT_LE(topk.nodes.size(), full.nodes.size());
    for (size_t i = 0; i < topk.nodes.size(); ++i) {
      EXPECT_EQ(full.nodes[i].id.ToString(), topk.nodes[i].id.ToString());
      EXPECT_DOUBLE_EQ(full.nodes[i].rank, topk.nodes[i].rank);
    }
  }
}

TEST(SegmentSearchTest, MaxResultsTrimsAfterTheMerge) {
  auto snapshot = MakeSnapshot({2, 3});
  SearchResponse full = SearchSnapshot(snapshot, "keyword");
  SearchOptions options;
  options.max_results = 2;
  SearchResponse trimmed = SearchSnapshot(snapshot, "keyword", options);
  ASSERT_EQ(trimmed.nodes.size(), std::min<size_t>(2, full.nodes.size()));
  for (size_t i = 0; i < trimmed.nodes.size(); ++i) {
    EXPECT_EQ(full.nodes[i].id.ToString(), trimmed.nodes[i].id.ToString());
  }
}

TEST(SegmentSearchTest, PooledSearchIsIdenticalToTheInlineWalk) {
  // With a pool the per-segment pipelines fan out on ParallelFor and the
  // merge re-establishes the deterministic order; responses must be
  // indistinguishable from the sequential loop, DI and refinements
  // included.
  ThreadPool pool(4);
  auto snapshot = MakeSnapshot({2, 2, 1});
  SegmentSearcher inline_searcher(snapshot);
  SegmentSearcher pooled_searcher(snapshot);
  pooled_searcher.set_pool(&pool);
  for (const char* query : {"keyword", "xml keyword search",
                            "database ranking", "\"keyword search\""}) {
    SCOPED_TRACE(query);
    for (uint32_t s : {1u, 2u}) {
      SearchOptions options;
      options.s = s;
      Result<SearchResponse> expected =
          inline_searcher.Search(query, options);
      Result<SearchResponse> pooled = pooled_searcher.Search(query, options);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
      ExpectEquivalent(*expected, *pooled);
    }
  }
}

TEST(SegmentSearchTest, DescribeNodeResolvesTheOwningSegment) {
  auto snapshot = MakeSnapshot({2, 3});
  SearchResponse response = SearchSnapshot(snapshot, "potential flow");
  ASSERT_FALSE(response.nodes.empty());
  // The only match lives in e.xml (doc 4), owned by the last segment.
  EXPECT_EQ(response.nodes[0].id.doc_id(), 4u);
  std::string described = DescribeNode(*snapshot, response.nodes[0]);
  EXPECT_FALSE(described.empty());
  EXPECT_EQ(described.find("<?>"), std::string::npos) << described;
}

}  // namespace
}  // namespace gks
