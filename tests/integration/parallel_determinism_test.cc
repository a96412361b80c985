// Determinism pins for the concurrency layer: parallel execution must be
// invisible in the output. SearchBatch over a pool returns responses
// identical to sequential Search calls; BuildIndexParallel serializes to
// the same bytes as a sequential IndexBuilder; the shared result cache
// never serves responses from a superseded index epoch.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "common/thread_pool.h"
#include "core/result_cache.h"
#include "core/searcher.h"
#include "index/index_builder.h"
#include "index/parallel_build.h"
#include "index/serialization.h"
#include "tests/test_util.h"

namespace gks {
namespace {

using gks::testing::BuildIndexFromDocs;
using gks::testing::NodeIds;

std::vector<NamedDocument> TestCorpus() {
  std::vector<NamedDocument> docs;
  for (int d = 0; d < 6; ++d) {
    std::string xml = "<bib>";
    for (int a = 0; a < 8; ++a) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "<article><title>xml data batch %d</title>"
                    "<author>author%d alpha</author>"
                    "<year>%d</year></article>",
                    a, (d * 8 + a) % 5, 1990 + (d + a) % 20);
      xml += buf;
    }
    xml += "</bib>";
    docs.emplace_back("doc" + std::to_string(d) + ".xml", std::move(xml));
  }
  return docs;
}

// Everything deterministic about a response — timings and the span tree
// (wall-clock) are deliberately excluded.
std::string Canonical(const SearchResponse& response) {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "s=%u sl=%zu cand=%zu lce=%zu\n",
                response.effective_s, response.merged_list_size,
                response.candidate_count, response.lce_count);
  out += buf;
  for (const GksNode& node : response.nodes) {
    std::snprintf(buf, sizeof(buf), "n %s k=%u r=%.6f lce=%d\n",
                  node.id.ToString().c_str(), node.keyword_count, node.rank,
                  node.is_lce ? 1 : 0);
    out += buf;
  }
  for (const DiKeyword& di : response.insights) {
    std::snprintf(buf, sizeof(buf), "di %s w=%.6f sup=%u\n",
                  di.ToString().c_str(), di.weight, di.support);
    out += buf;
  }
  for (const RefinementSuggestion& suggestion : response.refinements) {
    out += "ref";
    for (const std::string& keyword : suggestion.keywords) {
      out += " " + keyword;
    }
    out += "\n";
  }
  return out;
}

std::vector<std::string> TestQueries() {
  return {
      "xml data",          "author0 alpha",    "batch 3",
      "year:1995",         "xml batch",        "alpha data",
      "author2",           "title:xml",        "data 1990",
      "nonexistent words", "xml data batch 7", "author4 alpha xml",
  };
}

TEST(ParallelDeterminismTest, SearchBatchMatchesSequentialSearch) {
  XmlIndex index = BuildIndexFromDocs(TestCorpus());
  GksSearcher searcher(&index);
  SearchOptions options;
  options.suggest_refinements = true;

  // A batch large enough that every pool worker handles many queries.
  std::vector<std::string> batch;
  for (int r = 0; r < 8; ++r) {
    for (const std::string& q : TestQueries()) batch.push_back(q);
  }

  std::vector<std::string> expected;
  for (const std::string& q : batch) {
    Result<SearchResponse> response = searcher.Search(q, options);
    ASSERT_TRUE(response.ok()) << q << ": " << response.status().ToString();
    expected.push_back(Canonical(*response));
  }

  ThreadPool pool(8);
  std::vector<Result<SearchResponse>> responses =
      searcher.SearchBatch(batch, options, &pool);
  ASSERT_EQ(responses.size(), batch.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok())
        << batch[i] << ": " << responses[i].status().ToString();
    EXPECT_EQ(Canonical(*responses[i]), expected[i]) << batch[i];
  }
}

TEST(ParallelDeterminismTest, SearchBatchWithSharedCacheStaysDeterministic) {
  XmlIndex index = BuildIndexFromDocs(TestCorpus());
  GksSearcher searcher(&index);
  QueryResultCache cache(64);
  searcher.set_cache(&cache);
  SearchOptions options;

  std::vector<std::string> batch;
  for (int r = 0; r < 4; ++r) {
    for (const std::string& q : TestQueries()) batch.push_back(q);
  }

  ThreadPool pool(8);
  std::vector<Result<SearchResponse>> responses =
      searcher.SearchBatch(batch, options, &pool);
  ASSERT_EQ(responses.size(), batch.size());
  size_t unique = TestQueries().size();
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok()) << batch[i];
    // Every repetition of a query must equal its first occurrence, whether
    // it was computed or served from the shared cache.
    EXPECT_EQ(Canonical(*responses[i]), Canonical(*responses[i % unique]))
        << batch[i];
  }
}

TEST(ParallelDeterminismTest, ParallelBuildIsByteIdenticalToSequential) {
  std::vector<NamedDocument> docs = TestCorpus();

  IndexBuilder sequential;
  for (const auto& [name, xml] : docs) {
    ASSERT_TRUE(sequential.AddDocument(xml, name).ok());
  }
  Result<XmlIndex> expected = std::move(sequential).Finalize();
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  std::string expected_bytes = SerializeIndex(*expected);

  for (size_t threads : {size_t{0}, size_t{1}, size_t{4}}) {
    ThreadPool pool(threads == 0 ? 1 : threads);
    Result<XmlIndex> parallel =
        BuildIndexParallel(docs, {}, threads == 0 ? nullptr : &pool);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(SerializeIndex(*parallel), expected_bytes)
        << "threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, ParallelBuildPropagatesFirstParseError) {
  std::vector<NamedDocument> docs = TestCorpus();
  docs[2].second = "<broken><unclosed>";
  ThreadPool pool(4);
  Result<XmlIndex> result = BuildIndexParallel(docs, {}, &pool);
  EXPECT_FALSE(result.ok());
}

TEST(ParallelDeterminismTest, EpochBumpInvalidatesCachedResponses) {
  std::vector<NamedDocument> docs = TestCorpus();
  XmlIndex index = BuildIndexFromDocs(docs);
  QueryResultCache cache(64);
  GksSearcher searcher(&index);
  searcher.set_cache(&cache);

  Result<SearchResponse> before = searcher.Search("freshterm", {});
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->nodes.empty());
  ASSERT_TRUE(cache.size() > 0);  // the empty response was cached

  // Rebuild with one more document and load the result, as a server's
  // reload does; the load stamps the new epoch.
  docs.emplace_back("fresh.xml",
                    "<bib><article><title>freshterm xml</title>"
                    "</article></bib>");
  Result<XmlIndex> rebuilt =
      DeserializeIndex(SerializeIndex(BuildIndexFromDocs(docs)));
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_NE(rebuilt->epoch, index.epoch);
  GksSearcher rebuilt_searcher(&*rebuilt);
  rebuilt_searcher.set_cache(&cache);

  // Same query text, new epoch -> new key: the stale cached miss must not
  // be served, and the new document must be found.
  Result<SearchResponse> after = rebuilt_searcher.Search("freshterm", {});
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->nodes.empty());

  // The superseded entry ages out of the LRU instead of being purged, so
  // both keys may coexist; a repeat query stays on the fresh epoch.
  Result<SearchResponse> repeat = rebuilt_searcher.Search("freshterm", {});
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(NodeIds(*repeat), NodeIds(*after));
}

}  // namespace
}  // namespace gks
