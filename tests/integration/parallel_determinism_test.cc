// Determinism pins for the concurrency layer: parallel execution must be
// invisible in the output. SearchBatch over a pool returns responses
// identical to sequential Search calls; BuildIndexParallel serializes to
// the same bytes as a sequential IndexBuilder, on a batch corpus and on
// every seed of the shape corpus (tests/shape_corpus.h).

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "common/thread_pool.h"
#include "core/searcher.h"
#include "index/index_builder.h"
#include "index/parallel_build.h"
#include "index/serialization.h"
#include "tests/shape_corpus.h"
#include "tests/test_util.h"

namespace gks {
namespace {

using gks::testing::BuildIndexFromDocs;

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

TEST(ParallelDeterminismTest, ParallelBuildIsByteIdenticalToSequential) {
  std::vector<std::vector<NamedDocument>> corpora = {TestCorpus()};
  for (uint32_t seed = 1; seed <= 12; ++seed) {
    corpora.push_back(gks::testing::ShapeCorpus(seed));
  }
  for (size_t c = 0; c < corpora.size(); ++c) {
    const std::vector<NamedDocument>& docs = corpora[c];
    IndexBuilder sequential;
    for (const auto& [name, xml] : docs) {
      ASSERT_TRUE(sequential.AddDocument(xml, name).ok()) << name;
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
          << "corpus " << c << ", threads=" << threads;
    }
  }
}

TEST(ParallelDeterminismTest, ParallelBuildPropagatesFirstParseError) {
  std::vector<NamedDocument> docs = TestCorpus();
  docs[2].second = "<broken><unclosed>";
  ThreadPool pool(4);
  Result<XmlIndex> result = BuildIndexParallel(docs, {}, &pool);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace gks
