// Golden-file test for the --explain-json span-tree schema
// (docs/OBSERVABILITY.md): the explain document for a fixed query over the
// Figure 1 tree must match tests/core/testdata/explain_span_tree.golden.json
// once wall-clock fields are normalized. Regenerate after an intentional
// schema change with:
//   GKS_UPDATE_GOLDEN=1 ./core_test --gtest_filter='ExplainJson*'

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "core/searcher.h"
#include "data/figures.h"
#include "tests/test_util.h"

namespace gks {
namespace {

using gks::testing::BuildIndexFromXml;
using gks::testing::SearchOrDie;

constexpr char kGoldenPath[] =
    GKS_TEST_SRCDIR "/core/testdata/explain_span_tree.golden.json";

// Wall-clock values vary run to run: rewrite every `<key>_ms":<number>` to
// `<key>_ms":0.000` so the golden captures schema + deterministic counts.
std::string NormalizeTimings(std::string json) {
  const std::string marker = "_ms\":";
  size_t pos = 0;
  while ((pos = json.find(marker, pos)) != std::string::npos) {
    size_t begin = pos + marker.size();
    size_t end = begin;
    while (end < json.size() &&
           (std::isdigit(static_cast<unsigned char>(json[end])) ||
            json[end] == '.' || json[end] == '-')) {
      ++end;
    }
    json.replace(begin, end - begin, "0.000");
    pos = begin;
  }
  return json;
}

TEST(ExplainJsonTest, MatchesGoldenSchema) {
  XmlIndex index = BuildIndexFromXml(data::Figure1Xml());
  SearchOptions options;
  options.s = 2;
  SearchResponse response = SearchOrDie(index, "ka kb kc", options);

  // The documented timing identity must hold on the real (un-normalized)
  // document: total covers parse + every stage, and what is left over is
  // surfaced explicitly as other_ms (sorting/assembly/allocator work).
  const SearchResponse::Timings& t = response.timings;
  EXPECT_GE(t.total_ms, t.StageSumMs());
  std::string raw = ExplainJson(response);
  EXPECT_NE(raw.find("\"other_ms\":"), std::string::npos);
  EXPECT_EQ(raw.find("\"residual_ms\":"), std::string::npos);

  std::string normalized = NormalizeTimings(raw) + "\n";

  if (std::getenv("GKS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath);
    out << normalized;
    GTEST_SKIP() << "golden regenerated at " << kGoldenPath;
  }

  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in.good()) << "missing golden file " << kGoldenPath;
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(normalized, golden.str());
}

TEST(ExplainJsonTest, CoversAllSixPipelineStages) {
  XmlIndex index = BuildIndexFromXml(data::Figure1Xml());
  SearchResponse response = SearchOrDie(index, "ka kb kc");
  // The span tree must cover every Sec. 4-6 pipeline stage.
  for (const char* stage : {"merged_list", "window_scan", "lce", "ranking",
                            "di", "refinement"}) {
    EXPECT_NE(response.trace.Find(stage), nullptr) << stage;
  }
  // Text-query overload also records the parse span, and `ranking` nests
  // under `lce` (the legacy lce_ms covers both).
  ASSERT_NE(response.trace.Find("parse"), nullptr);
  const TraceSpan* ranking = response.trace.Find("ranking");
  const TraceSpan* lce = response.trace.Find("lce");
  EXPECT_EQ(&response.trace.spans()[static_cast<size_t>(ranking->parent)],
            lce);
}

TEST(ExplainJsonTest, TimingsBackfilledFromSpans) {
  XmlIndex index = BuildIndexFromXml(data::Figure1Xml());
  SearchResponse response = SearchOrDie(index, "ka kb kc");
  const SearchResponse::Timings& t = response.timings;
  EXPECT_DOUBLE_EQ(t.merge_ms, response.trace.ElapsedMs("merged_list"));
  EXPECT_DOUBLE_EQ(t.lce_ms, response.trace.ElapsedMs("lce"));
  // total = stages + other by construction; other_ms is never negative.
  EXPECT_GE(t.total_ms, t.StageSumMs());
  EXPECT_NEAR(t.total_ms, t.StageSumMs() + t.OtherMs(), 1e-9);
  // FormatSearchDiagnostics surfaces the consistency line.
  std::string text = FormatSearchDiagnostics(response);
  EXPECT_NE(text.find("refine"), std::string::npos);
  EXPECT_NE(text.find("stages"), std::string::npos);
  EXPECT_NE(text.find("total"), std::string::npos);
}

}  // namespace
}  // namespace gks
