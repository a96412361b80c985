// Backward compatibility against a checked-in v1 index file (see
// golden/README.md): the legacy decode path must keep loading bytes
// written by an older build, and must answer queries identically to a
// freshly built format-v2 index of the same document.

#include <algorithm>
#include <string>

#include "gtest/gtest.h"
#include "common/file_io.h"
#include "index/posting_list.h"
#include "index/serialization.h"
#include "tests/test_util.h"

namespace gks {
namespace {

using gks::testing::BuildIndexFromXml;
using gks::testing::SearchOrDie;

const char kGoldenDir[] = GKS_TEST_SRCDIR "/index/golden";

XmlIndex BuildFreshIndex() {
  std::string xml;
  Status status =
      ReadFileToString(std::string(kGoldenDir) + "/library.xml", &xml);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return BuildIndexFromXml(xml);
}

TEST(GoldenIndexTest, V1GoldenFileLoads) {
  Result<XmlIndex> golden =
      LoadIndex(std::string(kGoldenDir) + "/library_v1.gksidx");
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  XmlIndex fresh = BuildFreshIndex();
  EXPECT_EQ(golden->nodes.size(), fresh.nodes.size());
  EXPECT_EQ(golden->inverted.term_count(), fresh.inverted.term_count());
  EXPECT_EQ(golden->inverted.posting_count(), fresh.inverted.posting_count());
  EXPECT_EQ(golden->nodes.ValuedRowCount(), fresh.nodes.ValuedRowCount());
  EXPECT_EQ(golden->nodes.counts().entity, fresh.nodes.counts().entity);
}

TEST(GoldenIndexTest, V1GoldenMatchesFreshV2Results) {
  Result<XmlIndex> golden =
      LoadIndex(std::string(kGoldenDir) + "/library_v1.gksidx");
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();

  // Round-trip the fresh index through the current (v2) format so the
  // comparison covers today's encoder and decoder, not just the builder.
  XmlIndex fresh = BuildFreshIndex();
  Result<XmlIndex> v2 = DeserializeIndex(SerializeIndex(fresh));
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();

  SearchOptions options;
  options.s = 2;
  for (const char* query : {"peter buneman", "title:algorithms", "xml data",
                            "author year", "database"}) {
    SearchResponse want = SearchOrDie(*golden, query, options);
    SearchResponse got = SearchOrDie(*v2, query, options);
    ASSERT_EQ(want.nodes.size(), got.nodes.size()) << query;
    for (size_t i = 0; i < want.nodes.size(); ++i) {
      EXPECT_EQ(want.nodes[i].id, got.nodes[i].id) << query;
      EXPECT_DOUBLE_EQ(want.nodes[i].rank, got.nodes[i].rank) << query;
    }
  }
}

TEST(GoldenIndexTest, GoldenFileIsUnchangedByteForByte) {
  // The golden file's magic pins it to v1; if this fails the file was
  // regenerated with a v2 writer by mistake.
  std::string bytes;
  Status status = ReadFileToString(
      std::string(kGoldenDir) + "/library_v1.gksidx", &bytes);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(bytes.substr(0, 8), "GKSIDX01");
}

// The second pin: a v2 file WITHOUT the rank_bounds section — the exact
// byte stream pre-rank-bounds v2 writers produced. The loader must keep
// accepting it (the section is optional by design), with the bounds read
// as absent, and answer queries identically to a fresh index.
TEST(GoldenIndexTest, V2NoBoundsGoldenFileLoads) {
  const std::string path =
      std::string(kGoldenDir) + "/library_v2_nobounds.gksidx";
  XmlIndex fresh = BuildFreshIndex();

  Result<XmlIndex> loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  SearchOptions options;
  options.s = 2;
  EXPECT_EQ(loaded->inverted.term_count(), fresh.inverted.term_count());
  EXPECT_EQ(loaded->inverted.posting_count(), fresh.inverted.posting_count());
  for (const char* query : {"peter buneman", "xml data", "author year"}) {
    SearchResponse want = SearchOrDie(fresh, query, options);
    SearchResponse got = SearchOrDie(*loaded, query, options);
    ASSERT_EQ(want.nodes.size(), got.nodes.size()) << query;
    for (size_t i = 0; i < want.nodes.size(); ++i) {
      EXPECT_EQ(want.nodes[i].id, got.nodes[i].id) << query;
      EXPECT_DOUBLE_EQ(want.nodes[i].rank, got.nodes[i].rank) << query;
    }
  }

  // Absent section => absent bounds (+inf to the evaluator), and top-k
  // queries still answer exactly.
  const PostingList* list = loaded->inverted.Find("xml");
  ASSERT_NE(list, nullptr);
  EXPECT_TRUE(list->rank_bounds().empty());
  SearchOptions topk = options;
  topk.top_k = 2;
  SearchResponse full = SearchOrDie(*loaded, "xml data", options);
  SearchResponse bounded = SearchOrDie(*loaded, "xml data", topk);
  ASSERT_EQ(bounded.nodes.size(), std::min<size_t>(2, full.nodes.size()));
  for (size_t i = 0; i < bounded.nodes.size(); ++i) {
    EXPECT_EQ(bounded.nodes[i].id, full.nodes[i].id);
  }
}

TEST(GoldenIndexTest, V2NoBoundsGoldenFileHasNoRankBoundsSection) {
  const std::string path =
      std::string(kGoldenDir) + "/library_v2_nobounds.gksidx";
  Result<IndexFileInfo> info = InspectIndexFile(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, 2);
  ASSERT_EQ(info->sections.size(), 4u);
  for (const IndexSectionInfo& section : info->sections) {
    EXPECT_NE(section.name, "rank_bounds");
  }
}

}  // namespace
}  // namespace gks
