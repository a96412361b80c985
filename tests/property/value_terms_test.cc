// Value-term invariants of the node store. However a table gets its
// values — interned by the sequential builder, decoded from a saved file,
// remapped by the parallel build's merge, built per shard, or held per
// segment by the real-time path — every value's ValueTerms must map one
// to one, in order, onto text::Analyze of the value through the
// value-term dictionary, and the dictionary must hold exactly the terms
// that occur in values.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "common/file_io.h"
#include "common/thread_pool.h"
#include "data/dblp_gen.h"
#include "data/random_tree_gen.h"
#include "data/sigmod_gen.h"
#include "index/parallel_build.h"
#include "index/rt_index.h"
#include "index/serialization.h"
#include "index/shard.h"
#include "tests/test_util.h"
#include "text/analyzer.h"

namespace gks {
namespace {

// Stop-word-only values, repeats, case and apostrophes, numbers, and
// words that stem alike: the analyzer steps the table memoizes.
constexpr char kAnalyzerShapes[] =
    "<r><a>The</a><a>of the</a><b>Chair's Databases</b><c>2001</c>"
    "<d>DATABASE database databases</d><e>Mining mined miner</e>"
    "<f>a-b_c d.e</f></r>";

// Real text from two generators, random trees, and the analyzer shapes.
std::vector<NamedDocument> Documents(uint32_t seed) {
  std::vector<NamedDocument> docs;
  data::DblpOptions dblp;
  dblp.articles = 20 + seed * 5;
  dblp.seed = seed;
  docs.emplace_back("dblp.xml", data::GenerateDblp(dblp));
  data::SigmodOptions sigmod;
  sigmod.issues = 2;
  sigmod.seed = seed;
  docs.emplace_back("sigmod.xml", data::GenerateSigmodRecord(sigmod));
  for (uint32_t i = 0; i < 2; ++i) {
    data::RandomTreeOptions options;
    options.seed = seed * 31 + i;
    docs.emplace_back("tree" + std::to_string(i) + ".xml",
                      data::GenerateRandomTree(options));
  }
  docs.emplace_back("shapes.xml", kAnalyzerShapes);
  return docs;
}

void ExpectValueTerms(const NodeInfoTable& nodes) {
  ASSERT_GT(nodes.value_count(), 0u);
  std::set<std::string> occurring;
  for (uint32_t value = 0; value < nodes.value_count(); ++value) {
    SCOPED_TRACE(nodes.Value(value));
    const std::vector<std::string> want = text::Analyze(nodes.Value(value));
    const std::span<const uint32_t> got = nodes.ValueTerms(value);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_LT(got[i], nodes.value_term_count());
      EXPECT_EQ(nodes.ValueTermName(got[i]), want[i]);
      EXPECT_EQ(nodes.FindValueTerm(want[i]), got[i]);
      occurring.insert(want[i]);
    }
  }
  EXPECT_EQ(nodes.value_term_count(), occurring.size());
  for (uint32_t term = 0; term < nodes.value_term_count(); ++term) {
    EXPECT_EQ(nodes.FindValueTerm(nodes.ValueTermName(term)), term);
  }
  EXPECT_EQ(nodes.FindValueTerm("zzzzqqqq"), NodeInfoTable::kNoTerm);
}

class ValueTermInvariants : public ::testing::TestWithParam<uint32_t> {
 protected:
  std::string TempPath(const std::string& name) const {
    return ::testing::TempDir() + "gks_value_terms_" + name + "_" +
           std::to_string(GetParam());
  }
};

TEST_P(ValueTermInvariants, SequentialLoadedAndParallelBuilds) {
  const std::vector<NamedDocument> docs = Documents(GetParam());
  XmlIndex sequential = gks::testing::BuildIndexFromDocs(docs);
  {
    SCOPED_TRACE("sequential");
    ExpectValueTerms(sequential.nodes);
  }
  // The shapes document reached the table: "databas" stems three
  // spellings, and no value holds the stop word "the" as a term.
  EXPECT_NE(sequential.nodes.FindValueTerm("databas"),
            NodeInfoTable::kNoTerm);
  EXPECT_EQ(sequential.nodes.FindValueTerm("the"), NodeInfoTable::kNoTerm);

  const std::string path = TempPath("saved") + ".gksidx";
  ASSERT_TRUE(SaveIndex(sequential, path).ok());
  Result<XmlIndex> loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  {
    SCOPED_TRACE("loaded");
    ExpectValueTerms(loaded->nodes);
  }

  ThreadPool pool(2);
  Result<XmlIndex> parallel = BuildIndexParallel(docs, {}, &pool);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  {
    SCOPED_TRACE("parallel");
    ExpectValueTerms(parallel->nodes);
  }
}

TEST_P(ValueTermInvariants, ShardsDeriveTheirOwnTables) {
  namespace fs = std::filesystem;
  const std::string dir = TempPath("shards");
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  std::vector<std::string> files;
  for (const NamedDocument& doc : Documents(GetParam())) {
    files.push_back(dir + "/" + doc.first);
    ASSERT_TRUE(WriteStringToFile(files.back(), doc.second).ok());
  }
  Result<ShardManifest> manifest = SplitIntoShards(files, 3, dir + "/out");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  for (const ShardSpec& shard : manifest->shards) {
    SCOPED_TRACE(shard.file);
    Result<XmlIndex> loaded = LoadIndex(dir + "/out/" + shard.file);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectValueTerms(loaded->nodes);
  }
}

TEST_P(ValueTermInvariants, RealTimeSegmentsDeriveTheirOwnTables) {
  namespace fs = std::filesystem;
  RtOptions options;
  options.dir = TempPath("rt");
  options.background = false;
  options.fsync = false;
  options.flush_docs = 1u << 20;
  options.flush_bytes = 1ull << 30;
  options.merge_fanout = 2;
  std::error_code ec;
  fs::remove_all(options.dir, ec);

  const std::vector<NamedDocument> docs = Documents(GetParam());
  auto check_snapshot = [](const SegmentSetSnapshot& snapshot) {
    ASSERT_GE(snapshot.segments.size(), 2u);
    for (const SegmentView& segment : snapshot.segments) {
      SCOPED_TRACE(segment.label);
      ExpectValueTerms(segment.index->nodes);
    }
  };
  {
    Result<std::unique_ptr<RtIndex>> rt = RtIndex::Open(options);
    ASSERT_TRUE(rt.ok()) << rt.status().ToString();
    // Two flushed segments merged into one, then a RAM segment.
    for (size_t i = 0; i < docs.size(); ++i) {
      ASSERT_TRUE((*rt)->Insert(docs[i].first, docs[i].second).ok());
      if (i == 1 || i == 3) {
        ASSERT_TRUE((*rt)->Flush().ok());
      }
    }
    ASSERT_TRUE((*rt)->MaybeMerge().ok());
    check_snapshot(*(*rt)->snapshot());
    ASSERT_TRUE((*rt)->Flush().ok());
  }
  // Reopened: every segment is decoded from its file.
  Result<std::unique_ptr<RtIndex>> reopened = RtIndex::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  check_snapshot(*(*reopened)->snapshot());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueTermInvariants,
                         ::testing::Range(1u, 5u));

}  // namespace
}  // namespace gks
