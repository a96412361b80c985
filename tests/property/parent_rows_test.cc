// Parent-row invariants of the node store. However a table is built —
// sorted once after out-of-order Puts (the sequential builder), decoded
// from a saved file, appended in order by the parallel build's merge, or
// held per segment by the real-time path — every row's ParentRow must be
// the deepest proper prefix that is a row, found by brute force over
// Find, and EntityRow must be the per-prefix is_entity walk. Ids that are
// not rows resolve to their deepest ancestor row, by binary search and by
// the forward cursor alike.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "common/thread_pool.h"
#include "data/random_tree_gen.h"
#include "index/index_builder.h"
#include "index/parallel_build.h"
#include "index/rt_index.h"
#include "index/serialization.h"
#include "tests/test_util.h"

namespace gks {
namespace {

constexpr uint32_t kNoRow = NodeInfoTable::kNoRow;

std::vector<NamedDocument> RandomDocuments(uint32_t seed, size_t count) {
  std::vector<NamedDocument> docs;
  for (size_t i = 0; i < count; ++i) {
    data::RandomTreeOptions options;
    options.seed = seed * 31 + static_cast<uint32_t>(i);
    options.target_nodes = 60 + (options.seed % 4) * 50;
    options.max_depth = 3 + options.seed % 6;
    docs.emplace_back("doc" + std::to_string(i) + ".xml",
                      data::GenerateRandomTree(options));
  }
  return docs;
}

// Row of the deepest prefix of `id` no shorter than 1 and no longer than
// `max_len` that Find knows, or kNoRow: the per-prefix walk.
uint32_t BruteDeepestRow(const NodeInfoTable& nodes, DeweySpan id,
                         uint32_t max_len) {
  for (uint32_t len = max_len; len >= 1; --len) {
    const DeweySpan prefix{id.data, len};
    if (nodes.Find(prefix) != nullptr) return nodes.RowOf(prefix);
  }
  return kNoRow;
}

uint32_t BruteEntityRow(const NodeInfoTable& nodes, DeweySpan id) {
  for (uint32_t len = id.size; len >= 1; --len) {
    const DeweySpan prefix{id.data, len};
    const NodeInfo* info = nodes.Find(prefix);
    if (info != nullptr && info->is_entity()) return nodes.RowOf(prefix);
  }
  return kNoRow;
}

// Checks every row, then probe ids that are no rows: a child past the
// last ordinal of each row and a sibling after it. The probes ascend, so
// one cursor sweep must agree with the binary search.
void ExpectParentRows(const NodeInfoTable& nodes) {
  ASSERT_GT(nodes.size(), 0u);
  for (size_t row = 0; row < nodes.size(); ++row) {
    const DeweySpan id = nodes.IdAt(row);
    SCOPED_TRACE(id.ToDeweyId().ToString());
    ASSERT_EQ(nodes.RowOf(id), row);
    EXPECT_EQ(nodes.SelfOrAncestorRow(id), row);
    const uint32_t parent = BruteDeepestRow(nodes, id, id.size - 1);
    EXPECT_EQ(nodes.ParentRow(static_cast<uint32_t>(row)), parent);
    EXPECT_EQ(nodes.EntityRow(static_cast<uint32_t>(row)),
              BruteEntityRow(nodes, id));
    // A built tree has a row at every level: only document roots
    // (d<doc>.0) lack a parent.
    if (parent == kNoRow) {
      EXPECT_EQ(id.size, 2u);
    }
  }

  std::vector<DeweyId> probes;
  for (size_t row = 0; row < nodes.size(); ++row) {
    const DeweyId id = nodes.IdAt(row).ToDeweyId();
    probes.push_back(id.Child(1u << 20));
    std::vector<uint32_t> after = id.components();
    after.back() += 1u << 20;
    probes.emplace_back(std::move(after));
  }
  std::sort(probes.begin(), probes.end());
  size_t cursor = 0;
  for (const DeweyId& probe : probes) {
    const DeweySpan id = DeweySpan::Of(probe);
    SCOPED_TRACE(probe.ToString());
    ASSERT_EQ(nodes.RowOf(id), kNoRow);
    const uint32_t want = BruteDeepestRow(nodes, id, id.size);
    EXPECT_EQ(nodes.SelfOrAncestorRow(id), want);
    EXPECT_EQ(nodes.SelfOrAncestorRowFrom(id, &cursor), want);
  }
}

void ExpectSameRows(const NodeInfoTable& a, const NodeInfoTable& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t row = 0; row < a.size(); ++row) {
    ASSERT_EQ(a.IdAt(row), b.IdAt(row)) << row;
    EXPECT_EQ(a.ParentRow(static_cast<uint32_t>(row)),
              b.ParentRow(static_cast<uint32_t>(row)));
  }
}

class ParentRowInvariants : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ParentRowInvariants, SequentialLoadedAndParallelBuildsLinkParents) {
  const std::vector<NamedDocument> docs = RandomDocuments(GetParam(), 5);
  XmlIndex sequential = gks::testing::BuildIndexFromDocs(docs);
  {
    SCOPED_TRACE("sequential");
    ExpectParentRows(sequential.nodes);
  }

  const std::string path = ::testing::TempDir() + "gks_parent_rows_" +
                           std::to_string(GetParam()) + ".gksidx";
  ASSERT_TRUE(SaveIndex(sequential, path).ok());
  Result<XmlIndex> loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  {
    SCOPED_TRACE("loaded");
    ExpectParentRows(loaded->nodes);
    ExpectSameRows(sequential.nodes, loaded->nodes);
  }

  ThreadPool pool(2);
  Result<XmlIndex> parallel = BuildIndexParallel(docs, {}, &pool);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  {
    SCOPED_TRACE("parallel");
    ExpectParentRows(parallel->nodes);
    ExpectSameRows(sequential.nodes, parallel->nodes);
  }
}

TEST_P(ParentRowInvariants, EntityRowsFollowFlagsAddedLater) {
  XmlIndex index = gks::testing::BuildIndexFromDocs(
      RandomDocuments(GetParam(), 2));
  // Schema reconciliation may flag entities after the build; EntityRow
  // reads the flags, so it must see them.
  size_t flagged = 0;
  for (size_t row = 0; row < index.nodes.size(); row += 7) {
    if (index.nodes.InfoAt(row).is_entity()) continue;
    const DeweyId id = index.nodes.IdAt(row).ToDeweyId();
    ASSERT_TRUE(index.nodes.AddFlags(DeweySpan::Of(id), kFlagEntity));
    ++flagged;
  }
  ASSERT_GT(flagged, 0u);
  ExpectParentRows(index.nodes);
}

TEST_P(ParentRowInvariants, RealTimeSegmentsLinkParents) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "gks_parent_rows_rt_" +
                          std::to_string(GetParam());
  std::error_code ec;
  fs::remove_all(dir, ec);
  RtOptions options;
  options.dir = dir;
  options.background = false;
  options.fsync = false;
  options.flush_docs = 1u << 20;
  options.flush_bytes = 1ull << 30;
  options.merge_fanout = 2;

  const std::vector<NamedDocument> docs = RandomDocuments(GetParam(), 6);
  auto check_snapshot = [](const SegmentSetSnapshot& snapshot) {
    ASSERT_GE(snapshot.segments.size(), 2u);
    for (const SegmentView& segment : snapshot.segments) {
      SCOPED_TRACE(segment.label);
      ExpectParentRows(segment.index->nodes);
    }
  };
  {
    Result<std::unique_ptr<RtIndex>> rt = RtIndex::Open(options);
    ASSERT_TRUE(rt.ok()) << rt.status().ToString();
    // Two flushed segments merged into one, then RAM segments.
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

INSTANTIATE_TEST_SUITE_P(Seeds, ParentRowInvariants,
                         ::testing::Range(1u, 9u));

}  // namespace
}  // namespace gks
