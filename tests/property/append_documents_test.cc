// AppendDocuments property suite: however documents reach an index —
// appended from finished indexes with some left out, renumbered, from
// sources taken out of id order, built in memory or loaded from disk —
// the result serializes byte for byte like BuildSegmentIndex over the
// surviving documents in the appended order. This binds the primitive's
// interning orders (tags as rows open, values as the categorizer reports
// elements) to the builder's over tests/shape_corpus.h: every corpus
// generator, random trees, plays, and hand-made shapes that separate the
// orders.

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "index/index_builder.h"
#include "index/rt_segment.h"
#include "index/serialization.h"
#include "tests/shape_corpus.h"

namespace gks {
namespace {

using gks::testing::kCloseOrder;
using gks::testing::kIntroducer;
using gks::testing::kSurvivor;

/// ShapeCorpus(seed) numbered from 0.
std::vector<RtDocument> Corpus(uint32_t seed) {
  std::vector<RtDocument> docs;
  for (auto& [name, xml] : gks::testing::ShapeCorpus(seed)) {
    docs.push_back({static_cast<uint32_t>(docs.size()), std::move(name),
                    std::move(xml)});
  }
  return docs;
}

XmlIndex BuildOrDie(const std::vector<RtDocument>& docs) {
  Result<XmlIndex> index = BuildSegmentIndex(docs);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return std::move(index).value();
}

class AppendDocumentsProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(AppendDocumentsProperty, MatchesAFreshBuildOfTheSurvivors) {
  const uint32_t seed = GetParam();
  std::mt19937 rng(seed);
  const std::vector<RtDocument> docs = Corpus(seed);

  // Contiguous sources of one to five documents; every third one goes
  // through the file format, as the RT merge's inputs do.
  std::vector<XmlIndex> sources;
  std::vector<std::vector<RtDocument>> source_docs;
  for (size_t begin = 0; begin < docs.size();) {
    const size_t end = std::min(docs.size(), begin + 1 + rng() % 5);
    source_docs.emplace_back(docs.begin() + begin, docs.begin() + end);
    sources.push_back(BuildOrDie(source_docs.back()));
    if (sources.size() % 3 == 0) {
      Result<XmlIndex> loaded =
          DeserializeIndex(SerializeIndex(sources.back()));
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      sources.back() = std::move(loaded).value();
    }
    begin = end;
  }

  // Drop about a quarter of the documents, always the introducer, never
  // the close-order and survivor shapes.
  std::vector<uint32_t> dropped;
  for (const RtDocument& doc : docs) {
    if (doc.name == "close_order.xml" || doc.name == "survivor.xml") continue;
    if (doc.name == "introducer.xml" || rng() % 4 == 0) {
      dropped.push_back(doc.doc_id);
    }
  }

  // Append the sources out of id order, renumbering from past the range.
  std::vector<size_t> order(sources.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  if (std::is_sorted(order.begin(), order.end())) {
    std::reverse(order.begin(), order.end());
  }
  const uint32_t new_base = static_cast<uint32_t>(docs.size()) + 5;

  XmlIndex appended;
  uint32_t next_id = new_base;
  std::vector<std::pair<uint32_t, uint32_t>> id_map;
  std::vector<RtDocument> survivors;
  std::vector<std::pair<uint32_t, uint32_t>> want_map;
  for (size_t i : order) {
    Status status =
        AppendDocuments(&appended, sources[i], dropped, &next_id, &id_map);
    ASSERT_TRUE(status.ok()) << status.ToString();
    for (const RtDocument& doc : source_docs[i]) {
      if (std::binary_search(dropped.begin(), dropped.end(), doc.doc_id)) {
        continue;
      }
      const uint32_t new_id =
          new_base + static_cast<uint32_t>(survivors.size());
      want_map.emplace_back(doc.doc_id, new_id);
      survivors.push_back({new_id, doc.name, doc.xml});
    }
  }
  ASSERT_GT(survivors.size(), 2u);
  EXPECT_EQ(next_id, new_base + survivors.size());
  EXPECT_EQ(id_map, want_map);
  EXPECT_EQ(SerializeIndex(appended), SerializeIndex(BuildOrDie(survivors)));
}

TEST_P(AppendDocumentsProperty, KeepingEverythingInOrderIsTheBuild) {
  // The compaction and flush shape: a copy of an accumulated index with
  // single-document indexes appended, ids unchanged.
  const std::vector<RtDocument> docs = Corpus(GetParam());
  const size_t split = docs.size() / 2;
  XmlIndex combined =
      BuildOrDie(std::vector<RtDocument>(docs.begin(), docs.begin() + split));
  uint32_t next_id = static_cast<uint32_t>(split);
  for (size_t i = split; i < docs.size(); ++i) {
    Status status =
        AppendDocuments(&combined, BuildOrDie({docs[i]}), {}, &next_id);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  EXPECT_EQ(SerializeIndex(combined), SerializeIndex(BuildOrDie(docs)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AppendDocumentsProperty,
                         ::testing::Range(1u, 13u));

TEST(AppendDocumentsTest, ValuesFollowTheCategorizerNotTheRows) {
  XmlIndex appended;
  uint32_t next_id = 3;
  ASSERT_TRUE(AppendDocuments(&appended,
                              BuildOrDie({{0, "close_order.xml", kCloseOrder}}),
                              {}, &next_id)
                  .ok());
  ASSERT_EQ(appended.nodes.value_count(), 2u);
  EXPECT_EQ(appended.nodes.Value(0), "y");
  EXPECT_EQ(appended.nodes.Value(1), "x");
  EXPECT_EQ(appended.DocBase(), 3u);
}

TEST(AppendDocumentsTest, ADroppedDocumentLeavesNoInterningOrderBehind) {
  const XmlIndex source = BuildOrDie(
      {{0, "introducer.xml", kIntroducer}, {1, "survivor.xml", kSurvivor}});
  XmlIndex appended;
  uint32_t next_id = 0;
  const std::vector<uint32_t> dropped = {0};
  ASSERT_TRUE(AppendDocuments(&appended, source, dropped, &next_id).ok());
  EXPECT_EQ(SerializeIndex(appended),
            SerializeIndex(BuildOrDie({{0, "survivor.xml", kSurvivor}})));
  EXPECT_EQ(appended.nodes.TagName(1), "u");
  EXPECT_EQ(appended.nodes.Value(0), "second");
}

TEST(AppendDocumentsTest, TargetMustEndJustBeforeTheNextId) {
  XmlIndex target = BuildOrDie({{4, "a.xml", kSurvivor}});
  const XmlIndex source = BuildOrDie({{0, "b.xml", kCloseOrder}});
  for (uint32_t wrong : {0u, 4u, 6u}) {
    uint32_t next_id = wrong;
    EXPECT_EQ(AppendDocuments(&target, source, {}, &next_id).code(),
              StatusCode::kInvalidArgument)
        << wrong;
    EXPECT_EQ(next_id, wrong);
  }
  uint32_t next_id = 5;
  ASSERT_TRUE(AppendDocuments(&target, source, {}, &next_id).ok());
  EXPECT_EQ(next_id, 6u);
  EXPECT_EQ(SerializeIndex(target),
            SerializeIndex(BuildOrDie(
                {{4, "a.xml", kSurvivor}, {5, "b.xml", kCloseOrder}})));
}

TEST(AppendDocumentsTest, DroppingEveryDocumentAddsNothing) {
  const XmlIndex source =
      BuildOrDie({{2, "a.xml", kSurvivor}, {3, "b.xml", kCloseOrder}});
  XmlIndex target;
  uint32_t next_id = 9;
  std::vector<std::pair<uint32_t, uint32_t>> id_map;
  const std::vector<uint32_t> dropped = {2, 3};
  ASSERT_TRUE(
      AppendDocuments(&target, source, dropped, &next_id, &id_map).ok());
  EXPECT_EQ(next_id, 9u);
  EXPECT_TRUE(id_map.empty());
  EXPECT_EQ(SerializeIndex(target), SerializeIndex(XmlIndex()));
}

}  // namespace
}  // namespace gks
