#include "index/index_builder.h"

#include <cstdint>
#include <utility>

#include "gtest/gtest.h"
#include "data/figures.h"
#include "tests/test_util.h"

namespace gks {
namespace {

using gks::testing::BuildIndexFromDocs;
using gks::testing::BuildIndexFromXml;

TEST(IndexBuilderTest, TextKeywordsPostAtContainingElement) {
  XmlIndex index = BuildIndexFromXml("<r><s>Karen</s><s>Mike</s></r>");
  const PostingList* karen = index.inverted.Find("karen");
  ASSERT_NE(karen, nullptr);
  ASSERT_EQ(karen->size(), 1u);
  // d0.0 = root <r>, d0.0.0 = first <s>.
  EXPECT_EQ(karen->IdAt(0).ToString(), "d0.0.0");
  const PostingList* mike = index.inverted.Find("mike");
  ASSERT_NE(mike, nullptr);
  EXPECT_EQ(mike->IdAt(0).ToString(), "d0.0.1");
}

TEST(IndexBuilderTest, TermsAreAnalyzed) {
  XmlIndex index =
      BuildIndexFromXml("<r><t>The Databases of Students</t></r>");
  EXPECT_EQ(index.inverted.Find("the"), nullptr);       // stop word
  EXPECT_EQ(index.inverted.Find("databases"), nullptr); // unstemmed form
  EXPECT_NE(index.inverted.Find("databas"), nullptr);   // stem
  EXPECT_NE(index.inverted.Find("student"), nullptr);
}

TEST(IndexBuilderTest, TagNamesAreIndexed) {
  XmlIndex index = BuildIndexFromXml("<r><Student>Karen</Student></r>");
  const PostingList* tag = index.inverted.Find("student");
  ASSERT_NE(tag, nullptr);
  EXPECT_EQ(tag->IdAt(0).ToString(), "d0.0.0");
}

TEST(IndexBuilderTest, MultiTokenTagIndexesEachToken) {
  XmlIndex index = BuildIndexFromXml("<r><Dept_Name>CS</Dept_Name></r>");
  EXPECT_NE(index.inverted.Find("dept"), nullptr);
  EXPECT_NE(index.inverted.Find("name"), nullptr);
}

TEST(IndexBuilderTest, XmlAttributesBecomeSearchable) {
  XmlIndex index = BuildIndexFromXml(R"(<r><c name="Data Mining"/></r>)");
  const PostingList* mining = index.inverted.Find("mine");
  ASSERT_NE(mining, nullptr);
  // Synthesized attribute element is child 0 of <c> (d0.0.0).
  EXPECT_EQ(mining->IdAt(0).ToString(), "d0.0.0.0");
}

TEST(IndexBuilderTest, PostingListsSortedAndDeduped) {
  // "x" occurs twice in one text node and in mixed content that arrives
  // after a child element — the finalized list must still be sorted and
  // duplicate-free.
  XmlIndex index =
      BuildIndexFromXml("<r><a><b>x</b>x x</a><c>x</c></r>");
  const PostingList* list = index.inverted.Find("x");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->size(), 3u);  // <a> (mixed text), <b>, <c>
  for (size_t i = 1; i < list->size(); ++i) {
    EXPECT_LT(list->At(i - 1).Compare(list->At(i)), 0);
  }
}

TEST(IndexBuilderTest, MultipleDocumentsGetDistinctDocIds) {
  XmlIndex index = BuildIndexFromDocs({{"one.xml", "<r><t>karen</t></r>"},
                                       {"two.xml", "<r><t>karen</t></r>"}});
  EXPECT_EQ(index.catalog.document_count(), 2u);
  const PostingList* list = index.inverted.Find("karen");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->size(), 2u);
  EXPECT_EQ(list->IdAt(0).doc_id(), 0u);
  EXPECT_EQ(list->IdAt(1).doc_id(), 1u);
}

TEST(IndexBuilderTest, DocumentLookupCoversExactlyTheIndexRange) {
  // A shard or segment built from global document 5 holds ids [5, 7):
  // the range comes from the index itself, and every id outside it is
  // unknown rather than an out-of-bounds catalog read.
  IndexBuilderOptions options;
  options.first_doc_id = 5;
  IndexBuilder builder(options);
  ASSERT_TRUE(builder.AddDocument("<r><t>karen</t></r>", "five.xml").ok());
  ASSERT_TRUE(builder.AddDocument("<r><t>mike</t></r>", "six.xml").ok());
  Result<XmlIndex> index = std::move(builder).Finalize();
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->DocBase(), 5u);
  for (uint32_t below : {0u, 1u, 4u}) {
    EXPECT_EQ(index->Document(below), nullptr) << below;
  }
  ASSERT_NE(index->Document(5), nullptr);
  EXPECT_EQ(index->Document(5)->name, "five.xml");
  ASSERT_NE(index->Document(6), nullptr);
  EXPECT_EQ(index->Document(6)->name, "six.xml");
  for (uint32_t past : {7u, 8u, UINT32_MAX}) {
    EXPECT_EQ(index->Document(past), nullptr) << past;
  }

  // An index without rows holds no documents and starts at 0.
  XmlIndex empty;
  EXPECT_EQ(empty.DocBase(), 0u);
  EXPECT_EQ(empty.Document(0), nullptr);
}

TEST(IndexBuilderTest, CatalogTracksStats) {
  XmlIndex index = BuildIndexFromXml(data::Figure2aXml(), "uni.xml");
  const Catalog::DocumentInfo& doc = index.catalog.document(0);
  EXPECT_EQ(doc.name, "uni.xml");
  // 1 Dept + 1 Dept_Name + 2 Area + 2 Name + 2 Courses + 4 Course +
  // 4 Name + 4 Students + 11 Student = 31 elements.
  EXPECT_EQ(doc.element_count, 31u);
  EXPECT_GE(doc.max_depth, 6u);       // Dept/Area/Courses/Course/Students/Student/text
  EXPECT_GT(doc.text_bytes, 0u);
}

TEST(IndexBuilderTest, NodeStoreRowsAscendWithLeafValues) {
  // Rows arrive as elements close (children before parents); the store
  // must hold them in document order, each valued row carrying its
  // element's text.
  XmlIndex index = BuildIndexFromXml(
      "<r><a><b>x</b><c>y</c></a><d>z</d><a><b>w</b></a></r>");
  std::vector<std::string> ids;
  std::vector<std::string> valued;
  index.nodes.ForEach([&](DeweySpan id, const NodeInfo& info) {
    ids.push_back(id.ToDeweyId().ToString());
    if (info.value_id != kNoValue) {
      valued.push_back(ids.back() + "=" + index.nodes.Value(info.value_id));
    }
  });
  EXPECT_EQ(ids, (std::vector<std::string>{"d0.0", "d0.0.0", "d0.0.0.0",
                                           "d0.0.0.1", "d0.0.1", "d0.0.2",
                                           "d0.0.2.0"}));
  EXPECT_EQ(valued, (std::vector<std::string>{"d0.0.0.0=x", "d0.0.0.1=y",
                                              "d0.0.1=z", "d0.0.2.0=w"}));
  EXPECT_EQ(index.nodes.ValuedRowCount(), 4u);

  // A bigger document: rows ascend strictly, and every row is found again
  // by binary search.
  XmlIndex figure = BuildIndexFromXml(data::Figure2aXml());
  ASSERT_GT(figure.nodes.ValuedRowCount(), 0u);
  for (size_t row = 0; row < figure.nodes.size(); ++row) {
    if (row > 0) {
      EXPECT_LT(figure.nodes.IdAt(row - 1).Compare(figure.nodes.IdAt(row)),
                0);
    }
    EXPECT_EQ(figure.nodes.Find(figure.nodes.IdAt(row)),
              &figure.nodes.InfoAt(row));
  }
}

TEST(IndexBuilderTest, ParseErrorPropagatesAndBuilderSurvives) {
  IndexBuilder builder;
  EXPECT_FALSE(builder.AddDocument("<a><b></a>", "bad.xml").ok());
  EXPECT_TRUE(builder.AddDocument("<a><t>ok</t></a>", "good.xml").ok());
  Result<XmlIndex> index = std::move(builder).Finalize();
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->catalog.document_count(), 2u);  // bad doc keeps its slot
  ASSERT_NE(index->inverted.Find("ok"), nullptr);
  EXPECT_EQ(index->inverted.Find("ok")->IdAt(0).doc_id(), 1u);
}

TEST(IndexBuilderTest, FinalizeTwiceFails) {
  IndexBuilder builder;
  ASSERT_TRUE(builder.AddDocument("<a><t>x</t></a>", "a.xml").ok());
  Result<XmlIndex> first = std::move(builder).Finalize();
  ASSERT_TRUE(first.ok());
  Result<XmlIndex> second = std::move(builder).Finalize();
  EXPECT_FALSE(second.ok());
}

TEST(IndexBuilderTest, LongValuesNotStoredButIndexed) {
  IndexBuilderOptions options;
  options.max_stored_value_bytes = 8;
  IndexBuilder builder(options);
  ASSERT_TRUE(
      builder.AddDocument("<r><t>exceedingly verbose value</t></r>", "a.xml")
          .ok());
  Result<XmlIndex> index = std::move(builder).Finalize();
  ASSERT_TRUE(index.ok());
  EXPECT_NE(index->inverted.Find("verbos"), nullptr);
  EXPECT_EQ(index->nodes.ValuedRowCount(), 0u);  // too long for the pool
}

}  // namespace
}  // namespace gks
