#include "core/query.h"

#include "gtest/gtest.h"

namespace gks {
namespace {

TEST(QueryTest, ParsesPlainKeywords) {
  Result<Query> query = Query::Parse("karen mike student");
  ASSERT_TRUE(query.ok());
  ASSERT_EQ(query->size(), 3u);
  EXPECT_EQ(query->atoms()[0].raw, "karen");
  EXPECT_EQ(query->atoms()[0].terms, std::vector<std::string>{"karen"});
  EXPECT_EQ(query->atoms()[2].terms, std::vector<std::string>{"student"});
}

TEST(QueryTest, QuotedPhraseIsOneAtom) {
  Result<Query> query = Query::Parse("\"Peter Buneman\" \"Wenfei Fan\" xml");
  ASSERT_TRUE(query.ok());
  ASSERT_EQ(query->size(), 3u);
  EXPECT_EQ(query->atoms()[0].raw, "Peter Buneman");
  EXPECT_EQ(query->atoms()[0].terms,
            (std::vector<std::string>{"peter", "buneman"}));
}

TEST(QueryTest, StopWordAtomsDropped) {
  Result<Query> query = Query::Parse("the karen of");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->size(), 1u);
}

TEST(QueryTest, KeywordsAreStemmed) {
  Result<Query> query = Query::Parse("Students Databases");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->atoms()[0].terms, std::vector<std::string>{"student"});
  EXPECT_EQ(query->atoms()[1].terms, std::vector<std::string>{"databas"});
}

TEST(QueryTest, RejectsEmptyAndAllStopWords) {
  EXPECT_FALSE(Query::Parse("").ok());
  EXPECT_FALSE(Query::Parse("the of and").ok());
  EXPECT_FALSE(Query::Parse("   ").ok());
}

TEST(QueryTest, RejectsUnterminatedQuote) {
  EXPECT_FALSE(Query::Parse("\"Peter Buneman").ok());
}

TEST(QueryTest, RejectsOver64Keywords) {
  std::string text;
  for (int i = 0; i < 65; ++i) text += "k" + std::to_string(i) + " ";
  EXPECT_FALSE(Query::Parse(text).ok());
}

TEST(QueryTest, FullMask) {
  Result<Query> query = Query::Parse("a1 b2 c3");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->full_mask(), 0b111ull);
}

TEST(QueryTest, FromKeywordsAndToString) {
  Result<Query> query = Query::FromKeywords({"Data Mining", "karen"});
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->size(), 2u);
  EXPECT_EQ(query->ToString(), "\"Data Mining\" karen");
}

}  // namespace
}  // namespace gks
