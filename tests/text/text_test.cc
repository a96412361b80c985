#include <cctype>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "text/analyzer.h"
#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace gks::text {
namespace {

using Tokens = std::vector<std::string>;

TEST(TokenizerTest, LowercasesAndSplits) {
  EXPECT_EQ(Tokenize("Data Mining, 2001!"), (Tokens{"data", "mining", "2001"}));
}

TEST(TokenizerTest, ApostrophesDropWithinWords) {
  EXPECT_EQ(Tokenize("Chair's Message"), (Tokens{"chairs", "message"}));
}

TEST(TokenizerTest, NumbersAreTokens) {
  EXPECT_EQ(Tokenize("vol. 35 no 4"), (Tokens{"vol", "35", "no", "4"}));
}

TEST(TokenizerTest, EmptyAndPunctuationOnly) {
  EXPECT_EQ(Tokenize(""), Tokens{});
  EXPECT_EQ(Tokenize("... -- !!"), Tokens{});
}

TEST(TokenizerTest, EveryByteFoldsLikeCtype) {
  // The fold table against <cctype> in the "C" locale, byte by byte:
  // between two letters a byte either joins the word (lower-cased), is
  // dropped (the apostrophe) or splits it.
  for (int byte = 0; byte < 256; ++byte) {
    const char c = static_cast<char>(byte);
    Tokens want;
    if (std::isalnum(byte)) {
      want = {std::string("x") + static_cast<char>(std::tolower(byte)) + "y"};
    } else if (c == '\'') {
      want = {"xy"};
    } else {
      want = {"x", "y"};
    }
    EXPECT_EQ(Tokenize(std::string("X") + c + "Y"), want) << byte;
  }
}

TEST(TokenizerTest, HyphenatedNamesSplit) {
  EXPECT_EQ(Tokenize("Jean-Marc Cadiou"), (Tokens{"jean", "marc", "cadiou"}));
}

TEST(StopWordsTest, CommonWordsAreStopWords) {
  for (const char* word : {"the", "a", "of", "and", "is", "with"}) {
    EXPECT_TRUE(IsStopWord(word)) << word;
  }
}

TEST(StopWordsTest, ContentWordsAreNot) {
  for (const char* word : {"database", "karen", "xml", "2001", "mining"}) {
    EXPECT_FALSE(IsStopWord(word)) << word;
  }
}

TEST(StopWordsTest, ListIsSortedForBinarySearch) {
  // IsStopWord relies on binary search; probing boundary entries guards
  // against accidental unsorted insertions.
  EXPECT_TRUE(IsStopWord("a"));
  EXPECT_TRUE(IsStopWord("yourselves"));
  EXPECT_GT(StopWordCount(), 100u);
}

struct StemCase {
  const char* word;
  const char* stem;
};

class PorterStemmerTest : public ::testing::TestWithParam<StemCase> {};

TEST_P(PorterStemmerTest, MatchesReference) {
  EXPECT_EQ(PorterStem(GetParam().word), GetParam().stem);
}

// Expected stems from Martin Porter's reference vocabulary output.
INSTANTIATE_TEST_SUITE_P(
    ReferencePairs, PorterStemmerTest,
    ::testing::Values(
        StemCase{"caresses", "caress"}, StemCase{"ponies", "poni"},
        StemCase{"ties", "ti"}, StemCase{"caress", "caress"},
        StemCase{"cats", "cat"}, StemCase{"feed", "feed"},
        StemCase{"agreed", "agre"}, StemCase{"plastered", "plaster"},
        StemCase{"bled", "bled"}, StemCase{"motoring", "motor"},
        StemCase{"sing", "sing"}, StemCase{"conflated", "conflat"},
        StemCase{"troubled", "troubl"}, StemCase{"sized", "size"},
        StemCase{"hopping", "hop"}, StemCase{"tanned", "tan"},
        StemCase{"falling", "fall"}, StemCase{"hissing", "hiss"},
        StemCase{"fizzed", "fizz"}, StemCase{"failing", "fail"},
        StemCase{"filing", "file"}, StemCase{"happy", "happi"},
        StemCase{"sky", "sky"}, StemCase{"relational", "relat"},
        StemCase{"conditional", "condit"}, StemCase{"rational", "ration"},
        StemCase{"valenci", "valenc"}, StemCase{"hesitanci", "hesit"},
        StemCase{"digitizer", "digit"}, StemCase{"conformabli", "conform"},
        StemCase{"radicalli", "radic"}, StemCase{"differentli", "differ"},
        StemCase{"vileli", "vile"}, StemCase{"analogousli", "analog"},
        StemCase{"vietnamization", "vietnam"}, StemCase{"predication", "predic"},
        StemCase{"operator", "oper"}, StemCase{"feudalism", "feudal"},
        StemCase{"decisiveness", "decis"}, StemCase{"hopefulness", "hope"},
        StemCase{"callousness", "callous"}, StemCase{"formaliti", "formal"},
        StemCase{"sensitiviti", "sensit"}, StemCase{"sensibiliti", "sensibl"},
        StemCase{"triplicate", "triplic"}, StemCase{"formative", "form"},
        StemCase{"formalize", "formal"}, StemCase{"electriciti", "electr"},
        StemCase{"electrical", "electr"}, StemCase{"hopeful", "hope"},
        StemCase{"goodness", "good"}, StemCase{"revival", "reviv"},
        StemCase{"allowance", "allow"}, StemCase{"inference", "infer"},
        StemCase{"airliner", "airlin"}, StemCase{"gyroscopic", "gyroscop"},
        StemCase{"adjustable", "adjust"}, StemCase{"defensible", "defens"},
        StemCase{"irritant", "irrit"}, StemCase{"replacement", "replac"},
        StemCase{"adjustment", "adjust"}, StemCase{"dependent", "depend"},
        StemCase{"adoption", "adopt"}, StemCase{"homologou", "homolog"},
        StemCase{"communism", "commun"}, StemCase{"activate", "activ"},
        StemCase{"angulariti", "angular"}, StemCase{"homologous", "homolog"},
        StemCase{"effective", "effect"}, StemCase{"bowdlerize", "bowdler"},
        StemCase{"probate", "probat"}, StemCase{"rate", "rate"},
        StemCase{"cease", "ceas"}, StemCase{"controll", "control"},
        StemCase{"roll", "roll"}, StemCase{"databases", "databas"},
        StemCase{"database", "databas"}, StemCase{"student", "student"},
        StemCase{"students", "student"}, StemCase{"mining", "mine"},
        StemCase{"be", "be"}, StemCase{"i", "i"}));

TEST(PorterStemmerTest, ShortWordsUnchanged) {
  EXPECT_EQ(PorterStem("x"), "x");
  EXPECT_EQ(PorterStem("at"), "at");
}

TEST(AnalyzerTest, FullPipeline) {
  EXPECT_EQ(Analyze("The Databases of the Students"),
            (Tokens{"databas", "student"}));
}

TEST(AnalyzerTest, KeepStopwordsOption) {
  AnalyzerOptions options;
  options.remove_stopwords = false;
  EXPECT_EQ(Analyze("The Databases", options), (Tokens{"the", "databas"}));
}

TEST(AnalyzerTest, NoStemOption) {
  AnalyzerOptions options;
  options.stem = false;
  EXPECT_EQ(Analyze("Databases", options), (Tokens{"databases"}));
}

TEST(AnalyzerTest, AnalyzeTermDropsStopWord) {
  EXPECT_EQ(AnalyzeTerm("the"), "");
  EXPECT_EQ(AnalyzeTerm("Students"), "student");
}

TEST(AnalyzerTest, QueryAndIndexAgree) {
  // A user typing any morphological variant must match the indexed stem.
  EXPECT_EQ(Analyze("student"), Analyze("Students"));
  EXPECT_EQ(Analyze("mining"), Analyze("mine"));
}

}  // namespace
}  // namespace gks::text
