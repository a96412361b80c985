#include "xml/sax_parser.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace gks::xml {
namespace {

/// Records events as compact strings: "+tag", "-tag", "'text".
class RecordingHandler : public SaxHandler {
 public:
  Status StartElement(std::string_view name,
                      const std::vector<XmlAttribute>& attributes) override {
    std::string event = "+" + std::string(name);
    for (const auto& attr : attributes) {
      event += " " + attr.name + "=" + attr.value;
    }
    events.push_back(event);
    return Status::OK();
  }
  Status EndElement(std::string_view name) override {
    events.push_back("-" + std::string(name));
    return Status::OK();
  }
  Status Characters(std::string_view text) override {
    events.push_back("'" + std::string(text));
    return Status::OK();
  }
  std::vector<std::string> events;
};

TEST(SaxParserTest, EventSequenceExact) {
  RecordingHandler handler;
  ASSERT_TRUE(ParseXml("<a><b k=\"v\">hi</b><c/></a>", &handler).ok());
  std::vector<std::string> expected = {"+a", "+b k=v", "'hi",
                                       "-b", "+c",     "-c",
                                       "-a"};
  EXPECT_EQ(handler.events, expected);
}

TEST(SaxParserTest, WhitespaceTextSkippedByDefault) {
  RecordingHandler handler;
  ASSERT_TRUE(ParseXml("<a>\n  <b>x</b>\n</a>", &handler).ok());
  EXPECT_EQ(handler.events,
            (std::vector<std::string>{"+a", "+b", "'x", "-b", "-a"}));
}

TEST(SaxParserTest, WhitespaceTextKeptWhenRequested) {
  RecordingHandler handler;
  SaxOptions options;
  options.skip_whitespace_text = false;
  ASSERT_TRUE(ParseXml("<a> <b>x</b></a>", &handler, options).ok());
  EXPECT_EQ(handler.events,
            (std::vector<std::string>{"+a", "' ", "+b", "'x", "-b", "-a"}));
}

TEST(SaxParserTest, RejectsMismatchedTags) {
  RecordingHandler handler;
  Status status = ParseXml("<a><b></a></b>", &handler);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("mismatched"), std::string::npos);
}

TEST(SaxParserTest, RejectsUnclosedRoot) {
  RecordingHandler handler;
  EXPECT_FALSE(ParseXml("<a><b></b>", &handler).ok());
}

TEST(SaxParserTest, RejectsMultipleRoots) {
  RecordingHandler handler;
  EXPECT_FALSE(ParseXml("<a/><b/>", &handler).ok());
}

TEST(SaxParserTest, RejectsEmptyDocument) {
  RecordingHandler handler;
  EXPECT_FALSE(ParseXml("", &handler).ok());
  EXPECT_FALSE(ParseXml("<!-- only a comment -->", &handler).ok());
}

TEST(SaxParserTest, RejectsStrayEndTag) {
  RecordingHandler handler;
  EXPECT_FALSE(ParseXml("</a>", &handler).ok());
}

TEST(SaxParserTest, HandlerErrorAbortsParse) {
  class FailingHandler : public SaxHandler {
    Status Characters(std::string_view) override {
      return Status::NotSupported("no text allowed");
    }
  };
  FailingHandler handler;
  Status status = ParseXml("<a>boom</a>", &handler);
  EXPECT_EQ(status.code(), StatusCode::kNotSupported);
}

TEST(SaxParserTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/gks_sax_test.xml";
  ASSERT_TRUE(WriteStringToFile(path, "<a><b>x</b></a>").ok());
  RecordingHandler handler;
  ASSERT_TRUE(ParseXmlFile(path, &handler).ok());
  EXPECT_EQ(handler.events,
            (std::vector<std::string>{"+a", "+b", "'x", "-b", "-a"}));
  std::string contents;
  ASSERT_TRUE(ReadFileToString(path, &contents).ok());
  EXPECT_EQ(contents, "<a><b>x</b></a>");
}

TEST(SaxParserTest, MissingFileIsNotFound) {
  RecordingHandler handler;
  EXPECT_EQ(ParseXmlFile("/nonexistent/gks.xml", &handler).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace gks::xml
