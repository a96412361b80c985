#include "common/json_writer.h"

#include <cstdint>
#include <string>

#include "gtest/gtest.h"

namespace gks {
namespace {

TEST(JsonWriterTest, IntegersAreExactAtTheirLimits) {
  JsonWriter json;
  json.BeginArray();
  json.UInt(0).UInt(1).UInt(UINT64_MAX);
  json.Int(0).Int(-1).Int(INT64_MAX).Int(INT64_MIN);
  json.EndArray();
  EXPECT_EQ(json.str(),
            "[0,1,18446744073709551615,0,-1,9223372036854775807,"
            "-9223372036854775808]");
}

TEST(JsonWriterTest, ControlBytesEscapeAsTheirCodes) {
  std::string controls;
  for (int c = 0; c < 0x20; ++c) controls.push_back(static_cast<char>(c));
  JsonWriter json;
  json.String(controls);
  EXPECT_EQ(json.str(),
            "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
            "\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f"
            "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
            "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\"");
}

TEST(JsonWriterTest, QuoteAndBackslashInsideARun) {
  JsonWriter json;
  json.BeginObject();
  json.Key("k\"ey").String("ab\"cd\\ef");
  json.Key("edges").String("\"mid\\");
  json.EndObject();
  EXPECT_EQ(json.str(),
            R"({"k\"ey":"ab\"cd\\ef","edges":"\"mid\\"})");
}

TEST(JsonWriterTest, Utf8AndHighBytesPassThrough) {
  // é, €, U+1D11E, DEL and a stray continuation byte: none is escaped.
  const std::string text = "\xc3\xa9 \xe2\x82\xac \xf0\x9d\x84\x9e \x7f \x80";
  JsonWriter json;
  json.String(text);
  EXPECT_EQ(json.str(), "\"" + text + "\"");
  JsonWriter empty;
  empty.String("");
  EXPECT_EQ(empty.str(), "\"\"");
}

}  // namespace
}  // namespace gks
