#include "common/json_value.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace gks {
namespace {

TEST(JsonValueTest, ParsesScalars) {
  auto null = JsonValue::Parse("null");
  ASSERT_TRUE(null.ok());
  EXPECT_TRUE(null->is_null());

  auto yes = JsonValue::Parse("true");
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(yes->is_bool());
  EXPECT_TRUE(yes->GetBool());

  auto no = JsonValue::Parse("false");
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(no->GetBool(true));

  auto number = JsonValue::Parse("42");
  ASSERT_TRUE(number.ok());
  EXPECT_TRUE(number->is_int());
  EXPECT_EQ(number->GetInt(), 42);
  EXPECT_DOUBLE_EQ(number->GetDouble(), 42.0);

  auto negative = JsonValue::Parse("-7");
  ASSERT_TRUE(negative.ok());
  EXPECT_EQ(negative->GetInt(), -7);

  auto real = JsonValue::Parse("2.5e1");
  ASSERT_TRUE(real.ok());
  EXPECT_FALSE(real->is_int());
  EXPECT_TRUE(real->is_number());
  EXPECT_DOUBLE_EQ(real->GetDouble(), 25.0);
  EXPECT_EQ(real->GetInt(), 25);  // lenient cross-kind read

  auto text = JsonValue::Parse("\"hello\"");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text->GetString(), "hello");
}

TEST(JsonValueTest, ParsesStringEscapes) {
  auto value = JsonValue::Parse(R"("a\"b\\c\/d\n\t\r\b\f")");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(value->GetString(), "a\"b\\c/d\n\t\r\b\f");

  // \uXXXX, including a surrogate pair (𝄞 U+1D11E).
  auto unicode = JsonValue::Parse(R"("é A 𝄞")");
  ASSERT_TRUE(unicode.ok()) << unicode.status().ToString();
  EXPECT_EQ(unicode->GetString(), "\xc3\xa9 A \xf0\x9d\x84\x9e");

  // Lone high surrogate is malformed.
  EXPECT_FALSE(JsonValue::Parse(R"("\ud834")").ok());
  // Unknown escape is malformed.
  EXPECT_FALSE(JsonValue::Parse(R"("\q")").ok());
  // Unterminated string.
  EXPECT_FALSE(JsonValue::Parse("\"abc").ok());
}

TEST(JsonValueTest, ParsesArraysAndObjects) {
  auto value = JsonValue::Parse(R"({"a": [1, 2, 3], "b": {"c": true}})");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  ASSERT_TRUE(value->is_object());
  const JsonValue* a = value->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->size(), 3u);
  EXPECT_EQ(a->items()[1].GetInt(), 2);
  const JsonValue* b = value->Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_NE(b->Find("c"), nullptr);
  EXPECT_TRUE(b->Find("c")->GetBool());
  EXPECT_EQ(value->Find("missing"), nullptr);
  EXPECT_TRUE(value->Has("a"));
  EXPECT_FALSE(value->Has("z"));

  auto empty_array = JsonValue::Parse("[]");
  ASSERT_TRUE(empty_array.ok());
  EXPECT_EQ(empty_array->size(), 0u);
  auto empty_object = JsonValue::Parse("{}");
  ASSERT_TRUE(empty_object.ok());
  EXPECT_TRUE(empty_object->members().empty());
}

TEST(JsonValueTest, RejectsMalformedInput) {
  for (const char* bad : {"", "   ", "{", "[1,]", "{\"a\":}", "{\"a\" 1}",
                          "tru", "nul", "01", "1.", "+1", "--1", "\x01",
                          "{\"a\":1,}", "[1 2]", "{1: 2}"}) {
    EXPECT_FALSE(JsonValue::Parse(bad).ok()) << "input: " << bad;
  }
  // Trailing garbage after a complete value.
  EXPECT_FALSE(JsonValue::Parse("1 2").ok());
  EXPECT_FALSE(JsonValue::Parse("{} x").ok());
  // Error messages carry a byte offset.
  auto error = JsonValue::Parse("[1, ?]");
  ASSERT_FALSE(error.ok());
  EXPECT_NE(error.status().message().find("at byte"), std::string::npos)
      << error.status().ToString();
}

TEST(JsonValueTest, EnforcesDepthLimit) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  deep += "1";
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_FALSE(JsonValue::Parse(deep).ok());          // default max_depth=64
  EXPECT_TRUE(JsonValue::Parse(deep, 128).ok());      // raised limit
  std::string shallow = "[[[1]]]";
  EXPECT_TRUE(JsonValue::Parse(shallow).ok());
  EXPECT_FALSE(JsonValue::Parse(shallow, 2).ok());
}

TEST(JsonValueTest, LastDuplicateKeyWinsAndMembersIterateInKeyOrder) {
  auto value = JsonValue::Parse(R"({"b":1,"a":2,"c":{"x":1},"b":3,"c":4})");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(value->Find("b")->GetInt(), 3);
  EXPECT_EQ(value->Find("c")->GetInt(), 4);  // an object replaced by a number
  std::vector<std::string> keys;
  for (const auto& [key, member] : value->members()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(JsonValueTest, LenientAccessorsReturnDefaults) {
  auto value = JsonValue::Parse("{\"n\": 3}");
  ASSERT_TRUE(value.ok());
  EXPECT_FALSE(value->GetBool());          // wrong kind → default
  EXPECT_EQ(value->GetInt(-1), -1);        // object is not a number
  EXPECT_EQ(value->GetString(), "");       // nor a string
  EXPECT_EQ(value->size(), 0u);            // nor an array
  EXPECT_TRUE(value->items().empty());
  JsonValue null;
  EXPECT_EQ(null.Find("x"), nullptr);
  EXPECT_TRUE(null.members().empty());
}

TEST(JsonValueTest, IntBoundariesAndBigNumbers) {
  auto max = JsonValue::Parse("9223372036854775807");
  ASSERT_TRUE(max.ok());
  EXPECT_TRUE(max->is_int());
  EXPECT_EQ(max->GetInt(), INT64_MAX);
  // Out of int64 range still parses — as a double.
  auto big = JsonValue::Parse("18446744073709551616");
  ASSERT_TRUE(big.ok());
  EXPECT_TRUE(big->is_number());
  EXPECT_FALSE(big->is_int());
}

TEST(JsonValueTest, MakeHelpers) {
  EXPECT_TRUE(JsonValue::MakeBool(true).GetBool());
  EXPECT_EQ(JsonValue::MakeInt(5).GetInt(), 5);
  EXPECT_DOUBLE_EQ(JsonValue::MakeDouble(1.5).GetDouble(), 1.5);
  EXPECT_EQ(JsonValue::MakeString("s").GetString(), "s");
}

TEST(JsonValueTest, RoundTripsWireShapedResponses) {
  // The exact shape WireResponseBuilder emits (see docs/SERVER.md).
  const char* line =
      R"({"ok":true,"id":7,"epoch":2,"s":1,"merged_list_size":12,)"
      R"("candidates":4,"lce":2,"elapsed_ms":0.42,)"
      R"("nodes":[{"id":"1.3.2","doc":"dblp.xml","lce":2,)"
      R"("keywords":["database","xml"],"rank":0.91}],)"
      R"("di":[{"value":"author","path":"/dblp/article/author",)"
      R"("weight":0.5,"support":3}]})";
  auto value = JsonValue::Parse(line);
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_TRUE(value->Find("ok")->GetBool());
  EXPECT_EQ(value->Find("epoch")->GetInt(), 2);
  ASSERT_EQ(value->Find("nodes")->size(), 1u);
  const JsonValue& node = value->Find("nodes")->items()[0];
  EXPECT_EQ(node.Find("id")->GetString(), "1.3.2");
  EXPECT_EQ(node.Find("keywords")->size(), 2u);
  EXPECT_DOUBLE_EQ(node.Find("rank")->GetDouble(), 0.91);
}

TEST(JsonReaderTest, WalksMembersInTextOrder) {
  JsonReader reader(
      R"( {"z": [1, -2.5, "a\"b\u00e9"], "a": {"t": true, "n": null}} )");
  std::string key;
  std::string text;
  ASSERT_EQ(reader.Peek(), JsonReader::Kind::kObject);
  ASSERT_TRUE(reader.BeginObject());
  ASSERT_TRUE(reader.NextMember(&key));
  EXPECT_EQ(key, "z");
  ASSERT_TRUE(reader.BeginArray());
  ASSERT_TRUE(reader.NextItem());
  JsonReader::Number number;
  ASSERT_TRUE(reader.ReadNumber(&number));
  EXPECT_TRUE(number.is_int);
  EXPECT_EQ(number.int_value, 1);
  ASSERT_TRUE(reader.NextItem());
  ASSERT_EQ(reader.Peek(), JsonReader::Kind::kNumber);
  ASSERT_TRUE(reader.ReadNumber(&number));
  EXPECT_FALSE(number.is_int);
  EXPECT_DOUBLE_EQ(number.double_value, -2.5);
  ASSERT_TRUE(reader.NextItem());
  ASSERT_TRUE(reader.ReadString(&text));
  EXPECT_EQ(text, "a\"b\xc3\xa9");
  EXPECT_FALSE(reader.NextItem());  // the closing bracket
  ASSERT_TRUE(reader.NextMember(&key));
  EXPECT_EQ(key, "a");
  ASSERT_TRUE(reader.BeginObject());
  ASSERT_TRUE(reader.NextMember(&key));
  bool flag = false;
  ASSERT_EQ(reader.Peek(), JsonReader::Kind::kBool);
  ASSERT_TRUE(reader.ReadBool(&flag));
  EXPECT_TRUE(flag);
  ASSERT_TRUE(reader.NextMember(&key));
  EXPECT_EQ(reader.Peek(), JsonReader::Kind::kNull);
  ASSERT_TRUE(reader.ReadNull());
  EXPECT_FALSE(reader.NextMember(&key));
  EXPECT_FALSE(reader.NextMember(&key));  // the outer closing brace
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.Finish());
}

TEST(JsonReaderTest, ErrorsAreStickyAndCarryTheirOffset) {
  JsonReader reader(R"({"a": 01, "b": 2})");
  std::string key;
  ASSERT_TRUE(reader.BeginObject());
  ASSERT_TRUE(reader.NextMember(&key));
  JsonReader::Number number;
  EXPECT_FALSE(reader.ReadNumber(&number));
  EXPECT_EQ(reader.status().message(), "json: leading zero in number at byte 6");
  EXPECT_FALSE(reader.NextMember(&key));
  EXPECT_EQ(reader.Peek(), JsonReader::Kind::kInvalid);
  EXPECT_FALSE(reader.Finish());
  EXPECT_EQ(reader.status().message(), "json: leading zero in number at byte 6");

  // A read of the wrong kind is an error, not a conversion.
  JsonReader wrong_kind("7");
  std::string text;
  EXPECT_FALSE(wrong_kind.ReadString(&text));
  EXPECT_FALSE(wrong_kind.ok());
}

TEST(JsonReaderTest, SkipAcceptsExactlyWhatParseAccepts) {
  // Parse reads every value; Skip scans past it. Both must agree on every
  // input, error message and offset included.
  for (const char* text :
       {"", "   ", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "nul", "01",
        "1.", "+1", "--1", "\x01", "{\"a\":1,}", "[1 2]", "{1: 2}", "1 2",
        "{} x", "[1, ?]", R"("\ud834")", R"("\udd1e")", R"("\q")", "\"abc",
        R"("\u12")", R"("a\u00e9\ud834\udd1e")", "[[[[1]]]]", "[[[[]]]]",
        R"({"a":[1,{"b":"\t"}],"c":-0.5e+3,"d":[true,false,null]})",
        "18446744073709551616", "-9223372036854775808", "\"\x7f\xff\"",
        " [ ] ", "{\"a\":{\"b\":[{},[]]}}"}) {
    SCOPED_TRACE(text);
    Result<JsonValue> parsed = JsonValue::Parse(text, 3);
    JsonReader reader(text, 3);
    const bool skipped = reader.Skip() && reader.Finish();
    EXPECT_EQ(skipped, parsed.ok());
    if (!parsed.ok()) {
      EXPECT_EQ(reader.status(), parsed.status());
    }
  }
}

}  // namespace
}  // namespace gks
