#include "server/protocol.h"

#include <string>

#include "gtest/gtest.h"
#include "common/json_value.h"
#include "core/searcher.h"
#include "tests/test_util.h"

namespace gks {
namespace {

using testing::BuildIndexFromXml;
using testing::SearchOrDie;

TEST(ParseWireRequestTest, ParsesQueryWithDefaults) {
  auto request = ParseWireRequest(R"({"query": "database systems"})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_FALSE(request->is_admin);
  EXPECT_EQ(request->query, "database systems");
  EXPECT_FALSE(request->has_id);
  EXPECT_FALSE(request->explain);
  SearchOptions defaults;
  EXPECT_EQ(request->options.s, defaults.s);
  EXPECT_EQ(request->options.max_results, defaults.max_results);
  EXPECT_FALSE(request->options.suggest_refinements);
}

TEST(ParseWireRequestTest, ParsesAllQueryFields) {
  auto request = ParseWireRequest(
      R"({"query":"xml","s":2,"top":5,"di":3,"refine":true,"id":9})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->options.s, 2u);
  EXPECT_EQ(request->options.max_results, 5u);
  EXPECT_EQ(request->options.di_top_m, 3u);
  EXPECT_TRUE(request->options.suggest_refinements);
  EXPECT_TRUE(request->has_id);
  EXPECT_FALSE(request->id_is_string);
  EXPECT_EQ(request->id_int, 9);
}

TEST(ParseWireRequestTest, ShardModeKeepsTopAsTheDescribeLimit) {
  // A partial ships every node, so `top` must not trim the search; it
  // only bounds which nodes carry display strings.
  auto shard = ParseWireRequest(R"({"query":"xml","top":7,"shard":true})");
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  EXPECT_EQ(shard->options.max_results, 0u);
  EXPECT_EQ(shard->describe_top, 7u);
  EXPECT_FALSE(shard->options.discover_di);
  auto client = ParseWireRequest(R"({"query":"xml","top":7})");
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(client->options.max_results, 7u);
  EXPECT_EQ(client->describe_top, 0u);
}

TEST(ParseWireRequestTest, ExplainForcesRefinements) {
  auto request = ParseWireRequest(R"({"query":"xml","explain":true})");
  ASSERT_TRUE(request.ok());
  EXPECT_TRUE(request->explain);
  EXPECT_TRUE(request->options.suggest_refinements);
}

TEST(ParseWireRequestTest, ParsesStringId) {
  auto request = ParseWireRequest(R"({"query":"xml","id":"req-1"})");
  ASSERT_TRUE(request.ok());
  EXPECT_TRUE(request->has_id);
  EXPECT_TRUE(request->id_is_string);
  EXPECT_EQ(request->id_string, "req-1");
}

TEST(ParseWireRequestTest, ParsesAdminVerbs) {
  struct Case { const char* line; AdminVerb verb; };
  for (const Case& c : {Case{R"({"cmd":"health"})", AdminVerb::kHealth},
                        Case{R"({"cmd":"metrics"})", AdminVerb::kMetrics},
                        Case{R"({"cmd":"stats"})", AdminVerb::kStats},
                        Case{R"({"cmd":"reload"})", AdminVerb::kReload},
                        Case{R"({"cmd":"quit"})", AdminVerb::kQuit}}) {
    auto request = ParseWireRequest(c.line);
    ASSERT_TRUE(request.ok()) << c.line;
    EXPECT_TRUE(request->is_admin);
    EXPECT_EQ(request->verb, c.verb) << c.line;
  }
  auto reload = ParseWireRequest(R"({"cmd":"reload","path":"/tmp/i.gksidx"})");
  ASSERT_TRUE(reload.ok());
  EXPECT_EQ(reload->reload_path, "/tmp/i.gksidx");
}

TEST(ParseWireRequestTest, RejectsMalformedRequests) {
  // Every rejection maps to bad_request on the wire.
  for (const char* bad : {
           "",                                  // not JSON
           "not json",                          // not JSON
           "[1,2]",                             // not an object
           "{}",                                // no query, no cmd
           R"({"query":""})",                   // empty query
           R"({"query":42})",                   // wrong type
           R"({"query":"x","bogus":1})",        // unknown query field
           R"({"query":"x","s":-1})",           // negative s
           R"({"query":"x","s":1.5})",          // non-integer s
           R"({"query":"x","top":"ten"})",      // wrong type
           R"({"query":"x","refine":1})",       // wrong type
           R"({"query":"x","explain":"y"})",    // wrong type
           R"({"query":"x","id":true})",        // id must be string/int
           R"({"cmd":"dance"})",                // unknown verb
           R"({"cmd":"health","bogus":1})",     // unknown admin field
           R"({"cmd":"health","path":"p"})",    // path without reload
           R"({"cmd":"reload","path":1})",      // path wrong type
       }) {
    auto request = ParseWireRequest(bad);
    EXPECT_FALSE(request.ok()) << "accepted: " << bad;
  }
}

TEST(WireResponseBuilderTest, QueryEnvelopeShape) {
  XmlIndex index = BuildIndexFromXml(
      "<dblp><article><author>Serge Abiteboul</author>"
      "<title>Querying XML</title></article>"
      "<article><author>Peter Buneman</author>"
      "<title>XML data</title></article></dblp>",
      "dblp.xml");
  SearchOptions options;
  options.discover_di = true;
  SearchResponse response = SearchOrDie(index, "xml", options);
  WireRequest request;
  request.has_id = true;
  request.id_int = 7;

  // The answer carries no id (the server caches it); the reply does,
  // right after "ok".
  std::string answer =
      WireResponseBuilder::Query(request, response, index, 42, 1.25);
  EXPECT_EQ(answer.find("\"id\":7"), std::string::npos) << answer;
  std::string line = WireResponseBuilder::WithId(request, answer);
  EXPECT_EQ(line.rfind("{\"ok\":true,\"id\":7,\"epoch\":42,", 0), 0u) << line;
  auto json = JsonValue::Parse(line);
  ASSERT_TRUE(json.ok()) << json.status().ToString() << "\n" << line;
  EXPECT_TRUE(json->Find("ok")->GetBool());
  EXPECT_EQ(json->Find("id")->GetInt(), 7);
  EXPECT_EQ(json->Find("epoch")->GetInt(), 42);
  EXPECT_TRUE(json->Find("elapsed_ms")->is_number());
  ASSERT_NE(json->Find("nodes"), nullptr);
  ASSERT_GT(json->Find("nodes")->size(), 0u);
  const JsonValue& node = json->Find("nodes")->items()[0];
  for (const char* key : {"id", "doc", "lce", "keywords", "rank", "describe"}) {
    EXPECT_TRUE(node.Has(key)) << "node missing " << key;
  }
  EXPECT_EQ(node.Find("doc")->GetString(), "dblp.xml");
  ASSERT_NE(json->Find("di"), nullptr);
  EXPECT_TRUE(json->Find("di")->is_array());
  // explain was not requested → no explain key.
  EXPECT_FALSE(json->Has("explain"));
}

TEST(WireResponseBuilderTest, ExplainAttachesDocument) {
  XmlIndex index = BuildIndexFromXml(
      "<a><b>xml keyword search</b></a>");
  SearchOptions options;
  options.suggest_refinements = true;
  SearchResponse response = SearchOrDie(index, "xml search", options);
  WireRequest request;
  request.explain = true;
  std::string line =
      WireResponseBuilder::Query(request, response, index, 1, 0.1);
  auto json = JsonValue::Parse(line);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  ASSERT_TRUE(json->Has("explain"));
  EXPECT_TRUE(json->Find("explain")->is_object());
}

TEST(WireResponseBuilderTest, ErrorEnvelope) {
  WireRequest request;
  request.has_id = true;
  request.id_is_string = true;
  request.id_string = "abc";
  std::string line = WireResponseBuilder::Error(
      &request, wire_error::kOverloaded, "queue full");
  auto json = JsonValue::Parse(line);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_FALSE(json->Find("ok")->GetBool());
  EXPECT_EQ(json->Find("id")->GetString(), "abc");
  EXPECT_EQ(json->Find("error")->GetString(), "overloaded");
  EXPECT_EQ(json->Find("message")->GetString(), "queue full");

  // Without a request (unparseable line) the id is simply absent.
  std::string anonymous =
      WireResponseBuilder::Error(nullptr, wire_error::kBadRequest, "nope");
  auto parsed = JsonValue::Parse(anonymous);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->Has("id"));
  EXPECT_EQ(parsed->Find("error")->GetString(), "bad_request");
}

TEST(WireResponseBuilderTest, AdminEnvelope) {
  WireRequest request;
  std::string line = WireResponseBuilder::Admin(
      request, "serving", 3, "load", R"({"inflight":0})");
  auto json = JsonValue::Parse(line);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_TRUE(json->Find("ok")->GetBool());
  EXPECT_EQ(json->Find("status")->GetString(), "serving");
  EXPECT_EQ(json->Find("epoch")->GetInt(), 3);
  ASSERT_NE(json->Find("load"), nullptr);
  EXPECT_EQ(json->Find("load")->Find("inflight")->GetInt(), 0);
}

}  // namespace
}  // namespace gks
