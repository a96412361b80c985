// The server's one response cache (server/wire_cache.h): the key and the
// LRU mechanics at the unit level, then through a real server — a
// repeated query comes back byte-identical (frozen elapsed_ms included)
// from the cached bytes, every reply echoes its own request's id, and a
// reload's new epoch never serves the old answer.

#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "common/file_io.h"
#include "common/metrics.h"
#include "index/index_builder.h"
#include "index/serialization.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire_cache.h"

namespace gks {
namespace {

/// The cache key of one wire request line at `epoch`.
std::string KeyOf(const std::string& line, uint64_t epoch) {
  Result<WireRequest> request = ParseWireRequest(line);
  EXPECT_TRUE(request.ok()) << line;
  Result<Query> query = Query::Parse(request->query);
  EXPECT_TRUE(query.ok()) << line;
  return WireResponseCache::MakeKey(*query, *request, epoch);
}

TEST(WireResponseCacheTest, KeyTracksAnswerShapingFieldsAndTheEpoch) {
  const std::string key = KeyOf(R"({"query":"xml data"})", 1);
  // Neither the id nor the query's spelling shapes the answer.
  EXPECT_EQ(KeyOf(R"({"query":"xml data","id":7})", 1), key);
  EXPECT_EQ(KeyOf(R"({"query":"xml  DATA","id":"abc"})", 1), key);

  EXPECT_NE(KeyOf(R"({"query":"xml data"})", 2), key);
  EXPECT_NE(KeyOf(R"({"query":"xml database"})", 1), key);
  for (const char* line : {
           R"({"query":"xml data","s":2})",
           R"({"query":"xml data","top":3})",
           R"({"query":"xml data","top_k":2})",
           R"({"query":"xml data","di":2})",
           R"({"query":"xml data","refine":true})",
           R"({"query":"xml data","plan":"merge"})",
           R"({"query":"xml data","shard":true})",
       }) {
    EXPECT_NE(KeyOf(line, 1), key) << line;
  }
  // On a shard partial `top` becomes the describe limit, and di_contrib
  // attaches the contributions: both still shape the answer.
  const std::string shard = KeyOf(R"({"query":"xml data","shard":true})", 1);
  EXPECT_NE(KeyOf(R"({"query":"xml data","shard":true,"top":3})", 1), shard);
  EXPECT_NE(
      KeyOf(R"({"query":"xml data","shard":true,"di_contrib":true})", 1),
      shard);
}

TEST(WireResponseCacheTest, GetRefreshesAndPutUpdates) {
  WireResponseCache cache(1 << 20);
  const std::string key = "k";
  std::string out;
  EXPECT_FALSE(cache.Get(key, &out));
  cache.Put(key, "first");
  ASSERT_TRUE(cache.Get(key, &out));
  EXPECT_EQ(out, "first");
  cache.Put(key, "second");
  ASSERT_TRUE(cache.Get(key, &out));
  EXPECT_EQ(out, "second");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(WireResponseCacheTest, EvictsLeastRecentlyUsedByBytes) {
  // Each entry costs key + answer bytes; three 42-byte entries in a
  // 100-byte budget force the least recently touched one out.
  WireResponseCache cache(100);
  std::string payload(40, 'x');
  cache.Put("k1", payload);
  cache.Put("k2", payload);
  std::string out;
  ASSERT_TRUE(cache.Get("k1", &out));  // k2 is now the LRU entry
  cache.Put("k3", payload);
  EXPECT_TRUE(cache.Get("k1", &out));
  EXPECT_FALSE(cache.Get("k2", &out));
  EXPECT_TRUE(cache.Get("k3", &out));
  EXPECT_LE(cache.bytes(), 100u);
}

TEST(WireResponseCacheTest, OversizedAnswersAreNotCached) {
  WireResponseCache cache(16);
  cache.Put("k", std::string(64, 'x'));
  std::string out;
  EXPECT_FALSE(cache.Get("k", &out));
  EXPECT_EQ(cache.bytes(), 0u);
}

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

/// Indexes `documents`, one file each, into <TempDir>/gks_wire_cache_<name>/
/// and returns the index path.
std::string WriteIndex(const std::string& name,
                       const std::vector<std::string>& documents) {
  std::string dir = ::testing::TempDir() + "gks_wire_cache_" + name;
  EXPECT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  IndexBuilder builder;
  for (size_t i = 0; i < documents.size(); ++i) {
    std::string file = dir + "/doc" + std::to_string(i) + ".xml";
    EXPECT_TRUE(WriteStringToFile(file, documents[i]).ok());
    EXPECT_TRUE(builder.AddFile(file).ok());
  }
  Result<XmlIndex> index = std::move(builder).Finalize();
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  std::string index_path = dir + "/doc.gksidx";
  EXPECT_TRUE(SaveIndex(*index, index_path).ok());
  return index_path;
}

// The repeated <author> group plus free attributes make the article an
// entity, so DI has something to find and a shard partial carries DI
// contributions.
const char kArticle[] =
    "<article year=\"2001\"><title>alpha beta</title>"
    "<author>gamma</author><author>delta</author></article>";

// Every answer starts with this; a reply's id follows it.
const std::string kOkHead = "{\"ok\":true";

TEST(WireCacheServerTest, RepeatShardFanoutsAreServedFromCache) {
  ServerConfig config;
  config.port = 0;
  GksServer server(config, WriteIndex("shard", {kArticle}));
  ASSERT_TRUE(server.Start().ok());
  Result<ServerConnection> connection =
      ServerConnection::Open("127.0.0.1", server.port());
  ASSERT_TRUE(connection.ok()) << connection.status().ToString();

  const std::string line =
      "{\"query\":\"alpha beta\",\"s\":1,\"shard\":true,\"di_contrib\":true}";
  uint64_t hits_before = CounterValue("gks.server.shard_cache_hits_total");
  Result<std::string> first = connection->CallRaw(line);
  Result<std::string> second = connection->CallRaw(line);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  // Identical bytes including elapsed_ms: the second answer is the
  // stored serialization, not a rebuild.
  EXPECT_EQ(*first, *second);
  EXPECT_NE(first->find("\"di_contrib\""), std::string::npos);
  EXPECT_EQ(CounterValue("gks.server.shard_cache_hits_total"),
            hits_before + 1);

  // A request with an id is a hit on the same id-less answer, and its
  // reply echoes this caller's own id.
  Result<std::string> with_id = connection->CallRaw(
      "{\"id\":7,\"query\":\"alpha beta\",\"s\":1,\"shard\":true,"
      "\"di_contrib\":true}");
  ASSERT_TRUE(with_id.ok()) << with_id.status().ToString();
  EXPECT_EQ(*with_id,
            kOkHead + ",\"id\":7" + first->substr(kOkHead.size()));
  EXPECT_EQ(CounterValue("gks.server.shard_cache_hits_total"),
            hits_before + 2);

  server.RequestShutdown();
  server.Wait();
}

// One plain query asked at once from 4 connections, each with its own
// id: every reply is the cold reply byte for byte but for its id.
TEST(ResponseCacheServerTest, ConcurrentRepeatsEqualTheColdReply) {
  ServerConfig config;
  config.port = 0;
  config.threads = 4;
  GksServer server(config, WriteIndex("concurrent", {kArticle}));
  ASSERT_TRUE(server.Start().ok());

  const std::string fields =
      "\"query\":\"alpha beta\",\"s\":1,\"di\":3,\"refine\":true}";
  Result<ServerConnection> first =
      ServerConnection::Open("127.0.0.1", server.port());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Result<std::string> cold = first->CallRaw("{" + fields);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_EQ(cold->compare(0, kOkHead.size(), kOkHead), 0) << *cold;
  ASSERT_NE(cold->find("\"nodes\":[{"), std::string::npos) << *cold;

  const uint64_t hits_before = CounterValue("gks.search.cache.hits_total");
  constexpr int kClients = 4;
  std::vector<std::string> replies(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &fields, &replies, c] {
      Result<ServerConnection> connection =
          ServerConnection::Open("127.0.0.1", server.port());
      if (!connection.ok()) return;
      Result<std::string> reply = connection->CallRaw(
          "{\"id\":\"client-" + std::to_string(c) + "\"," + fields);
      if (reply.ok()) replies[c] = *reply;
    });
  }
  for (std::thread& client : clients) client.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(replies[c], kOkHead + ",\"id\":\"client-" + std::to_string(c) +
                              "\"" + cold->substr(kOkHead.size()));
  }
  EXPECT_EQ(CounterValue("gks.search.cache.hits_total"),
            hits_before + kClients);

  server.RequestShutdown();
  server.Wait();
}

// A cached empty answer must not outlive the index it came from: after
// the file is rebuilt with a matching document and reloaded, the new
// epoch keys a new entry and the document is found.
TEST(ResponseCacheServerTest, EpochBumpInvalidatesCachedResponses) {
  const std::string index_path = WriteIndex("epoch", {kArticle});
  ServerConfig config;
  config.port = 0;
  GksServer server(config, index_path);
  ASSERT_TRUE(server.Start().ok());
  Result<ServerConnection> connection =
      ServerConnection::Open("127.0.0.1", server.port());
  ASSERT_TRUE(connection.ok()) << connection.status().ToString();

  Result<JsonValue> before = connection->Query("freshterm");
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_TRUE(before->Find("ok")->GetBool());
  EXPECT_EQ(before->Find("nodes")->size(), 0u);
  const uint64_t hits_before = CounterValue("gks.search.cache.hits_total");
  Result<JsonValue> repeat = connection->Query("freshterm");
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  EXPECT_EQ(CounterValue("gks.search.cache.hits_total"), hits_before + 1)
      << "the empty answer was not cached";

  // Rebuild the file with one more document, then reload it, as an
  // operator would.
  ASSERT_EQ(WriteIndex("epoch", {kArticle,
                                 "<bib><article><title>freshterm xml</title>"
                                 "</article></bib>"}),
            index_path);
  Result<JsonValue> reloaded = connection->Admin("reload");
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_TRUE(reloaded->Find("ok")->GetBool());

  Result<JsonValue> after = connection->Query("freshterm");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_TRUE(after->Find("ok")->GetBool());
  EXPECT_GT(after->Find("epoch")->GetInt(), before->Find("epoch")->GetInt());
  EXPECT_GT(after->Find("nodes")->size(), 0u);

  server.RequestShutdown();
  server.Wait();
}

}  // namespace
}  // namespace gks
