// The worker-side serialized shard-partial cache (server/wire_cache.h,
// docs/DISTRIBUTED.md): LRU mechanics at the unit level, then through a
// real server — a repeated id-less shard fan-out line must come back
// byte-identical (frozen elapsed_ms included) from the cached bytes,
// while requests carrying an `id` keep echoing their own id.

#include <cstdint>
#include <cstdlib>
#include <string>

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

TEST(WireResponseCacheTest, KeysSeparateEpochs) {
  const std::string line = "{\"query\":\"xml\",\"shard\":true}";
  EXPECT_NE(WireResponseCache::MakeKey(line, 1),
            WireResponseCache::MakeKey(line, 2));
  // The epoch suffix must not be confusable with line content: a line
  // ending in a digit and a shorter epoch cannot collide with the same
  // prefix and a longer epoch.
  EXPECT_NE(WireResponseCache::MakeKey(line + "1", 2),
            WireResponseCache::MakeKey(line, 12));
}

TEST(WireResponseCacheTest, GetRefreshesAndPutUpdates) {
  WireResponseCache cache(1 << 20);
  std::string key = WireResponseCache::MakeKey("{\"query\":\"a\"}", 1);
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
  // Each entry costs key + line bytes; three ~40-byte entries in a
  // 100-byte budget force the least recently touched one out.
  WireResponseCache cache(100);
  std::string payload(30, 'x');
  std::string k1 = WireResponseCache::MakeKey("{\"q\":\"1\"}", 1);
  std::string k2 = WireResponseCache::MakeKey("{\"q\":\"2\"}", 1);
  std::string k3 = WireResponseCache::MakeKey("{\"q\":\"3\"}", 1);
  cache.Put(k1, payload);
  cache.Put(k2, payload);
  std::string out;
  ASSERT_TRUE(cache.Get(k1, &out));  // k2 is now the LRU entry
  cache.Put(k3, payload);
  EXPECT_TRUE(cache.Get(k1, &out));
  EXPECT_FALSE(cache.Get(k2, &out));
  EXPECT_TRUE(cache.Get(k3, &out));
  EXPECT_LE(cache.bytes(), 100u);
}

TEST(WireResponseCacheTest, OversizedLinesAreNotCached) {
  WireResponseCache cache(16);
  std::string key = WireResponseCache::MakeKey("{}", 1);
  cache.Put(key, std::string(64, 'x'));
  std::string out;
  EXPECT_FALSE(cache.Get(key, &out));
  EXPECT_EQ(cache.bytes(), 0u);
}

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

TEST(WireCacheServerTest, RepeatShardFanoutsAreServedFromCache) {
  std::string dir = ::testing::TempDir() + "gks_wire_cache_test";
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  // The repeated <author> group plus free attributes make the article
  // an entity, so the shard partial carries DI contributions.
  std::string file = dir + "/doc.xml";
  ASSERT_TRUE(WriteStringToFile(
                  file,
                  "<article year=\"2001\"><title>alpha beta</title>"
                  "<author>gamma</author><author>delta</author></article>")
                  .ok());
  std::string index_path = dir + "/doc.gksidx";
  IndexBuilder builder;
  ASSERT_TRUE(builder.AddFile(file).ok());
  Result<XmlIndex> index = std::move(builder).Finalize();
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ASSERT_TRUE(SaveIndex(*index, index_path).ok());

  ServerConfig config;
  config.port = 0;
  GksServer server(config, index_path);
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

  // A request with an id never reuses the id-less bytes: the echo must
  // be this caller's own id.
  Result<std::string> with_id = connection->CallRaw(
      "{\"id\":7,\"query\":\"alpha beta\",\"s\":1,\"shard\":true,"
      "\"di_contrib\":true}");
  ASSERT_TRUE(with_id.ok()) << with_id.status().ToString();
  EXPECT_NE(with_id->find("\"id\":7"), std::string::npos);

  server.RequestShutdown();
  server.Wait();
}

}  // namespace
}  // namespace gks
