// End-to-end coordinator exercise over real TCP (docs/DISTRIBUTED.md):
// shard workers and a coordinator as in-process GksServers on ephemeral
// ports, driven through the shipped client stack. Pins the distributed
// contract at the wire level — a coordinator answer is byte-identical
// (modulo epoch/elapsed_ms) to a single-index server over the same
// repository — plus replica failover, degraded partial answers, the
// shard_unavailable error path, hostile partials from a fake worker, and
// the coordinator admin surface.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "common/file_io.h"
#include "common/metrics.h"
#include "index/index_builder.h"
#include "index/serialization.h"
#include "index/shard.h"
#include "server/client.h"
#include "server/net.h"
#include "server/server.h"

namespace gks {
namespace {

/// The sharded corpus, built once: seven documents split into two shards
/// plus one combined oracle index over the same files in the same order.
/// The two articles with repeated authors are entities, so queries that
/// reach them carry DI through the wire.
struct Repo {
  std::string dir;
  ShardManifest manifest;
  std::string single_index;               // the oracle
  std::vector<std::string> shard_paths;   // in shard order
};

const Repo& BuildRepo() {
  static const Repo* repo = [] {
    auto* out = new Repo();
    out->dir = ::testing::TempDir() + "gks_coord_test";
    std::string mkdir = "mkdir -p " + out->dir;
    EXPECT_EQ(std::system(mkdir.c_str()), 0);
    const std::vector<std::string> docs = {
        "<article year=\"2001\"><title>xml keyword search</title>"
        "<author>weinstein</author></article>",
        "<article year=\"2002\"><title>keyword search ranking</title>"
        "<author>weinstein</author><author>jones</author></article>",
        "<article year=\"2001\"><title>keyword query semantics</title>"
        "<author>jones</author></article>",
        "<article year=\"2004\"><title>database keyword ranking</title>"
        "<author>weinstein</author></article>",
        "<article year=\"2004\"><title>xml database systems</title>"
        "<author>smith</author></article>",
        "<article year=\"2006\"><title>xml keyword database</title>"
        "<author>smith</author><author>weinstein</author></article>",
        "<article year=\"2008\"><title>search ranking potential flow</title>"
        "<author>jones</author></article>",
    };
    std::vector<std::string> files;
    for (size_t i = 0; i < docs.size(); ++i) {
      files.push_back(out->dir + "/doc_" + std::to_string(i) + ".xml");
      EXPECT_TRUE(WriteStringToFile(files.back(), docs[i]).ok());
    }
    Result<ShardManifest> manifest = SplitIntoShards(files, 2, out->dir);
    EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
    out->manifest = std::move(manifest).value();
    for (const ShardSpec& shard : out->manifest.shards) {
      out->shard_paths.push_back(out->dir + "/" + shard.file);
    }
    IndexBuilder builder;
    for (const std::string& file : files) {
      EXPECT_TRUE(builder.AddFile(file).ok());
    }
    Result<XmlIndex> oracle = std::move(builder).Finalize();
    EXPECT_TRUE(oracle.ok()) << oracle.status().ToString();
    out->single_index = out->dir + "/single.gksidx";
    EXPECT_TRUE(SaveIndex(*oracle, out->single_index).ok());
    return out;
  }();
  return *repo;
}

/// A worker is an ordinary server over its shard file: the file records
/// its documents' global ids, so the config names no base.
std::unique_ptr<GksServer> StartWorker(size_t shard) {
  ServerConfig config;
  config.port = 0;
  auto server =
      std::make_unique<GksServer>(config, BuildRepo().shard_paths[shard]);
  Status status = server->Start();
  EXPECT_TRUE(status.ok()) << status.ToString();
  return server;
}

std::unique_ptr<GksServer> StartSingle() {
  ServerConfig config;
  config.port = 0;
  auto server = std::make_unique<GksServer>(config, BuildRepo().single_index);
  EXPECT_TRUE(server->Start().ok());
  return server;
}

std::unique_ptr<GksServer> StartCoordinator(const std::string& topology,
                                            bool allow_partial = false) {
  ServerConfig config;
  config.port = 0;
  config.coord_shards = topology;
  config.coord_retries = 2;
  config.coord_backoff_ms = 1.0;  // keep retry sleeps test-fast
  config.coord_partial = allow_partial;
  auto server = std::make_unique<GksServer>(config, "");
  Status status = server->Start();
  EXPECT_TRUE(status.ok()) << status.ToString();
  return server;
}

void Stop(std::unique_ptr<GksServer>& server) {
  server->RequestShutdown();
  server->Wait();
}

std::string Endpoint(const GksServer& server) {
  return "127.0.0.1:" + std::to_string(server.port());
}

ServerConnection ConnectOrDie(const GksServer& server) {
  Result<ServerConnection> connection =
      ServerConnection::Open("127.0.0.1", server.port());
  EXPECT_TRUE(connection.ok()) << connection.status().ToString();
  return std::move(connection).value();
}

/// Strips the legitimately-different fields (snapshot epoch, wall clock,
/// optionally the plan name) so the rest of the line can be compared
/// byte for byte. None of these fields is ever last in the envelope, so
/// eating the trailing comma keeps the JSON well formed.
std::string Normalized(std::string line, bool strip_plan = false) {
  std::vector<std::string> keys = {"\"epoch\":", "\"elapsed_ms\":"};
  if (strip_plan) keys.push_back("\"plan\":");
  for (const std::string& key : keys) {
    size_t begin = line.find(key);
    if (begin == std::string::npos) continue;
    size_t end = line.find_first_of(",}", begin + key.size());
    if (end == std::string::npos) continue;
    line.erase(begin, end - begin + 1);
  }
  return line;
}

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

/// One raw request line against two servers; both must answer and the
/// normalized responses must match byte for byte.
void ExpectSameAnswer(ServerConnection& coord, ServerConnection& single,
                      const std::string& request, bool strip_plan = false) {
  Result<std::string> from_coord = coord.CallRaw(request);
  Result<std::string> from_single = single.CallRaw(request);
  ASSERT_TRUE(from_coord.ok()) << from_coord.status().ToString();
  ASSERT_TRUE(from_single.ok()) << from_single.status().ToString();
  EXPECT_EQ(Normalized(*from_coord, strip_plan),
            Normalized(*from_single, strip_plan))
      << request;
}

TEST(CoordinatorTest, MergedAnswersMatchSingleIndexByteForByte) {
  auto worker0 = StartWorker(0);
  auto worker1 = StartWorker(1);
  auto single = StartSingle();
  auto coord =
      StartCoordinator(Endpoint(*worker0) + "," + Endpoint(*worker1));
  EXPECT_TRUE(coord->is_coordinator());

  ServerConnection coord_conn = ConnectOrDie(*coord);
  ServerConnection single_conn = ConnectOrDie(*single);
  // The planner sees different statistics per shard than over the full
  // repository, so the plan *name* is pinned by forcing the strategy —
  // node ranks and ordering are pinned regardless.
  const std::vector<std::string> requests = {
      R"({"query":"keyword","s":1,"top":10,"plan":"merge"})",
      R"({"query":"xml database","s":1,"top":10,"plan":"merge"})",
      R"({"query":"xml database","s":2,"top":10,"plan":"merge"})",
      R"({"query":"keyword search ranking","s":2,"top":10,"plan":"merge"})",
      R"({"query":"weinstein keyword","s":1,"top":10,"plan":"merge","top_k":3})",
      R"({"query":"\"potential flow\"","s":1,"top":10,"plan":"merge"})",
      R"({"query":"nosuchtoken","s":1,"top":10,"plan":"merge"})",
  };
  for (const std::string& request : requests) {
    ExpectSameAnswer(coord_conn, single_conn, request);
  }

  // Workers describe only their local top `top` nodes. With `top` below
  // the per-shard match counts, nodes past each shard's cut ship without
  // display strings, and the merged top must still be fully described;
  // without `top`, every node is described and returned.
  const std::vector<std::string> cut_requests = {
      R"({"query":"keyword","s":1,"top":1,"plan":"merge"})",
      R"({"query":"keyword","s":1,"top":2,"plan":"merge"})",
      R"({"query":"xml database","s":1,"top":1,"plan":"merge"})",
      R"({"query":"xml database","s":1,"top":2,"plan":"merge"})",
      R"({"query":"keyword search ranking","s":1,"top":2,"plan":"merge"})",
      R"({"query":"weinstein keyword","s":1,"top":1,"plan":"merge","top_k":3})",
      R"({"query":"keyword","s":1,"plan":"merge"})",
      R"({"query":"keyword search ranking","s":1,"plan":"merge"})",
  };
  for (const std::string& request : cut_requests) {
    ExpectSameAnswer(coord_conn, single_conn, request);
  }
  // The entity articles put DI contributions on the wire, so the cases
  // above also pin the dictionary-coded DI replay.
  Result<JsonValue> with_di = coord_conn.Call(cut_requests[0]);
  ASSERT_TRUE(with_di.ok()) << with_di.status().ToString();
  EXPECT_GT(with_di->Find("di")->size(), 0u);

  // Unforced plan: everything but the plan *name* still agrees — per
  // shard the planner sees different posting statistics, yet every
  // strategy is exact, so nodes/DI/refinements are unchanged.
  ExpectSameAnswer(coord_conn, single_conn,
                   R"({"query":"keyword database","s":1,"top":10})",
                   /*strip_plan=*/true);

  Stop(coord);
  Stop(single);
  Stop(worker0);
  Stop(worker1);
}

TEST(CoordinatorTest, WorkerReadsItsDocumentsFromItsShardFile) {
  // Shard 1 starts past global document 0; a default-config worker over
  // it must name and describe every node as the single index does.
  ASSERT_GT(BuildRepo().manifest.shards[1].doc_base, 0u);
  auto worker1 = StartWorker(1);
  auto single = StartSingle();
  ServerConnection worker_conn = ConnectOrDie(*worker1);
  ServerConnection single_conn = ConnectOrDie(*single);
  for (const std::string query : {"keyword", "xml database"}) {
    Result<JsonValue> from_single =
        single_conn.Call(R"({"query":")" + query + R"(","s":1})");
    ASSERT_TRUE(from_single.ok()) << from_single.status().ToString();
    const JsonValue* single_nodes = from_single->Find("nodes");
    // Plain and shard-partial answers: without `top`, every node carries
    // its `doc` and `describe`.
    for (const std::string extra : {"", R"(,"shard":true,"di_contrib":true)"}) {
      const std::string request =
          R"({"query":")" + query + R"(","s":1)" + extra + "}";
      SCOPED_TRACE(request);
      Result<JsonValue> from_worker = worker_conn.Call(request);
      ASSERT_TRUE(from_worker.ok()) << from_worker.status().ToString();
      ASSERT_TRUE(from_worker->Find("ok")->GetBool());
      const JsonValue* worker_nodes = from_worker->Find("nodes");
      ASSERT_GT(worker_nodes->size(), 0u);
      for (const JsonValue& node : worker_nodes->items()) {
        const std::string& id = node.Find("id")->GetString();
        SCOPED_TRACE(id);
        const JsonValue* twin = nullptr;
        for (const JsonValue& candidate : single_nodes->items()) {
          if (candidate.Find("id")->GetString() == id) twin = &candidate;
        }
        ASSERT_NE(twin, nullptr);
        ASSERT_NE(node.Find("doc"), nullptr);
        EXPECT_EQ(node.Find("doc")->GetString(),
                  twin->Find("doc")->GetString());
        EXPECT_EQ(node.Find("describe")->GetString(),
                  twin->Find("describe")->GetString());
      }
    }
  }
  Stop(single);
  Stop(worker1);
}

TEST(CoordinatorTest, FailoverToReplicaGivesIdenticalAnswers) {
  auto primary0 = StartWorker(0);
  auto replica0 = StartWorker(0);  // same shard file, second process
  auto worker1 = StartWorker(1);
  auto single = StartSingle();
  auto coord = StartCoordinator(Endpoint(*primary0) + "|" +
                                Endpoint(*replica0) + "," +
                                Endpoint(*worker1));

  ServerConnection coord_conn = ConnectOrDie(*coord);
  ServerConnection single_conn = ConnectOrDie(*single);
  const std::string request =
      R"({"query":"keyword search","s":1,"top":10,"plan":"merge"})";
  ExpectSameAnswer(coord_conn, single_conn, request);

  // Kill the primary; the coordinator must fail over to the replica and
  // the answer must not change at all.
  uint64_t failovers_before = CounterValue("gks.coord.failovers_total");
  Stop(primary0);
  ExpectSameAnswer(coord_conn, single_conn, request);
  EXPECT_GT(CounterValue("gks.coord.failovers_total"), failovers_before);

  Stop(coord);
  Stop(single);
  Stop(replica0);
  Stop(worker1);
}

TEST(CoordinatorTest, DegradedAnswersCarryTheContractFields) {
  const Repo& repo = BuildRepo();
  auto worker0 = StartWorker(0);
  auto worker1 = StartWorker(1);
  auto coord = StartCoordinator(
      Endpoint(*worker0) + "," + Endpoint(*worker1), /*allow_partial=*/true);
  ServerConnection connection = ConnectOrDie(*coord);

  // Healthy fan-out: a full answer must NOT carry the degraded trio.
  Result<JsonValue> full = connection.Query("keyword", 1, 10);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(full->Find("ok")->GetBool());
  EXPECT_EQ(full->Find("degraded"), nullptr);

  uint64_t degraded_before = CounterValue("gks.coord.degraded_total");
  Stop(worker1);
  Result<JsonValue> partial = connection.Query("keyword", 1, 10);
  ASSERT_TRUE(partial.ok());
  ASSERT_TRUE(partial->Find("ok")->GetBool());
  ASSERT_NE(partial->Find("degraded"), nullptr);
  EXPECT_TRUE(partial->Find("degraded")->GetBool());
  EXPECT_EQ(partial->Find("shards_ok")->GetInt(), 1);
  EXPECT_EQ(partial->Find("shards_total")->GetInt(), 2);
  EXPECT_GT(CounterValue("gks.coord.degraded_total"), degraded_before);
  // Every node in a degraded answer comes from a reachable shard: doc
  // ids stay below the dead shard's doc_base.
  uint32_t dead_base = repo.manifest.shards[1].doc_base;
  for (const JsonValue& node : partial->Find("nodes")->items()) {
    const std::string& id = node.Find("id")->GetString();
    EXPECT_LT(static_cast<uint32_t>(std::atoi(id.c_str())), dead_base) << id;
  }

  Stop(coord);
  Stop(worker0);
}

TEST(CoordinatorTest, ShardUnavailableWhenPartialAnswersAreDisallowed) {
  auto worker0 = StartWorker(0);
  auto worker1 = StartWorker(1);
  auto coord =
      StartCoordinator(Endpoint(*worker0) + "," + Endpoint(*worker1));
  ServerConnection connection = ConnectOrDie(*coord);
  Stop(worker1);

  Result<JsonValue> response = connection.Query("keyword", 1, 10);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->Find("ok")->GetBool());
  EXPECT_EQ(response->Find("error")->GetString(), "shard_unavailable");

  // A query the coordinator itself rejects (unparsable) is fatal, not
  // retried into shard_unavailable.
  Result<JsonValue> unparsable = connection.Query("\"unterminated", 1, 10);
  ASSERT_TRUE(unparsable.ok());
  EXPECT_FALSE(unparsable->Find("ok")->GetBool());
  EXPECT_EQ(unparsable->Find("error")->GetString(), "search_failed");

  Stop(coord);
  Stop(worker0);
}

TEST(CoordinatorTest, AdminSurfaceAndShardModeWire) {
  auto worker0 = StartWorker(0);
  auto worker1 = StartWorker(1);
  auto coord =
      StartCoordinator(Endpoint(*worker0) + "," + Endpoint(*worker1));
  ServerConnection connection = ConnectOrDie(*coord);

  Result<JsonValue> health = connection.Admin("health");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->Find("status")->GetString(), "serving");
  const JsonValue* load = health->Find("load");
  ASSERT_NE(load, nullptr);
  ASSERT_NE(load->Find("role"), nullptr);
  EXPECT_EQ(load->Find("role")->GetString(), "coordinator");
  ASSERT_NE(load->Find("shards"), nullptr);
  EXPECT_EQ(load->Find("shards")->size(), 2u);

  Result<JsonValue> stats = connection.Admin("stats");
  ASSERT_TRUE(stats.ok());
  ASSERT_NE(stats->Find("coord"), nullptr);
  EXPECT_EQ(stats->Find("coord")->Find("shards")->GetInt(), 2);

  // A coordinator has no index to reload.
  Result<JsonValue> reload = connection.Admin("reload");
  ASSERT_TRUE(reload.ok());
  EXPECT_FALSE(reload->Find("ok")->GetBool());

  // Coordinators are not workers: a "shard" request is refused rather
  // than half-merged.
  Result<JsonValue> nested =
      connection.Call(R"({"query":"keyword","shard":true})");
  ASSERT_TRUE(nested.ok());
  EXPECT_FALSE(nested->Find("ok")->GetBool());
  EXPECT_EQ(nested->Find("error")->GetString(), "bad_request");

  // Worker shard mode carries the lossless payload; explain is refused
  // in shard mode; di_contrib is shard-only.
  ServerConnection worker_conn = ConnectOrDie(*worker0);
  Result<JsonValue> shard = worker_conn.Call(
      R"({"query":"keyword","s":1,"shard":true,"di_contrib":true})");
  ASSERT_TRUE(shard.ok());
  ASSERT_TRUE(shard->Find("ok")->GetBool());
  ASSERT_GT(shard->Find("nodes")->size(), 1u);
  const JsonValue& first = shard->Find("nodes")->items()[0];
  ASSERT_NE(first.Find("mask"), nullptr);
  ASSERT_NE(first.Find("rank_bits"), nullptr);
  EXPECT_EQ(first.Find("rank"), nullptr);  // display rank is client-only
  // Contributions are dictionary-coded: integer indices per node into
  // one "di_dict" of [tag, value, path...] entries.
  const JsonValue* dict = shard->Find("di_dict");
  ASSERT_NE(dict, nullptr);
  size_t indices = 0;
  for (const JsonValue& node : shard->Find("nodes")->items()) {
    EXPECT_NE(node.Find("describe"), nullptr);  // no `top`: all described
    if (const JsonValue* contrib = node.Find("di_contrib")) {
      for (const JsonValue& index : contrib->items()) {
        ASSERT_TRUE(index.is_int());
        EXPECT_LT(static_cast<size_t>(index.GetInt()), dict->size());
        ++indices;
      }
    }
  }
  EXPECT_GT(indices, 0u);
  for (const JsonValue& entry : dict->items()) {
    ASSERT_GE(entry.size(), 2u);
    for (const JsonValue& field : entry.items()) {
      EXPECT_TRUE(field.is_string());
    }
  }
  // With `top`, every node still ships but only the first `top` carry
  // display strings.
  Result<JsonValue> cut =
      worker_conn.Call(R"({"query":"keyword","s":1,"top":1,"shard":true})");
  ASSERT_TRUE(cut.ok());
  ASSERT_EQ(cut->Find("nodes")->size(), shard->Find("nodes")->size());
  const std::vector<JsonValue>& cut_nodes = cut->Find("nodes")->items();
  EXPECT_NE(cut_nodes[0].Find("doc"), nullptr);
  EXPECT_NE(cut_nodes[0].Find("describe"), nullptr);
  for (size_t i = 1; i < cut_nodes.size(); ++i) {
    EXPECT_EQ(cut_nodes[i].Find("doc"), nullptr) << i;
    EXPECT_EQ(cut_nodes[i].Find("describe"), nullptr) << i;
  }
  EXPECT_EQ(cut->Find("di_dict"), nullptr);  // no di_contrib asked
  Result<JsonValue> bad_explain = worker_conn.Call(
      R"({"query":"keyword","shard":true,"explain":true})");
  ASSERT_TRUE(bad_explain.ok());
  EXPECT_EQ(bad_explain->Find("error")->GetString(), "bad_request");
  Result<JsonValue> bad_contrib =
      worker_conn.Call(R"({"query":"keyword","di_contrib":true})");
  ASSERT_TRUE(bad_contrib.ok());
  EXPECT_EQ(bad_contrib->Find("error")->GetString(), "bad_request");

  Stop(coord);
  Stop(worker0);
  Stop(worker1);
}

/// A stand-in shard worker on a loopback port: it answers every request
/// line with one canned response line, whatever was asked.
class FakeWorker {
 public:
  explicit FakeWorker(std::string reply) : reply_(std::move(reply) + "\n") {
    Result<int> fd = net::Listen("127.0.0.1", 0);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    listen_fd_ = fd.ok() ? *fd : -1;
    Result<int> port = net::BoundPort(listen_fd_);
    EXPECT_TRUE(port.ok()) << port.status().ToString();
    port_ = port.ok() ? *port : 0;
    accept_thread_ = std::thread([this] { AcceptLoop(); });
  }

  FakeWorker(const FakeWorker&) = delete;
  FakeWorker& operator=(const FakeWorker&) = delete;

  ~FakeWorker() {
    stop_.store(true);
    accept_thread_.join();
    for (int fd : fds_) net::ShutdownFd(fd);
    for (std::thread& thread : connection_threads_) thread.join();
    for (int fd : fds_) net::CloseFd(fd);
    net::CloseFd(listen_fd_);
  }

  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(port_);
  }

 private:
  void AcceptLoop() {
    while (!stop_.load()) {
      Result<int> fd = net::AcceptWithTimeout(listen_fd_, 20);
      if (!fd.ok()) return;
      if (*fd < 0) continue;
      fds_.push_back(*fd);
      connection_threads_.emplace_back([this, fd = *fd] {
        net::LineReader reader(fd);
        std::string line;
        while (reader.ReadLine(&line).ok() && net::WriteAll(fd, reply_).ok()) {
        }
      });
    }
  }

  const std::string reply_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  // Touched only by the accept thread until the destructor joins it.
  std::vector<int> fds_;
  std::vector<std::thread> connection_threads_;
  std::thread accept_thread_;
};

/// One LCE node of a canned partial; `extra` appends members.
std::string CannedNode(const std::string& id, const std::string& rank_bits,
                       const std::string& extra) {
  return R"({"id":")" + id + R"(","lce":true,"keywords":1,"mask":"1",)" +
         R"("rank_bits":")" + rank_bits + "\"" + extra + "}";
}

/// A two-node shard partial around `first` and `second`.
std::string CannedPartial(
    const std::string& first, const std::string& second,
    const std::string& dict = R"([["year","2001","article","year"]])") {
  return R"({"ok":true,"epoch":1,"s":1,"merged_list_size":2,)"
         R"("candidates":2,"lce":2,"plan":"merge","elapsed_ms":0.1,)"
         R"("nodes":[)" +
         first + "," + second + R"(],"di_dict":)" + dict + "}";
}

// rank_bits of 2.0 and 1.0: in merge order as first, second.
constexpr char kRankTwo[] = "4000000000000000";
constexpr char kRankOne[] = "3ff0000000000000";
constexpr char kDescribed[] = R"(,"doc":"a.xml","describe":"<article> 0")";

/// Sends `request` through a coordinator whose only shard is a fake
/// worker answering `partial`.
Result<JsonValue> QueryThroughFake(const std::string& partial,
                                   const std::string& request) {
  FakeWorker fake(partial);
  auto coord = StartCoordinator(fake.endpoint());
  ServerConnection connection = ConnectOrDie(*coord);
  Result<JsonValue> response = connection.Call(request);
  connection.Close();
  Stop(coord);
  return response;
}

/// As QueryThroughFake, but the raw answer line, normalized.
std::string AnswerThroughFake(const std::string& partial,
                              const std::string& request) {
  FakeWorker fake(partial);
  auto coord = StartCoordinator(fake.endpoint());
  ServerConnection connection = ConnectOrDie(*coord);
  Result<std::string> response = connection.CallRaw(request);
  connection.Close();
  Stop(coord);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return response.ok() ? Normalized(*response) : std::string();
}

TEST(CoordinatorTest, FakeWorkerPartialDecodes) {
  // The control for the hostile cases below: the second node is past
  // `top` and ships bare, both nodes share dictionary entry 0.
  Result<JsonValue> response = QueryThroughFake(
      CannedPartial(
          CannedNode("0", kRankTwo, std::string(kDescribed) +
                                        R"(,"di_contrib":[0])"),
          CannedNode("1", kRankOne, R"(,"di_contrib":[0])")),
      R"({"query":"keyword","s":1,"top":1})");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->Find("ok")->GetBool());
  ASSERT_EQ(response->Find("nodes")->size(), 1u);
  const JsonValue& node = response->Find("nodes")->items()[0];
  EXPECT_EQ(node.Find("doc")->GetString(), "a.xml");
  EXPECT_EQ(node.Find("describe")->GetString(), "<article> 0");
  ASSERT_EQ(response->Find("di")->size(), 1u);
  const JsonValue& di = response->Find("di")->items()[0];
  EXPECT_EQ(di.Find("value")->GetString(), "2001");
  EXPECT_EQ(di.Find("support")->GetInt(), 2);
  EXPECT_DOUBLE_EQ(di.Find("weight")->GetDouble(), 3.0);
  ASSERT_EQ(di.Find("path")->size(), 2u);
  EXPECT_EQ(di.Find("path")->items()[1].GetString(), "year");

  // The decoder reads members in any order and skips what it does not
  // know: each variant must give the control's answer byte for byte.
  const std::string request = R"({"query":"keyword","s":1,"top":2,"di":5})";
  const std::string first = CannedNode(
      "0", kRankTwo, std::string(kDescribed) + R"(,"di_contrib":[0])");
  const std::string second = CannedNode(
      "1", kRankOne, std::string(kDescribed) + R"(,"di_contrib":[0])");
  const std::string nodes = R"("nodes":[)" + first + "," + second + "]";
  const std::string dict = R"("di_dict":[["year","2001","article","year"]])";
  const std::string summary =
      R"("epoch":1,"s":1,"merged_list_size":2,"candidates":2,"lce":2,)"
      R"("plan":"merge","elapsed_ms":0.1)";
  const std::string control =
      AnswerThroughFake(CannedPartial(first, second), request);
  ASSERT_NE(control.find(R"("ok":true)"), std::string::npos) << control;
  const std::vector<std::pair<const char*, std::string>> variants = {
      {"summary after nodes",
       "{" + nodes + "," + dict + "," + summary + R"(,"ok":true})"},
      {"di_dict before nodes",
       R"({"ok":true,)" + summary + "," + dict + "," + nodes + "}"},
      {"unknown nested members",
       R"({"ok":true,"extra":{"a":[1,{"b":null,"c":"é"}],"d":-0.5},)" +
           summary + "," + dict + R"(,"nodes":[)" +
           CannedNode("0", kRankTwo,
                      std::string(kDescribed) +
                          R"(,"di_contrib":[0],"more":[[],{"x":[true]}])") +
           "," + second + "]}"},
  };
  for (const auto& [label, partial] : variants) {
    EXPECT_EQ(AnswerThroughFake(partial, request), control) << label;
  }

  // Escapes in dictionary strings and display strings decode to the
  // bytes the worker meant; the answer re-escapes them.
  Result<JsonValue> escaped = QueryThroughFake(
      CannedPartial(
          CannedNode("0", kRankTwo,
                     R"(,"doc":"a\"b.xml","describe":"<té> \\ 0\n")"
                     R"(,"di_contrib":[0])"),
          CannedNode("1", kRankOne, R"(,"di_contrib":[0])"),
          R"([["ye\"ar","20\\01 𝄞","art\/icle","y\tear"]])"),
      R"({"query":"keyword","s":1,"top":1})");
  ASSERT_TRUE(escaped.ok()) << escaped.status().ToString();
  ASSERT_TRUE(escaped->Find("ok")->GetBool())
      << escaped->Find("message")->GetString();
  const JsonValue& escaped_node = escaped->Find("nodes")->items()[0];
  EXPECT_EQ(escaped_node.Find("doc")->GetString(), "a\"b.xml");
  EXPECT_EQ(escaped_node.Find("describe")->GetString(),
            "<t\xc3\xa9> \\ 0\n");
  ASSERT_EQ(escaped->Find("di")->size(), 1u);
  const JsonValue& escaped_di = escaped->Find("di")->items()[0];
  EXPECT_EQ(escaped_di.Find("value")->GetString(),
            "20\\01 \xf0\x9d\x84\x9e");
  ASSERT_EQ(escaped_di.Find("path")->size(), 2u);
  EXPECT_EQ(escaped_di.Find("path")->items()[0].GetString(), "art/icle");
  EXPECT_EQ(escaped_di.Find("path")->items()[1].GetString(), "y\tear");
}

TEST(CoordinatorTest, NonLceContributionsLeaveDiUnchanged) {
  // As FakeWorkerPartialDecodes, but the second node is no LCE: only LCE
  // nodes give DI, whatever contributions a partial attaches to others.
  std::string second = CannedNode("1", kRankOne, R"(,"di_contrib":[0])");
  second.replace(second.find(R"("lce":true)"), 10, R"("lce":false)");
  Result<JsonValue> response = QueryThroughFake(
      CannedPartial(
          CannedNode("0", kRankTwo, std::string(kDescribed) +
                                        R"(,"di_contrib":[0])"),
          second),
      R"({"query":"keyword","s":1,"top":1})");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->Find("ok")->GetBool());
  ASSERT_EQ(response->Find("di")->size(), 1u);
  const JsonValue& di = response->Find("di")->items()[0];
  EXPECT_EQ(di.Find("value")->GetString(), "2001");
  EXPECT_EQ(di.Find("support")->GetInt(), 1);
  EXPECT_DOUBLE_EQ(di.Find("weight")->GetDouble(), 2.0);
}

TEST(CoordinatorTest, MergeRecordsTheDiStage) {
  // The merge core's `di` span runs under coord.merge, so the server's
  // `gks` collector prefix derives gks.di.latency_ms on a coordinator.
  auto worker0 = StartWorker(0);
  auto worker1 = StartWorker(1);
  auto coord =
      StartCoordinator(Endpoint(*worker0) + "," + Endpoint(*worker1));
  Histogram* di = MetricsRegistry::Global().GetHistogram("gks.di.latency_ms");
  const uint64_t before = di->count();
  ServerConnection connection = ConnectOrDie(*coord);
  Result<JsonValue> response =
      connection.Call(R"({"query":"keyword weinstein","s":1,"top":3})");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->Find("ok")->GetBool());
  EXPECT_GT(response->Find("di")->size(), 0u);
  EXPECT_EQ(di->count(), before + 1);
  connection.Close();
  Stop(coord);
  Stop(worker0);
  Stop(worker1);
}

TEST(CoordinatorTest, HostilePartialsAreShardUnavailable) {
  struct Case {
    const char* label;
    std::string partial;
    std::string request;
    const char* reason;  // substring of the error message
  };
  const std::string top1 = R"({"query":"keyword","s":1,"top":1})";
  const std::string top2 = R"({"query":"keyword","s":1,"top":2})";
  const std::string second = CannedNode("1", kRankOne, "");
  auto first_with = [&](const std::string& extra) {
    return CannedNode("0", kRankTwo, extra);
  };
  const std::string control =
      CannedPartial(first_with(kDescribed), second);
  // The control partial with one member's text replaced.
  auto tampered = [&](const std::string& from, const std::string& to) {
    std::string partial = control;
    size_t at = partial.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) partial.replace(at, from.size(), to);
    return partial;
  };
  const std::vector<Case> cases = {
      {"index past the dictionary",
       CannedPartial(first_with(std::string(kDescribed) +
                                R"(,"di_contrib":[0,1])"),
                     second),
       top1, "di_contrib index"},
      {"negative index",
       CannedPartial(first_with(std::string(kDescribed) +
                                R"(,"di_contrib":[-1])"),
                     second),
       top1, "di_contrib index"},
      {"fractional index",
       CannedPartial(first_with(std::string(kDescribed) +
                                R"(,"di_contrib":[0.5])"),
                     second),
       top1, "di_contrib index"},
      {"string index",
       CannedPartial(first_with(std::string(kDescribed) +
                                R"(,"di_contrib":["0"])"),
                     second),
       top1, "di_contrib index"},
      {"index without a dictionary",
       CannedPartial(first_with(std::string(kDescribed) +
                                R"(,"di_contrib":[0])"),
                     second, "[]"),
       top1, "di_contrib index"},
      {"malformed dictionary entry",
       CannedPartial(first_with(kDescribed), second, R"([["year"]])"),
       top1, "di_dict"},
      {"top node without describe",
       CannedPartial(first_with(R"(,"doc":"a.xml")"), second), top1,
       "lacks doc/describe"},
      {"top node without doc",
       CannedPartial(first_with(R"(,"describe":"<article> 0")"), second),
       top1, "lacks doc/describe"},
      {"top node with an empty describe",
       CannedPartial(first_with(R"(,"doc":"a.xml","describe":"")"), second),
       top1, "lacks doc/describe"},
      {"second of top 2 bare",
       CannedPartial(first_with(kDescribed), second), top2,
       "lacks doc/describe"},
      {"no top: every node must be described",
       CannedPartial(first_with(kDescribed), second),
       R"({"query":"keyword","s":1})", "lacks doc/describe"},
      {"nodes out of rank order",
       CannedPartial(CannedNode("0", kRankOne, kDescribed),
                     CannedNode("1", kRankTwo, kDescribed)),
       top1, "out of rank order"},
      {"NaN rank",
       CannedPartial(CannedNode("0", "7ff8000000000000", kDescribed),
                     second),
       top1, "rank_bits"},
      // Summary counts are non-negative integers: a wrong kind must not
      // read as 0, a negative one must not wrap into a huge count.
      {"string epoch", tampered(R"("epoch":1)", R"("epoch":"1")"), top1,
       "\"epoch\""},
      {"negative epoch", tampered(R"("epoch":1)", R"("epoch":-1)"), top1,
       "\"epoch\""},
      {"missing epoch", tampered(R"("epoch":1,)", ""), top1, "\"epoch\""},
      {"fractional merged_list_size",
       tampered(R"("merged_list_size":2)", R"("merged_list_size":2.5)"), top1,
       "\"merged_list_size\""},
      {"negative merged_list_size",
       tampered(R"("merged_list_size":2)", R"("merged_list_size":-2)"), top1,
       "\"merged_list_size\""},
      {"bool candidates",
       tampered(R"("candidates":2)", R"("candidates":true)"), top1,
       "\"candidates\""},
      {"negative candidates",
       tampered(R"("candidates":2)", R"("candidates":-2)"), top1,
       "\"candidates\""},
      {"numeric lce", tampered(R"("lce":true,"keywords":1)",
                               R"("lce":1,"keywords":1)"),
       top1, "\"lce\""},
      {"missing lce", tampered(R"("lce":true,"keywords":1)",
                               R"("keywords":1)"),
       top1, "\"lce\""},
      {"string keywords", tampered(R"("keywords":1)", R"("keywords":"1")"),
       top1, "\"keywords\""},
      {"negative keywords", tampered(R"("keywords":1)", R"("keywords":-1)"),
       top1, "\"keywords\""},
      {"keywords past 64", tampered(R"("keywords":1)", R"("keywords":65)"),
       top1, "\"keywords\""},
      {"missing keywords",
       tampered(R"("lce":true,"keywords":1,)", R"("lce":true,)"), top1,
       "\"keywords\""},
      // Each member the decoder reads comes once; the tree it replaced
      // silently kept the last.
      {"repeated summary member",
       tampered(R"("epoch":1)", R"("epoch":1,"epoch":2)"), top1,
       "repeated member \"epoch\""},
      {"repeated node member",
       tampered(R"("lce":true)", R"("lce":true,"lce":false)"), top1,
       "repeated member \"lce\""},
      {"repeated di_dict",
       tampered(R"("di_dict":)", R"("di_dict":[],"di_dict":)"), top1,
       "repeated member \"di_dict\""},
      {"repeated ok", tampered(R"("ok":true)", R"("ok":true,"ok":true)"),
       top1, "unparseable shard response"},
      {"truncated line", control.substr(0, control.size() / 2), top1,
       "unparseable shard response"},
      {"trailing garbage", control + " x", top1,
       "unparseable shard response"},
      {"invalid escape past the nodes", tampered(R"("2001")", R"("20\q")"),
       top1, "unparseable shard response"},
      // Mask and keywords must agree, and the mask names query atoms
      // only ("keyword" has one).
      {"mask popcount above keywords",
       tampered(R"("mask":"1")", R"("mask":"3")"), top1,
       "mask disagrees with \"keywords\""},
      {"empty mask", tampered(R"("mask":"1")", R"("mask":"0")"), top1,
       "mask disagrees with \"keywords\""},
      {"mask bit past the query's atoms",
       tampered(R"("mask":"1")", R"("mask":"2")"), top1,
       "mask names a keyword the query lacks"},
      {"signed mask", tampered(R"("mask":"1")", R"("mask":"-1")"), top1,
       "bad mask/rank_bits encoding"},
      {"prefixed mask", tampered(R"("mask":"1")", R"("mask":"0x1")"), top1,
       "bad mask/rank_bits encoding"},
      {"padded mask", tampered(R"("mask":"1")", R"("mask":" 1")"), top1,
       "bad mask/rank_bits encoding"},
      {"signed rank_bits",
       tampered(kRankTwo, std::string("+") + (kRankTwo + 1)), top1,
       "bad mask/rank_bits encoding"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    Result<JsonValue> response = QueryThroughFake(c.partial, c.request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->Find("ok")->GetBool());
    EXPECT_EQ(response->Find("error")->GetString(), "shard_unavailable");
    EXPECT_NE(response->Find("message")->GetString().find(c.reason),
              std::string::npos)
        << response->Find("message")->GetString();
  }
}

TEST(CoordinatorTest, LoadAcrossCoordinatorAndWorkersStaysClean) {
  auto worker0 = StartWorker(0);
  auto worker1 = StartWorker(1);
  auto coord =
      StartCoordinator(Endpoint(*worker0) + "," + Endpoint(*worker1));

  LoadOptions options;
  options.host = "127.0.0.1";
  options.port = coord->port();
  options.connections = 4;
  options.requests_per_connection = 25;
  options.queries = {"keyword", "xml database", "search ranking"};
  Result<LoadReport> report = RunLoad(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->clean()) << report->ToString();
  EXPECT_EQ(report->ok, 100u);
  EXPECT_EQ(report->degraded, 0u);
  // The JSON dump carries the same verdict the smoke scripts consume.
  std::string json = report->ToJson();
  EXPECT_NE(json.find("\"clean\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99_ms\":"), std::string::npos) << json;

  Stop(coord);
  Stop(worker0);
  Stop(worker1);
}

}  // namespace
}  // namespace gks
