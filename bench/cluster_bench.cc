// Distributed-mode benchmark (docs/DISTRIBUTED.md): shard a generated
// DBLP repository, run the shards as in-process `GksServer` workers
// behind a coordinator on loopback TCP, and measure
//
//   1. scatter-gather scaling: coordinator throughput and tail latency
//      over 2 / 4 / 8 workers against a single-index server on the
//      same documents,
//   2. the slowed-worker drill: one worker saturated by a background
//      hammer while the coordinator keeps serving (the fan-out pays
//      the straggler's tail, never a wrong answer),
//   3. the killed-worker drill: a shard primary shut down mid-run with
//      a replica mirror configured — the load report must stay clean
//      and gks.coord.failovers_total must advance.
//
// Everything is the shipped production stack: `SplitIntoShards`, real
// sockets, the pooled `RunLoad` generator. Result *identity* is not
// asserted here (tests/property/shard_equivalence_test.cc and
// scripts/check_cluster.sh pin it byte-for-byte); this bench measures.

#include <cstdint>
#include <memory>
#include <string>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/file_io.h"
#include "common/metrics.h"
#include "index/serialization.h"
#include "index/shard.h"
#include "server/client.h"
#include "server/server.h"

namespace gks::bench {
namespace {

struct Cluster {
  std::vector<std::unique_ptr<GksServer>> workers;
  std::unique_ptr<GksServer> coordinator;
};

[[noreturn]] void Die(const std::string& what, const std::string& detail = "") {
  std::fprintf(stderr, "cluster_bench FATAL: %s %s\n", what.c_str(),
               detail.c_str());
  std::exit(1);
}

std::string Endpoint(const GksServer& server) {
  return "127.0.0.1:" + std::to_string(server.port());
}

std::unique_ptr<GksServer> StartWorker(const std::string& index_path) {
  ServerConfig config;
  config.port = 0;
  auto server = std::make_unique<GksServer>(config, index_path);
  Status status = server->Start();
  if (!status.ok()) Die("worker start failed:", status.ToString());
  return server;
}

// One coordinator over every shard; shard `mirrored` (if >= 0) gets a
// second worker as a replica mirror.
Cluster StartCluster(const std::string& dir, const ShardManifest& manifest,
                     int mirrored = -1) {
  Cluster cluster;
  std::string topology;
  for (size_t i = 0; i < manifest.shards.size(); ++i) {
    const ShardSpec& shard = manifest.shards[i];
    cluster.workers.push_back(
        StartWorker(dir + "/" + shard.file));
    if (i > 0) topology += ",";
    topology += Endpoint(*cluster.workers.back());
    if (static_cast<int>(i) == mirrored) {
      cluster.workers.push_back(
          StartWorker(dir + "/" + shard.file));
      topology += "|" + Endpoint(*cluster.workers.back());
    }
  }
  ServerConfig config;
  config.port = 0;
  config.coord_shards = topology;
  config.coord_retries = 2;
  config.coord_backoff_ms = 5.0;
  cluster.coordinator = std::make_unique<GksServer>(config, "");
  Status status = cluster.coordinator->Start();
  if (!status.ok()) Die("coordinator start failed:", status.ToString());
  return cluster;
}

void StopCluster(Cluster& cluster) {
  cluster.coordinator->RequestShutdown();
  cluster.coordinator->Wait();
  for (auto& worker : cluster.workers) {
    worker->RequestShutdown();
    worker->Wait();
  }
}

LoadReport Drive(int port, size_t connections, size_t per_connection,
                 const std::vector<std::string>& queries) {
  LoadOptions options;
  options.port = port;
  options.connections = connections;
  options.requests_per_connection = per_connection;
  options.queries = queries;
  options.s = 1;
  options.top = 10;
  Result<LoadReport> report = RunLoad(options);
  if (!report.ok()) Die("load failed:", report.status().ToString());
  return *report;
}

double Qps(const LoadReport& report) {
  return report.elapsed_ms > 0.0
             ? static_cast<double>(report.sent) / report.elapsed_ms * 1000.0
             : 0.0;
}

void PrintRow(const char* label, const LoadReport& r) {
  std::printf("  %-22s %7.0f q/s  p50 %6.2fms  p95 %6.2fms  p99 %6.2fms"
              "  ok %llu/%llu%s\n",
              label, Qps(r), r.p50_ms, r.p95_ms, r.p99_ms,
              (unsigned long long)r.ok, (unsigned long long)r.sent,
              r.clean() ? "" : "  [NOT CLEAN]");
}

}  // namespace

void Run() {
  const size_t doc_count = 16;
  const size_t articles_per_doc = Scaled(400);
  const size_t connections = 8;
  const size_t per_connection = Scaled(250);
  const std::vector<std::string> queries = {"database", "system", "query",
                                            "data model"};

  std::string dir = "/tmp/gks_cluster_bench";
  std::string mkdir = "mkdir -p " + dir;
  if (std::system(mkdir.c_str()) != 0) Die("mkdir failed");

  std::printf("cluster_bench: %zu docs x %zu articles, %zu conns x %zu "
              "reqs (GKS_BENCH_SCALE=%.3g)\n",
              doc_count, articles_per_doc, connections, per_connection,
              Scale());

  std::vector<std::string> files;
  for (size_t i = 0; i < doc_count; ++i) {
    data::DblpOptions options;
    options.articles = articles_per_doc;
    options.seed = static_cast<uint32_t>(7 + i);
    files.push_back(dir + "/doc_" + std::to_string(i) + ".xml");
    Status status =
        WriteStringToFile(files[i], data::GenerateDblp(options));
    if (!status.ok()) Die("write failed:", status.ToString());
  }

  // The single-index baseline all scaling numbers compare against.
  std::string single_path = dir + "/single.gksidx";
  {
    IndexBuilder builder;
    for (const std::string& file : files) {
      Status status = builder.AddFile(file);
      if (!status.ok()) Die("index failed:", status.ToString());
    }
    Result<XmlIndex> index = std::move(builder).Finalize();
    if (!index.ok()) Die("finalize failed:", index.status().ToString());
    Status status = SaveIndex(*index, single_path);
    if (!status.ok()) Die("save failed:", status.ToString());
  }
  ServerConfig single_config;
  single_config.port = 0;
  GksServer single(single_config, single_path);
  if (!single.Start().ok()) Die("single server start failed");
  LoadReport base = Drive(single.port(), connections, per_connection, queries);
  std::printf("scaling (vs single index):\n");
  PrintRow("single-index", base);

  // 1. Scatter-gather scaling.
  for (size_t shard_count : {2u, 4u, 8u}) {
    std::string shard_dir = dir + "/w" + std::to_string(shard_count);
    if (std::system(("mkdir -p " + shard_dir).c_str()) != 0)
      Die("mkdir failed");
    Result<ShardManifest> manifest =
        SplitIntoShards(files, shard_count, shard_dir);
    if (!manifest.ok()) Die("shard failed:", manifest.status().ToString());
    Cluster cluster = StartCluster(shard_dir, *manifest);
    LoadReport report = Drive(cluster.coordinator->port(), connections,
                              per_connection, queries);
    char label[32];
    std::snprintf(label, sizeof(label), "%zu workers", shard_count);
    PrintRow(label, report);
    StopCluster(cluster);
  }

  // 2. Slowed worker: a background hammer saturates worker 0 directly
  // while the coordinator run measures the straggler tail.
  {
    std::string shard_dir = dir + "/w4";  // reuse the 4-way split
    Result<ShardManifest> manifest = SplitIntoShards(files, 4, shard_dir);
    if (!manifest.ok()) Die("shard failed:", manifest.status().ToString());
    Cluster cluster = StartCluster(shard_dir, *manifest);
    std::printf("failure drills:\n");
    LoadReport hammer_report;
    std::thread hammer([&] {
      hammer_report = Drive(cluster.workers[0]->port(), 4,
                            per_connection * 2, queries);
    });
    LoadReport slowed = Drive(cluster.coordinator->port(), connections,
                              per_connection, queries);
    hammer.join();
    PrintRow("one worker slowed", slowed);
    StopCluster(cluster);
  }

  // 3. Killed worker: shard 1 has a replica mirror; its primary is shut
  // down mid-run. The report must stay clean and the failovers counter
  // must advance — retries land on the mirror inside the same query.
  {
    std::string shard_dir = dir + "/kill";
    if (std::system(("mkdir -p " + shard_dir).c_str()) != 0)
      Die("mkdir failed");
    Result<ShardManifest> manifest = SplitIntoShards(files, 2, shard_dir);
    if (!manifest.ok()) Die("shard failed:", manifest.status().ToString());
    Cluster cluster = StartCluster(shard_dir, *manifest, /*mirrored=*/1);
    Counter* failovers =
        MetricsRegistry::Global().GetCounter("gks.coord.failovers_total");
    uint64_t failovers_before = failovers->value();
    LoadReport killed;
    std::thread load([&] {
      killed = Drive(cluster.coordinator->port(), connections,
                     per_connection, queries);
    });
    // Let the run get going, then take down the shard-1 primary
    // (workers[1]; workers[2] is its mirror).
    std::this_thread::sleep_for(std::chrono::milliseconds(
        Scale() >= 1.0 ? 150 : 20));
    cluster.workers[1]->RequestShutdown();
    cluster.workers[1]->Wait();
    load.join();
    uint64_t failover_count = failovers->value() - failovers_before;
    PrintRow("one worker killed", killed);
    std::printf("  killed-worker drill: clean=%s failovers=%llu "
                "degraded=%llu\n",
                killed.clean() ? "true" : "false",
                (unsigned long long)failover_count,
                (unsigned long long)killed.degraded);
    StopCluster(cluster);
  }

  single.RequestShutdown();
  single.Wait();
}

}  // namespace gks::bench

int main() {
  gks::bench::Run();
  return 0;
}
