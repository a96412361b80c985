// gks_perfbench: one seeded benchmark over the shipped serving stack
// (README.md). Each run sets up the corpus, index and in-process servers
// on loopback, drives one workload for a fixed time with client-side
// timing, checks every recorded answer after timing ends, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a separate
// single-threaded traced pass (--trace 1) as the last stdout line.
//
// Workloads, each with nproc-1 closed-loop reader connections:
//   serve_cold   one GksServer; no query repeats, so every request misses
//                the result cache;
//   cluster_zipf a coordinator over 2 shard workers; Zipf-skewed repeats
//                that the worker caches absorb;
//   rt_mixed     one --rt server; an open-loop writer at a fixed rate runs
//                beside the readers. Runnable, but not listed in
//                BENCHMARK.json: its flush spikes make its tail too noisy
//                for the regression bounds (README.md).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json_writer.h"
#include "common/metrics.h"
#include "common/simd/kernels.h"
#include "common/thread_pool.h"
#include "core/segment_search.h"
#include "index/index_builder.h"
#include "index/rt_index.h"
#include "index/serialization.h"
#include "index/shard.h"
#include "perfbench.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "traced.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 3;
// Shard workers behind the cluster_zipf coordinator.
constexpr size_t kShards = 2;
// cluster_zipf: universe size and skew. The 1024 hottest queries (the
// worker result cache's capacity) draw about 44% of the requests; the
// tail keeps missing. The head is flat: the 256 hottest share one weight,
// so none takes more than 0.07% of the draws. A plain Zipf gives the
// hottest `di` query 1.3%, and whichever one the seed puts there alone
// makes up the p99.
constexpr size_t kZipfUniverse = 8192;
constexpr double kZipfTheta = 0.8;
constexpr size_t kZipfFlatHead = 256;
// Draws in the cluster_zipf stream: more than any run can send.
constexpr size_t kZipfDraws = 1 << 20;
// rt_mixed writer: inserts per second. An idle server commits ~6k docs/s,
// but beside three busy readers 400/s already outran the writer; 300/s
// keeps up and still gives ~14 flushes of 512 documents per 20 s.
constexpr double kInsertRate = 300.0;
// Corpus entries by default. The probe and top-k floors are absolute
// posting counts, so the mechanism checks only hold from this size up.
constexpr size_t kFullArticles = 16000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  // required; emptied first
  size_t articles = kFullArticles;
  size_t traced_queries = 80;
  size_t traced_inserts = 2100;
  bool corrupt_answer = false;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "gks_perfbench: %s\n"
               "usage: gks_perfbench --workload serve_cold|cluster_zipf|"
               "rt_mixed --seed N --seconds S --trace 0|1\n"
               "       --workdir DIR [--articles N] [--traced-queries N]\n"
               "       [--traced-inserts N] [--corrupt-answer]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--corrupt-answer") {
      args.corrupt_answer = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--articles") {
      args.articles = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--traced-queries") {
      args.traced_queries = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--traced-inserts") {
      args.traced_inserts = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workload != "serve_cold" && args.workload != "cluster_zipf" &&
      args.workload != "rt_mixed") {
    Usage("unknown workload '" + args.workload + "'");
  }
  if (args.workdir.empty()) Usage("--workdir is required");
  if (args.seconds <= 0.0 || args.articles < kDocuments) {
    Usage("--seconds must be > 0 and --articles >= 16");
  }
  return args;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

void RemoveTree(const std::string& path) {
  std::error_code error;
  std::filesystem::remove_all(path, error);
}

void MakeDir(const std::string& path) {
  std::error_code error;
  std::filesystem::create_directories(path, error);
  if (error) Die("mkdir " + path + ": " + error.message());
}

std::unique_ptr<gks::GksServer> StartServer(gks::ServerConfig config,
                                            const std::string& index_path) {
  config.port = 0;
  auto server = std::make_unique<gks::GksServer>(std::move(config),
                                                 index_path);
  gks::Status status = server->Start();
  if (!status.ok()) Die("server start: " + status.ToString());
  return server;
}

void StopServer(gks::GksServer* server) {
  server->RequestShutdown();
  server->Wait();
}

/// Everything one set-up produces and the timed run drives.
struct Deployment {
  std::string dir;
  Corpus corpus;
  std::string index_path;
  std::string shard_dir;
  std::string rt_dir;
  std::vector<BenchQuery> queries;  // the distinct query universe
  std::vector<uint32_t> timed;       // indices into queries, in send order
  std::vector<uint32_t> warm;        // warm-up, same form
  std::vector<std::unique_ptr<gks::GksServer>> workers;
  std::unique_ptr<gks::GksServer> front;  // the server clients talk to
  std::vector<std::pair<std::string, double>> phase_s;  // set-up phases

  void Stop() {
    if (front != nullptr) StopServer(front.get());
    for (auto& worker : workers) StopServer(worker.get());
    front.reset();
    workers.clear();
  }
};

/// One full set-up: corpus generation, index build and save, query
/// derivation, shard split (cluster_zipf) and server start.
Deployment SetUp(const Args& args, const std::string& dir) {
  Deployment d;
  d.dir = dir;
  MakeDir(dir);
  Clock::time_point phase = Clock::now();
  auto lap = [&](const char* name) {
    d.phase_s.emplace_back(name, SecondsSince(phase));
    phase = Clock::now();
  };
  d.corpus = WriteCorpus(dir, args.seed, args.articles);
  lap("generate");
  d.index_path = dir + "/single.gksidx";
  {
    gks::IndexBuilder builder;
    for (const std::string& file : d.corpus.files) {
      gks::Status status = builder.AddFile(file);
      if (!status.ok()) Die("index: " + status.ToString());
    }
    gks::Result<gks::XmlIndex> index = std::move(builder).Finalize();
    if (!index.ok()) Die("finalize: " + index.status().ToString());
    lap("build");
    gks::Status status = gks::SaveIndex(*index, d.index_path);
    if (!status.ok()) Die("save: " + status.ToString());
    lap("save");
    d.queries = DistinctStream(*index, d.corpus.articles, args.seed);
    lap("queries");
  }
  if (d.queries.size() < 8) Die("corpus yields too few queries");

  if (args.workload == "cluster_zipf") {
    d.queries.resize(std::min(kZipfUniverse, d.queries.size()));
    d.timed = ZipfOrder(d.queries.size(), kZipfDraws, kZipfTheta,
                        kZipfFlatHead, args.seed);
    d.warm = ZipfOrder(d.queries.size(), kZipfDraws, kZipfTheta,
                       kZipfFlatHead, args.seed + 1);
  } else {
    // No query is sent twice: the warm-up takes the tail, the timed run
    // the rest, in order.
    const size_t warm = d.queries.size() / 8;
    for (uint32_t i = 0; i < d.queries.size(); ++i) {
      (i + warm < d.queries.size() ? d.timed : d.warm).push_back(i);
    }
  }

  if (args.workload == "cluster_zipf") {
    d.shard_dir = dir + "/shards";
    MakeDir(d.shard_dir);
    gks::Result<gks::ShardManifest> manifest =
        gks::SplitIntoShards(d.corpus.files, kShards, d.shard_dir);
    if (!manifest.ok()) Die("split: " + manifest.status().ToString());
    lap("split");
    std::string topology;
    for (const gks::ShardSpec& shard : manifest->shards) {
      gks::ServerConfig config;
      config.doc_base = shard.doc_base;
      d.workers.push_back(
          StartServer(config, d.shard_dir + "/" + shard.file));
      if (!topology.empty()) topology += ",";
      topology += "127.0.0.1:" + std::to_string(d.workers.back()->port());
    }
    gks::ServerConfig config;
    config.coord_shards = topology;
    d.front = StartServer(config, "");
  } else if (args.workload == "rt_mixed") {
    d.rt_dir = dir + "/rt";
    gks::ServerConfig config;
    config.rt_dir = d.rt_dir;
    d.front = StartServer(config, d.index_path);
  } else {
    d.front = StartServer(gks::ServerConfig{}, d.index_path);
  }
  lap("start");
  return d;
}

/// One client operation as recorded during the timed window.
struct Op {
  uint32_t query = 0;    // index into Deployment::queries (inserts: seq)
  double ms = 0.0;       // client round trip (inserts: from due time)
  bool transport_ok = false;
  std::string response;  // raw response line
};

/// Closed loop: `connections` threads, each with its own connection,
/// take the next unsent entry of `order` from one shared cursor — so the
/// connections drive disjoint slices of the stream and nothing repeats
/// unless `order` does — and send the next request only after the
/// previous answer arrived, until `end` or the stream runs out.
std::vector<Op> ClosedLoop(int port, const std::vector<std::string>& lines,
                           const std::vector<uint32_t>& order,
                           size_t connections, Clock::time_point end,
                           bool record) {
  std::atomic<size_t> cursor{0};
  std::vector<std::vector<Op>> per_connection(connections);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      std::optional<gks::ServerConnection> conn;
      std::vector<Op>& ops = per_connection[c];
      while (Clock::now() < end) {
        size_t next = cursor.fetch_add(1);
        if (next >= order.size()) break;
        const uint32_t j = order[next];
        Op op;
        op.query = j;
        if (!conn.has_value() || !conn->connected()) {
          gks::Result<gks::ServerConnection> opened =
              gks::ServerConnection::Open("127.0.0.1", port);
          if (opened.ok()) conn.emplace(std::move(opened).value());
        }
        Clock::time_point sent = Clock::now();
        if (conn.has_value() && conn->connected()) {
          gks::Result<std::string> line = conn->CallRaw(lines[j]);
          op.transport_ok = line.ok();
          if (line.ok() && record) {
            op.response = std::move(line).value();
          } else if (line.ok()) {
            op.response = line->substr(0, 16);  // enough for "ok"
          } else {
            conn.reset();
          }
        }
        op.ms = MsBetween(sent, Clock::now());
        ops.push_back(std::move(op));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<Op> all;
  for (std::vector<Op>& ops : per_connection) {
    for (Op& op : ops) all.push_back(std::move(op));
  }
  return all;
}

bool ResponseOk(const Op& op) {
  return op.transport_ok &&
         op.response.compare(0, 10, "{\"ok\":true") == 0;
}

/// Open-loop writer: insert i is due at start + i / rate whatever
/// happened before; its latency runs from the due time, so a stall also
/// charges the inserts queued behind it.
struct WriterResult {
  std::vector<Op> ops;
  std::vector<InsertDoc> docs;  // aligned with ops
  std::vector<double> lag_ms;   // how late each send left
  uint64_t xml_bytes = 0;
};

WriterResult OpenLoopWriter(int port, uint64_t seed, Clock::time_point start,
                            Clock::time_point end) {
  WriterResult out;
  gks::Result<gks::ServerConnection> conn =
      gks::ServerConnection::Open("127.0.0.1", port);
  for (size_t i = 0;; ++i) {
    Clock::time_point due =
        start + std::chrono::microseconds(
                    static_cast<int64_t>(1e6 * static_cast<double>(i) /
                                         kInsertRate));
    if (due >= end) break;
    InsertDoc doc = MakeInsertDoc(seed, i);
    gks::JsonWriter json;
    json.BeginObject();
    json.Key("insert").String(doc.name);
    json.Key("xml").String(doc.xml);
    json.EndObject();
    std::string line = json.Take();
    std::this_thread::sleep_until(due);
    Clock::time_point sent = Clock::now();
    Op op;
    op.query = i;
    if (conn.ok() && conn->connected()) {
      gks::Result<std::string> response = conn->CallRaw(line);
      op.transport_ok = response.ok();
      if (response.ok()) op.response = std::move(response).value();
    }
    op.ms = MsBetween(due, Clock::now());
    out.lag_ms.push_back(MsBetween(due, sent));
    out.xml_bytes += doc.xml.size();
    out.ops.push_back(std::move(op));
    out.docs.push_back(std::move(doc));
  }
  return out;
}

std::vector<double> SortedMs(const std::vector<Op>& ops) {
  std::vector<double> ms;
  ms.reserve(ops.size());
  for (const Op& op : ops) ms.push_back(op.ms);
  std::sort(ms.begin(), ms.end());
  return ms;
}

/// The highest percentile with at least 10 samples beyond it, capped at
/// the 99th.
double TailQuantile(size_t samples) {
  if (samples == 0) return 0.99;
  return std::min(0.99, std::max(0.5, 1.0 - 10.0 / samples));
}

uint64_t CounterDelta(const gks::MetricsSnapshot& before,
                      const gks::MetricsSnapshot& after,
                      const std::string& name) {
  auto a = after.counters.find(name);
  auto b = before.counters.find(name);
  uint64_t to = a != after.counters.end() ? a->second : 0;
  uint64_t from = b != before.counters.end() ? b->second : 0;
  return to > from ? to - from : 0;
}

double HistogramMeanDelta(const gks::MetricsSnapshot& before,
                          const gks::MetricsSnapshot& after,
                          const std::string& name) {
  gks::MetricsSnapshot delta = gks::MetricsSnapshot::Delta(before, after);
  auto it = delta.histograms.find(name);
  if (it == delta.histograms.end() || it->second.count == 0) return 0.0;
  return it->second.sum / static_cast<double>(it->second.count);
}

double Ratio(uint64_t hits, uint64_t misses) {
  return hits + misses > 0
             ? static_cast<double>(hits) / static_cast<double>(hits + misses)
             : 0.0;
}

/// Corrupts the first successful recorded answer (a rank digit), so the
/// correctness gate can be shown to reject a wrong answer.
void CorruptOne(std::vector<Op>* ops) {
  for (Op& op : *ops) {
    size_t rank = op.response.find("\"rank\":");
    if (ResponseOk(op) && rank != std::string::npos) {
      char& digit = op.response[rank + 7];
      digit = digit == '9' ? '8' : static_cast<char>(digit + 1);
      return;
    }
  }
}

/// Gate for serve_cold and cluster_zipf: every ok answer must match the
/// single-index GksSearcher oracle on node ids, documents, display ranks,
/// describe strings, DI and refinements. Returns the wrong-answer count.
size_t CheckAgainstOracle(const std::string& index_path,
                          const std::vector<BenchQuery>& queries,
                          const std::vector<Op>& ops) {
  gks::Result<gks::XmlIndex> oracle = gks::LoadIndex(index_path);
  if (!oracle.ok()) Die("oracle load: " + oracle.status().ToString());
  std::vector<uint32_t> asked;
  for (const Op& op : ops) asked.push_back(op.query);
  std::sort(asked.begin(), asked.end());
  asked.erase(std::unique(asked.begin(), asked.end()), asked.end());
  std::vector<std::string> expected(queries.size());
  gks::ThreadPool pool(0);
  gks::ParallelFor(&pool, asked.size(), [&](size_t i) {
    gks::Result<gks::WireRequest> request =
        gks::ParseWireRequest(queries[asked[i]].RequestLine());
    if (!request.ok()) return;
    gks::GksSearcher searcher(&*oracle);
    gks::Result<gks::SearchResponse> response =
        searcher.Search(request->query, request->options);
    if (!response.ok()) return;
    std::string wire = gks::WireResponseBuilder::Query(
        *request, *response, *oracle, oracle->epoch, 0.0);
    gks::Result<gks::JsonValue> parsed = gks::JsonValue::Parse(wire);
    if (parsed.ok()) expected[asked[i]] = Fingerprint(*parsed);
  });
  size_t wrong = 0;
  for (const Op& op : ops) {
    if (!ResponseOk(op)) continue;
    const std::string& want = expected[op.query];
    gks::Result<gks::JsonValue> got = gks::JsonValue::Parse(op.response);
    if (want.empty() || !got.ok() || Fingerprint(*got) != want) ++wrong;
  }
  return wrong;
}

/// Gate for rt_mixed: reopens the RT directory (base index included) and
/// requires every acknowledged insert to be live and found by its nonce.
size_t CheckAckedInserts(const Deployment& d, const WriterResult& writer,
                         uint64_t* live_docs) {
  gks::RtOptions options;
  options.dir = d.rt_dir;
  options.base_index_path = d.index_path;
  options.background = false;
  gks::Result<std::unique_ptr<gks::RtIndex>> rt =
      gks::RtIndex::Open(std::move(options));
  if (!rt.ok()) Die("rt reopen: " + rt.status().ToString());
  std::shared_ptr<const gks::SegmentSetSnapshot> snapshot = (*rt)->snapshot();
  *live_docs = snapshot->LiveDocuments();
  gks::SegmentSearcher searcher(snapshot);
  gks::SearchOptions search;
  search.discover_di = false;
  search.suggest_refinements = false;
  size_t missing = 0;
  for (size_t i = 0; i < writer.ops.size(); ++i) {
    if (!ResponseOk(writer.ops[i])) continue;
    gks::Result<gks::SearchResponse> response =
        searcher.Search(writer.docs[i].nonce, search);
    bool found = false;
    if (response.ok()) {
      for (const gks::GksNode& node : response->nodes) {
        const gks::Catalog::DocumentInfo* info =
            snapshot->Document(node.id.doc_id());
        if (info != nullptr && info->name == writer.docs[i].name) found = true;
      }
    }
    if (!found) ++missing;
  }
  return missing;
}

double PeakRssMb() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string Num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  RemoveTree(args.workdir);
  MakeDir(args.workdir);
  // Relative paths from here on: catalog names (and so partial bytes)
  // do not depend on where the checkout lives.
  if (::chdir(args.workdir.c_str()) != 0) Die("chdir " + args.workdir);

  const size_t nproc =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  const gks::simd::Kernels& kernels = gks::simd::Active();
  const char* simd_env = std::getenv("GKS_SIMD");
  int64_t dispatch_level = 0;
  {
    gks::MetricsSnapshot snapshot = gks::MetricsRegistry::Global().Snapshot();
    auto it = snapshot.gauges.find("gks.cpu.dispatch_level");
    if (it != snapshot.gauges.end()) dispatch_level = it->second;
  }

  // --- set-up, repeated; the last deployment is kept -------------------
  std::vector<double> setup_s;
  Deployment d;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    Clock::time_point start = Clock::now();
    Deployment candidate = SetUp(args, "rep" + std::to_string(rep));
    setup_s.push_back(SecondsSince(start));
    if (rep + 1 < kSetupRepeats) {
      candidate.Stop();
      RemoveTree(candidate.dir);
    } else {
      d = std::move(candidate);
    }
  }
  std::sort(setup_s.begin(), setup_s.end());
  const int port = d.front->port();
  const bool cluster = args.workload == "cluster_zipf";
  const bool rt = args.workload == "rt_mixed";
  // One core stays free for the client threads and the system: with
  // every core serving, run-to-run spread on a shared host doubled.
  const size_t readers = std::max<size_t>(1, nproc - 1);

  std::vector<std::string> lines;
  for (const BenchQuery& query : d.queries) {
    lines.push_back(query.RequestLine());
  }

  // --- warm-up: untimed, disjoint from the timed stream where it must be.
  // cluster_zipf warms longer, so the worker caches hold most of the hot
  // head before timing starts.
  const double warm_s = std::min(cluster ? 3.0 : 1.0, 0.2 * args.seconds);
  {
    ClosedLoop(port, lines, d.warm, readers,
               Clock::now() + std::chrono::microseconds(
                                  static_cast<int64_t>(warm_s * 1e6)),
               false);
  }

  // --- timed run -------------------------------------------------------
  gks::MetricsSnapshot before = gks::MetricsRegistry::Global().Snapshot();
  Clock::time_point start = Clock::now();
  Clock::time_point end =
      start + std::chrono::microseconds(
                  static_cast<int64_t>(args.seconds * 1e6));
  WriterResult writer;
  std::thread writer_thread;
  if (rt) {
    writer_thread = std::thread(
        [&] { writer = OpenLoopWriter(port, args.seed, start, end); });
  }
  std::vector<Op> reads = ClosedLoop(port, lines, d.timed, readers, end, true);
  double elapsed_s = SecondsSince(start);
  if (writer_thread.joinable()) writer_thread.join();
  gks::MetricsSnapshot after = gks::MetricsRegistry::Global().Snapshot();
  const double peak_rss_mb = PeakRssMb();

  // --- stored bytes (rt_mixed: after the final flush) ------------------
  uint64_t stored = 0;
  uint64_t input_bytes = d.corpus.xml_bytes;
  if (rt) {
    gks::Result<gks::ServerConnection> conn =
        gks::ServerConnection::Open("127.0.0.1", port);
    if (!conn.ok() || !conn->Admin("flush").ok()) Die("final flush failed");
    stored = DiskBytes(d.rt_dir) + DiskBytes(d.index_path);
    input_bytes += writer.xml_bytes;
  } else if (cluster) {
    stored = DiskBytes(d.shard_dir);
  } else {
    stored = DiskBytes(d.index_path);
  }
  d.Stop();

  // --- correctness gate ------------------------------------------------
  if (args.corrupt_answer) {
    if (rt) {
      for (size_t i = 0; i < writer.ops.size(); ++i) {
        if (ResponseOk(writer.ops[i])) {
          writer.docs[i].nonce += "q";
          break;
        }
      }
    } else {
      CorruptOne(&reads);
    }
  }
  size_t failed = 0;
  size_t ok_reads = 0;
  for (const Op& op : reads) {
    if (ResponseOk(op)) {
      ++ok_reads;
    } else {
      ++failed;
    }
  }
  size_t ok_inserts = 0;
  for (const Op& op : writer.ops) {
    if (ResponseOk(op)) {
      ++ok_inserts;
    } else {
      ++failed;
    }
  }
  size_t wrong = 0;
  uint64_t live_docs = 0;
  if (rt) {
    wrong = CheckAckedInserts(d, writer, &live_docs);
  } else {
    wrong = CheckAgainstOracle(d.index_path, d.queries, reads);
  }
  failed += wrong;
  const size_t attempted = reads.size() + writer.ops.size();

  // --- metrics ---------------------------------------------------------
  std::vector<double> read_ms = SortedMs(reads);
  std::vector<double> insert_ms = SortedMs(writer.ops);
  std::vector<double> lag_ms = writer.lag_ms;
  std::sort(lag_ms.begin(), lag_ms.end());
  const double read_tail = TailQuantile(read_ms.size());
  const double insert_tail = TailQuantile(insert_ms.size());
  std::vector<uint32_t> asked;
  for (const Op& op : reads) asked.push_back(op.query);
  std::sort(asked.begin(), asked.end());
  const size_t distinct_asked =
      std::unique(asked.begin(), asked.end()) - asked.begin();

  Metrics metrics;
  if (!args.trace) {
    metrics.push_back({"setup_s", Quantile(setup_s, 0.5), "s"});
    metrics.push_back(
        {"query_qps", static_cast<double>(ok_reads) / elapsed_s, "1/s"});
    metrics.push_back({"query_p50_ms", Quantile(read_ms, 0.5), "ms"});
    metrics.push_back({"query_p99_ms", Quantile(read_ms, read_tail), "ms"});
    metrics.push_back({"stored_bytes_per_xml_byte",
                       static_cast<double>(stored) /
                           static_cast<double>(input_bytes),
                       "ratio"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  } else {
    TracedInputs inputs;
    inputs.dir = "traced";
    inputs.corpus = &d.corpus;
    inputs.seed = args.seed;
    inputs.inserts = args.traced_inserts;
    inputs.check_mechanisms = args.articles >= kFullArticles;
    for (size_t i = 0; i < d.timed.size() && i < args.traced_queries; ++i) {
      inputs.stream.push_back(d.queries[d.timed[i]]);
    }
    metrics = RunTracedPass(inputs);
    metrics.push_back(
        {"core.cache_hit_ratio",
         Ratio(CounterDelta(before, after, "gks.search.cache.hits_total"),
               CounterDelta(before, after, "gks.search.cache.misses_total")),
         "ratio"});
    metrics.push_back(
        {"coord.wire_cache_hit_ratio",
         Ratio(CounterDelta(before, after,
                            "gks.server.shard_cache_hits_total"),
               CounterDelta(before, after,
                            "gks.server.shard_cache_misses_total")),
         "ratio"});
    metrics.push_back(
        {"server.queue_wait_ms",
         HistogramMeanDelta(before, after, "gks.server.queue_wait_ms"),
         "ms"});
  }

  // Context line: host facts, sample counts and cache exposure.
  gks::JsonWriter report;
  report.BeginObject();
  report.Key("workload").String(args.workload);
  report.Key("host").BeginObject();
  report.Key("nproc").UInt(nproc);
  report.Key("dispatch_level").Int(dispatch_level);
  report.Key("kernels").String(kernels.name);
  report.Key("GKS_SIMD").String(simd_env != nullptr ? simd_env : "");
  report.Key("build_type").String(PERFBENCH_BUILD_TYPE);
  report.EndObject();
  report.Key("seed").UInt(args.seed);
  report.Key("corpus").BeginObject();
  report.Key("documents").UInt(d.corpus.files.size());
  report.Key("articles").UInt(d.corpus.articles);
  report.Key("xml_bytes").UInt(d.corpus.xml_bytes);
  report.EndObject();
  report.Key("seconds").Double(elapsed_s, 3);
  report.Key("connections").UInt(readers);
  report.Key("queries").UInt(reads.size());
  report.Key("distinct_queries").UInt(distinct_asked);
  report.Key("query_universe").UInt(d.queries.size());
  report.Key("stream_exhausted").Bool(reads.size() >= d.timed.size());
  report.Key("query_tail_percentile").Double(100.0 * read_tail, 2);
  report.Key("query_mean_ms_by_class").BeginObject();
  for (size_t c = 0; c < kClassCount; ++c) {
    double total = 0.0;
    size_t count = 0;
    for (const Op& op : reads) {
      if (static_cast<size_t>(d.queries[op.query].cls) != c) continue;
      total += op.ms;
      ++count;
    }
    report.Key(ClassName(static_cast<QueryClass>(c)))
        .Double(count > 0 ? total / static_cast<double>(count) : 0.0, 3);
  }
  report.EndObject();
  report.Key("wrong_answers").UInt(wrong);
  report.Key("fail_frac")
      .Double(attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              6);
  report.Key("setup_s").BeginArray();
  for (double s : setup_s) report.Double(s, 4);
  report.EndArray();
  report.Key("setup_phases_s").BeginObject();
  for (const auto& [name, s] : d.phase_s) report.Key(name).Double(s, 4);
  report.EndObject();
  report.Key("result_cache_hit_ratio")
      .Double(Ratio(CounterDelta(before, after, "gks.search.cache.hits_total"),
                    CounterDelta(before, after,
                                 "gks.search.cache.misses_total")),
              4);
  report.Key("wire_cache_hit_ratio")
      .Double(Ratio(CounterDelta(before, after,
                                 "gks.server.shard_cache_hits_total"),
                    CounterDelta(before, after,
                                 "gks.server.shard_cache_misses_total")),
              4);
  if (cluster) {
    report.Key("coord_fanout_live_ms")
        .Double(HistogramMeanDelta(before, after, "gks.coord.fanout_ms"), 4);
  }
  if (rt) {
    report.Key("inserts").UInt(writer.ops.size());
    report.Key("inserts_acked").UInt(ok_inserts);
    report.Key("insert_p50_ms").Double(Quantile(insert_ms, 0.5), 4);
    report.Key("insert_p99_ms").Double(Quantile(insert_ms, insert_tail), 4);
    report.Key("insert_tail_percentile").Double(100.0 * insert_tail, 2);
    report.Key("rt_gen_lag_ms_p99").Double(Quantile(lag_ms, insert_tail), 4);
    report.Key("rt_live_docs").UInt(live_docs);
    report.Key("rt_flushes")
        .UInt(CounterDelta(before, after, "gks.rt.flushes_total"));
    report.Key("rt_merges")
        .UInt(CounterDelta(before, after, "gks.rt.merges_total"));
  }
  report.EndObject();
  std::printf("%s\n", report.str().c_str());

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
