#include "server/command.h"

#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/file_io.h"
#include "common/json_writer.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "server/client.h"
#include "server/server.h"

namespace gks {
namespace {

/// Signal target. std::signal handlers may only touch lock-free atomics;
/// Request{Shutdown,Reload} are exactly that, so the handlers delegate
/// directly and the accept loop acts within one poll tick.
GksServer* g_server = nullptr;

void OnTerminate(int) {
  if (g_server != nullptr) g_server->RequestShutdown();
}

void OnHangup(int) {
  if (g_server != nullptr) g_server->RequestReload();
}

int ServeUsage() {
  std::fprintf(stderr,
               "usage: gks serve [<index.gksidx>] [--port=N] [--host=H]\n"
               "        [--threads=N] [--queue=N] [--deadline-ms=D]\n"
               "        [--cache-bytes=N] [--max-request-bytes=N]\n"
               "        [--rt=DIR] [--rt-flush-docs=N] [--rt-flush-bytes=N]\n"
               "        [--rt-merge-fanout=N] [--rt-fsync=always|off]\n"
               "        [--coord-shards=H:P[|H:P..][,H:P..]]\n"
               "        [--coord-deadline-ms=D] [--coord-retries=N]\n"
               "        [--coord-backoff-ms=D] [--coord-partial]\n"
               "(an index file, --rt, or both; with both, the file is the\n"
               " immutable base the real-time index grows from;\n"
               " --coord-shards instead makes this server a shard\n"
               " coordinator with no index of its own, docs/DISTRIBUTED.md)\n");
  return 2;
}

int ClientUsage() {
  std::fprintf(
      stderr,
      "usage: gks client [--host=H] [--port=N]\n"
      "        --admin=health|metrics|stats|reload|flush|quit [--path=P]\n"
      "      | --query=\"<query>\" [--s=N] [--top=N] [--top-k=K] [--explain]\n"
      "        [--plan=auto|merge|probe]\n"
      "      | --insert-file=DOC.xml [--name=N]   (real-time insert;\n"
      "        name defaults to the file's basename)\n"
      "      | --delete=NAME                      (real-time delete)\n"
      "      | --queries=FILE [--connections=C] [--requests=N]\n"
      "        [--s=N] [--top=N] [--top-k=K] "
      "[--plan=auto|merge|probe]\n"
      "        [--json-out=FILE]\n");
  return 2;
}

}  // namespace

int RunServeCommand(const FlagParser& flags) {
  // An unknown flag, a count that is not a whole non-negative number, or
  // a time budget that is not a finite non-negative number fails before
  // anything binds: a server that silently ignored a typo'd or removed
  // option would run with a setting nobody asked for.
  if (Status status = flags.Validate(
          {"host", "rt", "rt-fsync", "coord-shards", "coord-partial"},
          {"port", "threads", "queue", "cache-bytes", "max-request-bytes",
           "rt-flush-docs", "rt-flush-bytes", "rt-merge-fanout",
           "coord-retries"},
          {"deadline-ms", "coord-deadline-ms", "coord-backoff-ms"});
      !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 2;
  }
  const auto& args = flags.positional();

  ServerConfig config;
  config.host = flags.GetString("host", "127.0.0.1");
  config.port = static_cast<int>(flags.GetInt("port", 4570));
  config.threads = static_cast<size_t>(flags.GetInt("threads", 0));
  config.queue_depth = static_cast<size_t>(flags.GetInt("queue", 128));
  config.deadline_ms = flags.GetDouble("deadline-ms", 0.0);
  config.cache_capacity =
      static_cast<size_t>(flags.GetInt("cache-bytes", 64 << 20));
  config.max_request_bytes =
      static_cast<size_t>(flags.GetInt("max-request-bytes", 1 << 20));
  config.rt_dir = flags.GetString("rt", "");
  config.rt_flush_docs =
      static_cast<size_t>(flags.GetInt("rt-flush-docs", 512));
  config.rt_flush_bytes =
      static_cast<size_t>(flags.GetInt("rt-flush-bytes", 8 << 20));
  config.rt_merge_fanout =
      static_cast<size_t>(flags.GetInt("rt-merge-fanout", 4));
  std::string rt_fsync = flags.GetString("rt-fsync", "always");
  if (rt_fsync != "always" && rt_fsync != "off") {
    std::fprintf(stderr, "error: --rt-fsync must be 'always' or 'off'\n");
    return 2;
  }
  config.rt_fsync = rt_fsync == "always";
  config.coord_shards = flags.GetString("coord-shards", "");
  config.coord_deadline_ms = flags.GetDouble("coord-deadline-ms", 2000.0);
  config.coord_retries = static_cast<int>(flags.GetInt("coord-retries", 2));
  config.coord_backoff_ms = flags.GetDouble("coord-backoff-ms", 20.0);
  config.coord_partial = flags.GetBool("coord-partial");

  // The positional index is optional when --rt gives the server a home or
  // --coord-shards makes it an index-less coordinator; with an index and
  // --rt, the file serves as the immutable base segment.
  if (args.size() < 2 && config.rt_dir.empty() &&
      config.coord_shards.empty()) {
    return ServeUsage();
  }

  GksServer server(config, args.size() >= 2 ? args[1] : std::string());
  if (Status status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGTERM, OnTerminate);
  std::signal(SIGINT, OnTerminate);
  std::signal(SIGHUP, OnHangup);
  std::signal(SIGPIPE, SIG_IGN);  // broken clients must not kill the server

  // One parseable line for operators and the smoke script; keep the
  // `listening on <host>:<port>` phrase stable (scripts/check_server.sh).
  std::printf("gks server listening on %s:%d (epoch %llu, %zu threads, "
              "queue %zu, cache %zu bytes, deadline %.1fms)\n",
              config.host.c_str(), server.port(),
              (unsigned long long)server.epoch(),
              config.threads == 0 ? ThreadPool::DefaultThreads()
                                  : config.threads,
              config.queue_depth, config.cache_capacity, config.deadline_ms);
  std::fflush(stdout);

  server.Wait();
  g_server = nullptr;

  MetricsRegistry& registry = MetricsRegistry::Global();
  std::printf("gks server drained: %llu requests (%llu queries, "
              "%llu shed, %llu errors) on %llu connections\n",
              (unsigned long long)
                  registry.GetCounter("gks.server.requests_total")->value(),
              (unsigned long long)
                  registry.GetCounter("gks.server.queries_total")->value(),
              (unsigned long long)
                  registry.GetCounter("gks.server.shed_total")->value(),
              (unsigned long long)
                  registry.GetCounter("gks.server.errors_total")->value(),
              (unsigned long long)
                  registry.GetCounter("gks.server.connections_total")
                      ->value());
  return 0;
}

int RunClientCommand(const FlagParser& flags) {
  // Same rule as the server: a typo'd flag or a malformed count fails
  // before any connection is made.
  if (Status status = flags.Validate(
          {"host", "admin", "path", "query", "explain", "plan",
           "insert-file", "name", "delete", "queries", "json-out"},
          {"port", "s", "top", "top-k", "connections", "requests"});
      !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 2;
  }
  std::string host = flags.GetString("host", "127.0.0.1");
  int port = static_cast<int>(flags.GetInt("port", 4570));

  if (flags.Has("admin")) {
    std::string verb = flags.GetString("admin", "");
    Result<ServerConnection> connection = ServerConnection::Open(host, port);
    if (!connection.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   connection.status().ToString().c_str());
      return 1;
    }
    Result<JsonValue> response =
        connection->Admin(verb, flags.GetString("path", ""));
    if (!response.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    const JsonValue* ok = response->Find("ok");
    bool success = ok != nullptr && ok->GetBool();
    // Pretty-print the interesting fields; fall back to noting failure.
    if (const JsonValue* status = response->Find("status")) {
      std::printf("status: %s\n", status->GetString().c_str());
    }
    if (const JsonValue* epoch = response->Find("epoch")) {
      std::printf("epoch : %lld\n", (long long)epoch->GetInt());
    }
    if (const JsonValue* error = response->Find("error")) {
      std::printf("error : %s\n", error->GetString().c_str());
    }
    if (const JsonValue* message = response->Find("message")) {
      std::printf("message: %s\n", message->GetString().c_str());
    }
    if (const JsonValue* load = response->Find("load")) {
      std::printf("load  : inflight=%lld queue_depth=%lld "
                  "connections=%lld draining=%s\n",
                  (long long)(load->Find("inflight")
                                  ? load->Find("inflight")->GetInt() : 0),
                  (long long)(load->Find("queue_depth")
                                  ? load->Find("queue_depth")->GetInt() : 0),
                  (long long)(load->Find("connections")
                                  ? load->Find("connections")->GetInt() : 0),
                  load->Find("draining") &&
                          load->Find("draining")->GetBool()
                      ? "true" : "false");
    }
    if (const JsonValue* index = response->Find("index")) {
      std::printf("index : %s — %lld docs, %lld elements, %lld terms, "
                  "%lld postings\n",
                  index->Find("path")
                      ? index->Find("path")->GetString().c_str() : "?",
                  (long long)(index->Find("documents")
                                  ? index->Find("documents")->GetInt() : 0),
                  (long long)(index->Find("elements")
                                  ? index->Find("elements")->GetInt() : 0),
                  (long long)(index->Find("terms")
                                  ? index->Find("terms")->GetInt() : 0),
                  (long long)(index->Find("postings")
                                  ? index->Find("postings")->GetInt() : 0));
    }
    if (const JsonValue* rt = response->Find("rt")) {
      auto field = [rt](const char* key) -> long long {
        const JsonValue* value = rt->Find(key);
        return value != nullptr ? (long long)value->GetInt() : 0;
      };
      std::printf("rt    : %lld live docs (%lld in ram, %lld segments, "
                  "%lld tombstones), wal_records=%lld replayed=%lld "
                  "flushes=%lld merges=%lld purged=%lld\n",
                  field("live_docs"), field("ram_docs"),
                  field("disk_segments"), field("tombstones"),
                  field("wal_records"), field("replayed_records"),
                  field("flushes"), field("merges"), field("purged_docs"));
    }
    if (const JsonValue* metrics = response->Find("metrics")) {
      // Metrics come back as a full registry snapshot; print counter
      // lines, which is what operators grep for, then each histogram's
      // count, sum and mean (a stage's time per observation).
      if (const JsonValue* counters = metrics->Find("counters")) {
        for (const auto& [name, value] : counters->members()) {
          std::printf("%-44s %lld\n", name.c_str(),
                      (long long)value.GetInt());
        }
      }
      if (const JsonValue* histograms = metrics->Find("histograms")) {
        for (const auto& [name, value] : histograms->members()) {
          const JsonValue* count = value.Find("count");
          const JsonValue* sum = value.Find("sum");
          const int64_t n = count != nullptr ? count->GetInt() : 0;
          const double total = sum != nullptr ? sum->GetDouble() : 0.0;
          std::printf("histogram %-44s count=%lld sum=%.3f mean=%.3f\n",
                      name.c_str(), (long long)n, total,
                      n > 0 ? total / static_cast<double>(n) : 0.0);
        }
      }
    }
    return success ? 0 : 1;
  }

  if (flags.Has("query")) {
    Result<ServerConnection> connection = ServerConnection::Open(host, port);
    if (!connection.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   connection.status().ToString().c_str());
      return 1;
    }
    JsonWriter request;
    request.BeginObject();
    request.Key("query").String(flags.GetString("query", ""));
    request.Key("s").UInt(static_cast<uint64_t>(flags.GetInt("s", 1)));
    request.Key("top").UInt(static_cast<uint64_t>(flags.GetInt("top", 10)));
    if (flags.GetInt("top-k", 0) > 0) {
      request.Key("top_k")
          .UInt(static_cast<uint64_t>(flags.GetInt("top-k", 0)));
    }
    if (flags.GetBool("explain")) request.Key("explain").Bool(true);
    if (flags.Has("plan")) {
      request.Key("plan").String(flags.GetString("plan", "auto"));
    }
    request.EndObject();
    Result<JsonValue> response = connection->Call(request.str());
    if (!response.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    const JsonValue* ok = response->Find("ok");
    if (ok == nullptr || !ok->GetBool()) {
      const JsonValue* error = response->Find("error");
      const JsonValue* message = response->Find("message");
      std::fprintf(stderr, "error: %s: %s\n",
                   error ? error->GetString().c_str() : "unknown",
                   message ? message->GetString().c_str() : "");
      return 1;
    }
    const JsonValue* plan = response->Find("plan");
    std::printf("epoch %lld, %zu nodes (|S_L|=%lld, candidates=%lld, "
                "plan=%s) in %.3fms\n",
                (long long)response->Find("epoch")->GetInt(),
                response->Find("nodes")->size(),
                (long long)response->Find("merged_list_size")->GetInt(),
                (long long)response->Find("candidates")->GetInt(),
                plan != nullptr ? plan->GetString().c_str() : "?",
                response->Find("elapsed_ms")->GetDouble());
    for (const JsonValue& node : response->Find("nodes")->items()) {
      const JsonValue* describe = node.Find("describe");
      std::printf("  %s\n",
                  describe ? describe->GetString().c_str() : "?");
    }
    if (const JsonValue* di = response->Find("di")) {
      for (const JsonValue& keyword : di->items()) {
        std::printf("DI: %s (weight=%.2f support=%lld)\n",
                    keyword.Find("value")
                        ? keyword.Find("value")->GetString().c_str() : "?",
                    keyword.Find("weight")
                        ? keyword.Find("weight")->GetDouble() : 0.0,
                    (long long)(keyword.Find("support")
                                    ? keyword.Find("support")->GetInt()
                                    : 0));
      }
    }
    return 0;
  }

  if (flags.Has("insert-file")) {
    std::string path = flags.GetString("insert-file", "");
    std::string xml;
    if (Status status = ReadFileToString(path, &xml); !status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::string name = flags.GetString("name", "");
    if (name.empty()) {
      size_t slash = path.find_last_of('/');
      name = slash == std::string::npos ? path : path.substr(slash + 1);
    }
    Result<ServerConnection> connection = ServerConnection::Open(host, port);
    if (!connection.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   connection.status().ToString().c_str());
      return 1;
    }
    Result<JsonValue> response = connection->Insert(name, xml);
    if (!response.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    const JsonValue* ok = response->Find("ok");
    if (ok == nullptr || !ok->GetBool()) {
      const JsonValue* error = response->Find("error");
      const JsonValue* message = response->Find("message");
      std::fprintf(stderr, "error: %s: %s\n",
                   error ? error->GetString().c_str() : "unknown",
                   message ? message->GetString().c_str() : "");
      return 1;
    }
    std::printf("inserted %s as doc %lld (epoch %lld)\n", name.c_str(),
                (long long)(response->Find("doc_id")
                                ? response->Find("doc_id")->GetInt() : -1),
                (long long)(response->Find("epoch")
                                ? response->Find("epoch")->GetInt() : 0));
    return 0;
  }

  if (flags.Has("delete")) {
    Result<ServerConnection> connection = ServerConnection::Open(host, port);
    if (!connection.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   connection.status().ToString().c_str());
      return 1;
    }
    std::string name = flags.GetString("delete", "");
    Result<JsonValue> response = connection->Remove(name);
    if (!response.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    const JsonValue* ok = response->Find("ok");
    if (ok == nullptr || !ok->GetBool()) {
      const JsonValue* error = response->Find("error");
      const JsonValue* message = response->Find("message");
      std::fprintf(stderr, "error: %s: %s\n",
                   error ? error->GetString().c_str() : "unknown",
                   message ? message->GetString().c_str() : "");
      return 1;
    }
    bool found = response->Find("found") != nullptr &&
                 response->Find("found")->GetBool();
    std::printf("delete %s: %s (epoch %lld)\n", name.c_str(),
                found ? "deleted" : "not found",
                (long long)(response->Find("epoch")
                                ? response->Find("epoch")->GetInt() : 0));
    return found ? 0 : 1;
  }

  if (flags.Has("queries")) {
    std::string text;
    if (Status status =
            ReadFileToString(flags.GetString("queries", ""), &text);
        !status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    LoadOptions options;
    options.host = host;
    options.port = port;
    options.connections =
        static_cast<size_t>(flags.GetInt("connections", 4));
    options.requests_per_connection =
        static_cast<size_t>(flags.GetInt("requests", 100));
    options.s = static_cast<uint32_t>(flags.GetInt("s", 1));
    options.top = static_cast<size_t>(flags.GetInt("top", 10));
    options.top_k = static_cast<uint32_t>(flags.GetInt("top-k", 0));
    if (flags.Has("plan")) options.plan = flags.GetString("plan", "auto");
    for (std::string& line : SplitString(text, '\n')) {
      size_t begin = line.find_first_not_of(" \t\r");
      if (begin == std::string::npos || line[begin] == '#') continue;
      size_t end = line.find_last_not_of(" \t\r");
      options.queries.push_back(line.substr(begin, end - begin + 1));
    }
    Result<LoadReport> report = RunLoad(options);
    if (!report.ok()) {
      std::fprintf(stderr, "error: %s\n", report.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", report->ToString().c_str());
    if (flags.Has("json-out")) {
      if (Status status = WriteStringToFile(flags.GetString("json-out", ""),
                                            report->ToJson() + "\n");
          !status.ok()) {
        std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
        return 1;
      }
    }
    return report->clean() ? 0 : 1;
  }

  return ClientUsage();
}

}  // namespace gks
