#include "server/client.h"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <utility>

#include "common/json_writer.h"
#include "common/timer.h"
#include "server/net.h"

namespace gks {
namespace {

/// The reader of a connection that has no socket.
net::LineReader Unconnected() {
  return net::LineReader(-1, net::LineReader::kUnbounded);
}

}  // namespace

ServerConnection::~ServerConnection() { Close(); }

ServerConnection::ServerConnection(ServerConnection&& other) noexcept
    : reader_(std::exchange(other.reader_, Unconnected())) {}

ServerConnection& ServerConnection::operator=(
    ServerConnection&& other) noexcept {
  if (this != &other) {
    Close();
    reader_ = std::exchange(other.reader_, Unconnected());
  }
  return *this;
}

void ServerConnection::Close() {
  net::CloseFd(reader_.fd());
  reader_ = Unconnected();
}

Result<ServerConnection> ServerConnection::Open(const std::string& host,
                                                int port) {
  ServerConnection connection;
  GKS_ASSIGN_OR_RETURN(int fd, net::Connect(host, port));
  connection.reader_ = net::LineReader(fd, net::LineReader::kUnbounded);
  return connection;
}

Result<JsonValue> ServerConnection::Call(const std::string& request_json) {
  GKS_ASSIGN_OR_RETURN(std::string line, CallRaw(request_json));
  return JsonValue::Parse(line);
}

Result<std::string> ServerConnection::CallRaw(
    const std::string& request_json) {
  if (!connected()) return Status::IOError("not connected");
  GKS_RETURN_IF_ERROR(net::WriteAll(reader_.fd(), request_json + "\n"));
  std::string line;
  Status status = reader_.ReadLine(&line);
  if (status.code() == StatusCode::kNotFound) {
    return Status::IOError("server closed the connection");
  }
  GKS_RETURN_IF_ERROR(status);
  return line;
}

Result<JsonValue> ServerConnection::Query(const std::string& query_text,
                                          uint32_t s, size_t top,
                                          const std::string& plan,
                                          uint32_t top_k) {
  JsonWriter json;
  json.BeginObject();
  json.Key("query").String(query_text);
  json.Key("s").UInt(s);
  json.Key("top").UInt(top);
  if (!plan.empty()) json.Key("plan").String(plan);
  if (top_k > 0) json.Key("top_k").UInt(top_k);
  json.EndObject();
  return Call(json.str());
}

Result<JsonValue> ServerConnection::Admin(const std::string& verb,
                                          const std::string& reload_path) {
  JsonWriter json;
  json.BeginObject();
  json.Key("cmd").String(verb);
  if (!reload_path.empty()) json.Key("path").String(reload_path);
  json.EndObject();
  return Call(json.str());
}

Result<JsonValue> ServerConnection::Insert(const std::string& name,
                                           const std::string& xml) {
  JsonWriter json;
  json.BeginObject();
  json.Key("insert").String(name);
  json.Key("xml").String(xml);
  json.EndObject();
  return Call(json.str());
}

Result<JsonValue> ServerConnection::Remove(const std::string& name) {
  JsonWriter json;
  json.BeginObject();
  json.Key("delete").String(name);
  json.EndObject();
  return Call(json.str());
}

std::string LoadReport::ToString() const {
  char buffer[512];
  double seconds = elapsed_ms / 1000.0;
  std::snprintf(
      buffer, sizeof(buffer),
      "%llu requests: %llu ok (%llu degraded), %llu overloaded, "
      "%llu deadline, %llu errors, %llu transport, %llu bad-json in "
      "%.2fms (%.1f q/s; p50=%.3fms p95=%.3fms p99=%.3fms max=%.3fms; "
      "%zu epoch%s)",
      (unsigned long long)sent, (unsigned long long)ok,
      (unsigned long long)degraded, (unsigned long long)overloaded,
      (unsigned long long)deadline_exceeded,
      (unsigned long long)other_errors,
      (unsigned long long)transport_failures,
      (unsigned long long)invalid_json, elapsed_ms,
      seconds > 0.0 ? static_cast<double>(sent) / seconds : 0.0, p50_ms,
      p95_ms, p99_ms, max_ms, epochs_seen.size(),
      epochs_seen.size() == 1 ? "" : "s");
  return buffer;
}

std::string LoadReport::ToJson() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("sent").UInt(sent);
  json.Key("ok").UInt(ok);
  json.Key("degraded").UInt(degraded);
  json.Key("overloaded").UInt(overloaded);
  json.Key("deadline_exceeded").UInt(deadline_exceeded);
  json.Key("other_errors").UInt(other_errors);
  json.Key("transport_failures").UInt(transport_failures);
  json.Key("invalid_json").UInt(invalid_json);
  json.Key("elapsed_ms").Double(elapsed_ms);
  double seconds = elapsed_ms / 1000.0;
  json.Key("qps").Double(
      seconds > 0.0 ? static_cast<double>(sent) / seconds : 0.0);
  json.Key("p50_ms").Double(p50_ms);
  json.Key("p95_ms").Double(p95_ms);
  json.Key("p99_ms").Double(p99_ms);
  json.Key("max_ms").Double(max_ms);
  json.Key("epochs").BeginArray();
  for (uint64_t epoch : epochs_seen) json.UInt(epoch);
  json.EndArray();
  json.Key("clean").Bool(clean());
  json.EndObject();
  return json.Take();
}

Result<LoadReport> RunLoad(const LoadOptions& options) {
  if (options.queries.empty()) {
    return Status::InvalidArgument("load generator needs >= 1 query");
  }
  struct WorkerResult {
    LoadReport report;
    std::vector<double> latencies_ms;
  };
  std::vector<WorkerResult> results(options.connections);
  std::vector<std::thread> workers;
  workers.reserve(options.connections);
  WallTimer timer;
  for (size_t w = 0; w < options.connections; ++w) {
    workers.emplace_back([&options, &results, w] {
      WorkerResult& result = results[w];
      Result<ServerConnection> connection =
          ServerConnection::Open(options.host, options.port);
      if (!connection.ok()) {
        // Count every planned request as a transport failure so the
        // totals still add up for the caller.
        result.report.sent = options.requests_per_connection;
        result.report.transport_failures = options.requests_per_connection;
        return;
      }
      for (size_t i = 0; i < options.requests_per_connection; ++i) {
        const std::string& query =
            options.queries[(w + i) % options.queries.size()];
        ++result.report.sent;
        WallTimer request_timer;
        Result<JsonValue> response =
            connection->Query(query, options.s, options.top, options.plan,
                              options.top_k);
        result.latencies_ms.push_back(request_timer.ElapsedMillis());
        if (!response.ok()) {
          ++result.report.transport_failures;
          break;  // the stream is broken; stop this connection
        }
        if (!response->is_object() || !response->Has("ok")) {
          ++result.report.invalid_json;
          continue;
        }
        if (response->Find("ok")->GetBool()) {
          ++result.report.ok;
          if (const JsonValue* flag = response->Find("degraded");
              flag != nullptr && flag->GetBool()) {
            ++result.report.degraded;
          }
          if (const JsonValue* epoch = response->Find("epoch")) {
            result.report.epochs_seen.push_back(
                static_cast<uint64_t>(epoch->GetInt()));
          }
          continue;
        }
        const JsonValue* error = response->Find("error");
        const std::string& code = error ? error->GetString() : "";
        if (code == "overloaded") {
          ++result.report.overloaded;
        } else if (code == "deadline_exceeded") {
          ++result.report.deadline_exceeded;
        } else {
          ++result.report.other_errors;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  LoadReport merged;
  merged.elapsed_ms = timer.ElapsedMillis();
  std::vector<double> latencies;
  for (WorkerResult& result : results) {
    merged.sent += result.report.sent;
    merged.ok += result.report.ok;
    merged.degraded += result.report.degraded;
    merged.overloaded += result.report.overloaded;
    merged.deadline_exceeded += result.report.deadline_exceeded;
    merged.other_errors += result.report.other_errors;
    merged.transport_failures += result.report.transport_failures;
    merged.invalid_json += result.report.invalid_json;
    merged.epochs_seen.insert(merged.epochs_seen.end(),
                              result.report.epochs_seen.begin(),
                              result.report.epochs_seen.end());
    latencies.insert(latencies.end(), result.latencies_ms.begin(),
                     result.latencies_ms.end());
  }
  std::sort(merged.epochs_seen.begin(), merged.epochs_seen.end());
  merged.epochs_seen.erase(
      std::unique(merged.epochs_seen.begin(), merged.epochs_seen.end()),
      merged.epochs_seen.end());
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    auto at = [&latencies](double p) {
      size_t i = static_cast<size_t>(p * static_cast<double>(latencies.size() - 1));
      return latencies[i];
    };
    merged.p50_ms = at(0.50);
    merged.p95_ms = at(0.95);
    merged.p99_ms = at(0.99);
    merged.max_ms = latencies.back();
  }
  return merged;
}

}  // namespace gks
