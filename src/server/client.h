#ifndef GKS_SERVER_CLIENT_H_
#define GKS_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json_value.h"
#include "common/result.h"
#include "server/net.h"

namespace gks {

/// Client side of the docs/SERVER.md wire protocol: one blocking
/// connection plus a multi-connection load generator. Shared by the
/// `gks client` command and the server integration/smoke tests.
class ServerConnection {
 public:
  ServerConnection() = default;
  ~ServerConnection();
  ServerConnection(ServerConnection&& other) noexcept;
  ServerConnection& operator=(ServerConnection&& other) noexcept;
  ServerConnection(const ServerConnection&) = delete;
  ServerConnection& operator=(const ServerConnection&) = delete;

  static Result<ServerConnection> Open(const std::string& host, int port);

  /// Sends one raw request line (newline appended) and blocks for the
  /// response line, parsed as JSON. IOError when the server closed.
  Result<JsonValue> Call(const std::string& request_json);
  /// Same round trip, returning the raw response line unparsed — the
  /// byte-identity tests and diff scripts compare these directly.
  Result<std::string> CallRaw(const std::string& request_json);

  /// Convenience wrappers over Call. A non-empty `plan` is forwarded as
  /// the wire `plan` field (execution-strategy override, docs/SERVER.md);
  /// a non-zero `top_k` as the `top_k` field (early-terminating k-best
  /// evaluation).
  Result<JsonValue> Query(const std::string& query_text, uint32_t s = 1,
                          size_t top = 10, const std::string& plan = "",
                          uint32_t top_k = 0);
  Result<JsonValue> Admin(const std::string& verb,
                          const std::string& reload_path = "");

  /// Real-time writes (docs/INDEXING.md; the server must run with --rt).
  Result<JsonValue> Insert(const std::string& name, const std::string& xml);
  Result<JsonValue> Remove(const std::string& name);

  bool connected() const { return reader_.fd() >= 0; }
  void Close();

 private:
  /// The socket and its buffered response reader; responses are
  /// server-generated, so their lines are not capped.
  net::LineReader reader_{-1, net::LineReader::kUnbounded};
};

/// Load-generator verdict — everything the bench, smoke script and
/// integration test assert on.
struct LoadReport {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t degraded = 0;           // ok but partial (coordinator fan-out)
  uint64_t overloaded = 0;         // shed by admission control
  uint64_t deadline_exceeded = 0;  // expired in queue
  uint64_t other_errors = 0;       // bad_request / search_failed / ...
  uint64_t transport_failures = 0; // connect/read/write breakdowns
  uint64_t invalid_json = 0;       // responses that failed to parse
  double elapsed_ms = 0.0;
  double p50_ms = 0.0;   // per-request round-trip percentiles
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  std::vector<uint64_t> epochs_seen;  // distinct, ascending

  /// All responses arrived, parsed, and were either ok or a documented
  /// shed/deadline error. Degraded answers count as ok — asserting on
  /// them is the caller's call (scripts/check_cluster.sh does).
  bool clean() const {
    return transport_failures == 0 && invalid_json == 0 &&
           other_errors == 0 && ok + overloaded + deadline_exceeded == sent;
  }
  std::string ToString() const;
  /// One JSON object with every field above — the `gks client
  /// --json-out` payload scripts consume.
  std::string ToJson() const;
};

struct LoadOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  size_t connections = 4;
  /// Requests issued per connection (total = connections * requests).
  size_t requests_per_connection = 100;
  /// Queries cycled round-robin per connection; must be non-empty.
  std::vector<std::string> queries;
  uint32_t s = 1;
  size_t top = 10;
  /// Execution-strategy override sent with every request ("" = omit the
  /// field, i.e. server-side auto).
  std::string plan;
  /// Sent as the wire `top_k` field when non-zero (0 = omit: full
  /// evaluation).
  uint32_t top_k = 0;
};

/// Runs the load: `connections` threads, each with its own connection,
/// issuing requests back to back. Returns the merged report (never a
/// Status error — transport breakdowns are counted, not thrown — except
/// for an empty query list).
Result<LoadReport> RunLoad(const LoadOptions& options);

}  // namespace gks

#endif  // GKS_SERVER_CLIENT_H_
