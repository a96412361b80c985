#ifndef GKS_SERVER_COORDINATOR_H_
#define GKS_SERVER_COORDINATOR_H_

#include <chrono>
#include <cstdint>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/shard_merge.h"
#include "server/net.h"
#include "server/protocol.h"

namespace gks {

/// Scatter-gather query coordinator (docs/DISTRIBUTED.md). A `gks serve`
/// started with --coord-shards holds no index of its own: it fans each
/// query to every shard's worker over the ordinary newline-JSON wire
/// protocol (with `"shard": true`), retries failed shards on their
/// configured mirrors with exponential backoff, and merges the partials
/// in the one partial-merge core's result order (core/shard_merge.h) so
/// the merged response is bit-identical to a single-index run.

/// One worker address.
struct CoordEndpoint {
  std::string host;
  int port = 0;

  std::string ToString() const { return host + ":" + std::to_string(port); }
};

/// One shard: a primary plus zero or more replica mirrors serving the
/// same shard file. Order is preference order; health tracking reorders
/// at pick time.
struct CoordShardSpec {
  std::vector<CoordEndpoint> mirrors;
};

/// Parses the --coord-shards topology: comma-separated shards, each a
/// pipe-separated mirror list of host:port endpoints, in shard order
/// (matching the split's MANIFEST.json). Example, two shards where the
/// first has a replica:
///   127.0.0.1:7001|127.0.0.1:7101,127.0.0.1:7002
Result<std::vector<CoordShardSpec>> ParseShardTopology(std::string_view spec);

struct CoordinatorOptions {
  std::vector<CoordShardSpec> shards;
  /// Fan-out budget per query, carved down by the server's own
  /// --deadline-ms when that is tighter (docs/DISTRIBUTED.md).
  double deadline_ms = 2000.0;
  /// Additional attempts per shard after the first failure; each attempt
  /// prefers a different (healthy) mirror.
  int retries = 2;
  /// Base backoff before attempt n+1: backoff_ms * 2^n, clamped to the
  /// remaining budget. Also seeds the per-endpoint blackout window.
  double backoff_ms = 20.0;
  /// Answer with the reachable shards (and a "degraded": true marker)
  /// when some shard is down after all retries, instead of failing the
  /// query with shard_unavailable.
  bool allow_partial = false;
};

class ShardCoordinator {
 public:
  ShardCoordinator(CoordinatorOptions options, ThreadPool* pool);
  ~ShardCoordinator();

  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  /// Runs one query end to end: scatter, retry, merge. Returns one
  /// complete wire response line (success, degraded success, or error
  /// envelope). `budget_ms` is this query's whole fan-out budget; call on
  /// a connection thread (not a pool worker) so ParallelFor can fan out.
  std::string Execute(const WireRequest& request, double budget_ms);

  size_t shard_count() const { return endpoints_.size(); }
  /// Highest worker epoch observed on a merged answer (0 until then).
  uint64_t last_epoch() const { return last_epoch_.load(); }

  /// JSON array describing per-mirror health — spliced into the `health`
  /// and `stats` admin payloads.
  std::string TopologyJson() const;

  /// Drops every pooled downstream connection (shutdown path).
  void CloseAll();

 private:
  /// A kept-alive downstream connection: the socket's reader, which
  /// holds any bytes read past the last response's newline (they must
  /// stay with the fd or the stream can no longer be framed).
  using PooledConn = net::LineReader;

  /// Health + connection pool for one mirror.
  struct Endpoint {
    CoordEndpoint address;
    mutable std::mutex mu;
    std::vector<PooledConn> idle;
    int failures = 0;  // consecutive; reset on success
    std::chrono::steady_clock::time_point blackout_until{};
    bool ever_connected = false;
  };

  enum class AttemptResult { kSuccess, kRetryable, kFatal };

  /// What every shard is sent: the request line, plus the `top` it
  /// forwards, which bounds the nodes a partial must describe, and the
  /// query's atom count, which bounds each node's keyword mask.
  struct ShardRequest {
    std::string line;
    size_t describe_top = 0;
    size_t atom_count = 0;
  };

  struct ShardOutcome {
    bool ok = false;
    bool fatal = false;          // worker rejected the query itself
    std::string error_code;      // wire error code to propagate
    std::string error_message;
    ShardPartialResult partial;
  };

  ShardOutcome QueryShard(size_t shard, const ShardRequest& request,
                          std::chrono::steady_clock::time_point deadline);
  AttemptResult TryEndpoint(Endpoint& endpoint, const ShardRequest& request,
                            std::chrono::steady_clock::time_point deadline,
                            ShardPartialResult* partial, std::string* code,
                            std::string* message);
  /// Health-aware mirror choice: first non-blacked-out mirror starting at
  /// `attempt` (round-robin over retries), else the one whose blackout
  /// expires soonest.
  Endpoint& PickMirror(size_t shard, int attempt);
  bool AcquireConn(Endpoint& endpoint, double remaining_ms, PooledConn* conn,
                   std::string* error);
  void ReleaseConn(Endpoint& endpoint, PooledConn conn);
  void MarkDown(Endpoint& endpoint);
  void MarkUp(Endpoint& endpoint);

  CoordinatorOptions options_;
  ThreadPool* pool_;
  /// endpoints_[shard][mirror]; unique_ptr so Endpoint can hold a mutex.
  std::vector<std::vector<std::unique_ptr<Endpoint>>> endpoints_;
  std::atomic<uint64_t> last_epoch_{0};

  Counter* fanout_total_;
  Counter* shard_requests_total_;
  Counter* retries_total_;
  Counter* failovers_total_;
  Counter* degraded_total_;
  Counter* shard_errors_total_;
  Counter* reconnects_total_;
  Counter* budget_exceeded_total_;
  Histogram* shard_latency_ms_;
  Histogram* fanout_ms_;
  Histogram* merge_ms_;
  Histogram* partial_bytes_;
  Histogram* decode_ms_;
};

}  // namespace gks

#endif  // GKS_SERVER_COORDINATOR_H_
