#ifndef GKS_SERVER_SERVER_H_
#define GKS_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "server/coordinator.h"
#include "server/index_state.h"
#include "server/protocol.h"
#include "server/wire_cache.h"

namespace gks {

/// Server tunables — every field maps 1:1 onto a `gks serve` flag
/// (docs/SERVER.md documents the operational meaning of each).
struct ServerConfig {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral: the kernel picks, read it back with port().
  int port = 0;
  /// Search worker threads; 0 = ThreadPool::DefaultThreads().
  size_t threads = 0;
  /// Bounded admission queue: at most this many admitted-but-unfinished
  /// queries; beyond it, requests are shed with `overloaded` instead of
  /// queuing without bound (fail fast beats stalling every client).
  size_t queue_depth = 128;
  /// Per-request deadline, measured from admission. A query still queued
  /// when its deadline passes is answered `deadline_exceeded` without
  /// running the search (it already missed; searching would only delay
  /// the queries behind it). 0 disables.
  double deadline_ms = 0.0;
  /// Response-cache budget in bytes (server/wire_cache.h); 0 disables
  /// the cache. A coordinator keeps no cache.
  size_t cache_capacity = 64u << 20;
  /// Hard per-line bound; longer requests get `oversized` and the
  /// connection is dropped (the stream can no longer be framed).
  size_t max_request_bytes = 1 << 20;

  /// Real-time mode (docs/INDEXING.md): non-empty enables the updatable
  /// index homed in this directory; the positional index file (if any)
  /// becomes the immutable base segment.
  std::string rt_dir;
  /// Seal + flush the RAM window at this many documents…
  size_t rt_flush_docs = 512;
  /// …or this many bytes of raw XML, whichever comes first.
  size_t rt_flush_bytes = 8u << 20;
  /// Size-tiered merge fanout; 0 disables background merging.
  size_t rt_merge_fanout = 4;
  /// Fsync the WAL on every commit (--rt-fsync=always|off).
  bool rt_fsync = true;

  /// Coordinator mode (docs/DISTRIBUTED.md): non-empty turns this server
  /// into a shard coordinator speaking the same wire protocol — it loads
  /// no index and fans every query to the listed shard workers. Syntax:
  /// comma-separated shards, pipe-separated replica mirrors, e.g.
  /// "127.0.0.1:7001|127.0.0.1:7101,127.0.0.1:7002".
  std::string coord_shards;
  /// Per-query fan-out budget; the tighter of this and --deadline-ms.
  double coord_deadline_ms = 2000.0;
  /// Retry attempts per shard after the first failure (each prefers a
  /// different healthy mirror).
  int coord_retries = 2;
  /// Base retry backoff / blackout seed, doubled per consecutive failure.
  double coord_backoff_ms = 20.0;
  /// Answer degraded (reachable shards only, "degraded": true) instead
  /// of failing with shard_unavailable when a shard stays down.
  bool coord_partial = false;

  /// Shard-worker mode: this index's documents start at this global
  /// Dewey doc id (the shard's doc_base in MANIFEST.json). Display-only
  /// offset into the dense catalog; 0 for ordinary servers.
  uint32_t doc_base = 0;
};

/// The long-running query server: a TCP listener speaking the
/// newline-delimited JSON protocol of docs/SERVER.md, dispatching queries
/// onto a ThreadPool against an atomically swappable index snapshot
/// (ServerIndexState), with bounded admission, per-request deadlines,
/// admin verbs (health/metrics/stats/reload/quit) and graceful drain.
///
/// Threading model: one accept thread (owns reload/shutdown flag
/// polling), one thread per connection (reads lines, writes responses),
/// and the shared worker pool running searches. Connection threads block
/// waiting for their query's worker — the pool never waits on itself, so
/// the ThreadPool no-blocking rule holds.
///
/// Lifecycle: Start() → serve → RequestShutdown() (or a `quit` admin
/// verb) → drain in-flight queries → close connections → Wait() returns.
class GksServer {
 public:
  GksServer(ServerConfig config, std::string index_path);
  ~GksServer();

  GksServer(const GksServer&) = delete;
  GksServer& operator=(const GksServer&) = delete;

  /// Loads the index, binds the listener and spawns the accept thread.
  /// On any failure nothing keeps running.
  Status Start();

  /// The bound port (valid after Start; the ephemeral answer for port 0).
  int port() const { return port_; }
  /// Epoch of the snapshot currently serving (coordinators report the
  /// highest worker epoch observed).
  uint64_t epoch() const {
    return coordinator_ != nullptr ? coordinator_->last_epoch()
                                   : index_state_.epoch();
  }
  /// True when running as a shard coordinator (no local index).
  bool is_coordinator() const { return coordinator_ != nullptr; }

  /// Signal-safe shutdown request (atomic flag; the accept thread acts
  /// on it within one poll tick). Idempotent.
  void RequestShutdown() { shutdown_requested_.store(true); }
  /// Signal-safe hot-reload request (SIGHUP handler calls this).
  void RequestReload() { reload_requested_.store(true); }

  /// True once the server has fully drained and stopped.
  bool finished() const { return finished_.load(); }

  /// Blocks until shutdown completes (accept thread + connections
  /// joined). Safe to call once, after Start succeeded.
  void Wait();

  /// Queries currently admitted and not yet answered.
  size_t inflight() const { return pending_.load(); }

 private:
  struct Connection;

  void AcceptLoop();
  void ServeConnection(Connection* connection);
  /// One request line → one response line. Returns false when the
  /// connection must close (protocol breakdown or quit/drain).
  bool HandleLine(Connection* connection, const std::string& line);
  std::string HandleAdmin(const WireRequest& request);
  /// Real-time insert/delete, run inline on the connection thread (the
  /// RtIndex serializes commits; parking a worker would add nothing).
  std::string HandleWrite(const WireRequest& request);
  std::string RunQuery(const WireRequest& request,
                       std::chrono::steady_clock::time_point admitted);
  void DrainAndCloseConnections();

  ServerConfig config_;
  ServerIndexState index_state_;
  std::unique_ptr<ThreadPool> pool_;
  /// Serialized answers of every cacheable query; null on a coordinator
  /// or with cache_capacity 0.
  std::unique_ptr<WireResponseCache> response_cache_;
  std::unique_ptr<ShardCoordinator> coordinator_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;

  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> reload_requested_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> finished_{false};

  /// Admitted-but-unfinished queries (the bounded admission queue level).
  std::atomic<size_t> pending_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;

  std::mutex connections_mu_;
  std::list<std::unique_ptr<Connection>> connections_;

  // Cached instrument pointers (hot path).
  Counter* requests_total_;
  Counter* queries_total_;
  Counter* writes_total_;
  Counter* admin_total_;
  Counter* shed_total_;
  Counter* deadline_exceeded_total_;
  Counter* errors_total_;
  Counter* connections_total_;
  Gauge* connections_gauge_;
  Gauge* queue_depth_gauge_;
  Histogram* request_latency_;
  Histogram* queue_wait_;
  Counter* cache_hits_;
  Counter* cache_misses_;
  Counter* shard_cache_hits_;
  Counter* shard_cache_misses_;
};

}  // namespace gks

#endif  // GKS_SERVER_SERVER_H_
