#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/json_writer.h"
#include "common/simd/cpu_features.h"
#include "common/simd/kernels.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/searcher.h"
#include "server/net.h"

namespace gks {
namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

/// One accepted TCP connection: its fd, the thread pumping its
/// request/response loop, and a completion flag the accept loop reaps on.
struct GksServer::Connection {
  int fd = -1;
  std::thread thread;
  std::atomic<bool> done{false};
};

GksServer::GksServer(ServerConfig config, std::string index_path)
    : config_(std::move(config)),
      index_state_(std::move(index_path)) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  requests_total_ = registry.GetCounter("gks.server.requests_total");
  queries_total_ = registry.GetCounter("gks.server.queries_total");
  writes_total_ = registry.GetCounter("gks.server.writes_total");
  admin_total_ = registry.GetCounter("gks.server.admin_total");
  shed_total_ = registry.GetCounter("gks.server.shed_total");
  deadline_exceeded_total_ =
      registry.GetCounter("gks.server.deadline_exceeded_total");
  errors_total_ = registry.GetCounter("gks.server.errors_total");
  connections_total_ = registry.GetCounter("gks.server.connections_total");
  connections_gauge_ = registry.GetGauge("gks.server.connections");
  queue_depth_gauge_ = registry.GetGauge("gks.server.queue_depth");
  request_latency_ =
      registry.GetHistogram("gks.server.request.latency_ms");
  queue_wait_ = registry.GetHistogram("gks.server.queue_wait_ms");
  cache_hits_ = registry.GetCounter("gks.search.cache.hits_total");
  cache_misses_ = registry.GetCounter("gks.search.cache.misses_total");
  shard_cache_hits_ =
      registry.GetCounter("gks.server.shard_cache_hits_total");
  shard_cache_misses_ =
      registry.GetCounter("gks.server.shard_cache_misses_total");
}

GksServer::~GksServer() {
  if (accept_thread_.joinable()) {
    RequestShutdown();
    Wait();
  }
}

Status GksServer::Start() {
  pool_ = std::make_unique<ThreadPool>(config_.threads);
  if (!config_.coord_shards.empty()) {
    // Coordinator mode: no local index, no response cache (worker caches
    // already dedupe; the merged answer depends on worker epochs the
    // coordinator cannot key on).
    if (!config_.rt_dir.empty()) {
      return Status::InvalidArgument(
          "--coord-shards and --rt are mutually exclusive");
    }
    CoordinatorOptions options;
    GKS_ASSIGN_OR_RETURN(options.shards,
                         ParseShardTopology(config_.coord_shards));
    options.deadline_ms = config_.coord_deadline_ms;
    options.retries = config_.coord_retries;
    options.backoff_ms = config_.coord_backoff_ms;
    options.allow_partial = config_.coord_partial;
    coordinator_ =
        std::make_unique<ShardCoordinator>(std::move(options), pool_.get());
  } else {
    if (!config_.rt_dir.empty()) {
      RtOptions options;
      options.dir = config_.rt_dir;
      options.base_index_path = index_state_.path();
      options.flush_docs = config_.rt_flush_docs;
      options.flush_bytes = config_.rt_flush_bytes;
      options.merge_fanout = config_.rt_merge_fanout;
      options.fsync = config_.rt_fsync;
      index_state_.EnableRt(std::move(options));
    }
    GKS_RETURN_IF_ERROR(index_state_.Load());
    if (config_.cache_capacity > 0) {
      response_cache_ =
          std::make_unique<WireResponseCache>(config_.cache_capacity);
    }
  }
  if (config_.queue_depth == 0) config_.queue_depth = 1;
  GKS_ASSIGN_OR_RETURN(listen_fd_,
                       net::Listen(config_.host, config_.port));
  Result<int> port = net::BoundPort(listen_fd_);
  if (!port.ok()) {
    net::CloseFd(listen_fd_);
    listen_fd_ = -1;
    return port.status();
  }
  port_ = *port;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void GksServer::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
}

void GksServer::AcceptLoop() {
  while (!shutdown_requested_.load()) {
    if (reload_requested_.exchange(false)) {
      if (coordinator_ != nullptr) {
        std::fprintf(stderr,
                     "gks-server: reload ignored (coordinator has no "
                     "index; reload the shard workers)\n");
        continue;
      }
      Result<uint64_t> epoch = index_state_.Reload();
      if (epoch.ok()) {
        std::fprintf(stderr, "gks-server: reloaded %s (epoch %llu)\n",
                     index_state_.path().c_str(),
                     (unsigned long long)*epoch);
      } else {
        // The old snapshot keeps serving; reload failure is not fatal.
        std::fprintf(stderr, "gks-server: reload failed: %s\n",
                     epoch.status().ToString().c_str());
      }
    }
    Result<int> accepted = net::AcceptWithTimeout(listen_fd_, 50);
    if (!accepted.ok()) {
      std::fprintf(stderr, "gks-server: accept: %s\n",
                   accepted.status().ToString().c_str());
      break;
    }
    if (*accepted < 0) {
      // Timeout tick: reap connections whose threads have finished.
      std::lock_guard<std::mutex> lock(connections_mu_);
      for (auto it = connections_.begin(); it != connections_.end();) {
        if ((*it)->done.load()) {
          (*it)->thread.join();
          it = connections_.erase(it);
        } else {
          ++it;
        }
      }
      continue;
    }
    connections_total_->Increment();
    connections_gauge_->Add(1);
    auto connection = std::make_unique<Connection>();
    connection->fd = *accepted;
    Connection* raw = connection.get();
    {
      std::lock_guard<std::mutex> lock(connections_mu_);
      connections_.push_back(std::move(connection));
    }
    raw->thread = std::thread([this, raw] { ServeConnection(raw); });
  }
  net::CloseFd(listen_fd_);
  listen_fd_ = -1;
  draining_.store(true);
  DrainAndCloseConnections();
  if (coordinator_ != nullptr) coordinator_->CloseAll();
  finished_.store(true);
}

void GksServer::DrainAndCloseConnections() {
  {
    // In-flight queries finish; the epoch-keyed cache needs no flush.
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait(lock, [this] { return pending_.load() == 0; });
  }
  {
    // Unblock connection threads parked in read(); they exit their loops.
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (const auto& connection : connections_) {
      net::ShutdownFd(connection->fd);
    }
  }
  std::list<std::unique_ptr<Connection>> remaining;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    remaining.swap(connections_);
  }
  for (const auto& connection : remaining) {
    if (connection->thread.joinable()) connection->thread.join();
  }
}

void GksServer::ServeConnection(Connection* connection) {
  net::LineReader reader(connection->fd, config_.max_request_bytes);
  std::string line;
  while (true) {
    Status status = reader.ReadLine(&line);
    if (!status.ok()) {
      if (status.code() == StatusCode::kOutOfRange) {
        // Oversized request: answer, then drop — the stream cannot be
        // re-framed past an unread megabyte tail.
        errors_total_->Increment();
        (void)net::WriteAll(
            connection->fd,
            WireResponseBuilder::Error(nullptr, wire_error::kOversized,
                                       status.message()) +
                "\n");
      }
      break;
    }
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    if (!HandleLine(connection, line)) break;
  }
  net::CloseFd(connection->fd);
  connections_gauge_->Add(-1);
  connection->done.store(true);
}

bool GksServer::HandleLine(Connection* connection, const std::string& line) {
  requests_total_->Increment();
  TraceCollector collector("gks");

  Result<WireRequest> parsed = [&] {
    ScopedSpan span("server.parse");
    span.AddBytes(line.size());
    return ParseWireRequest(line);
  }();
  std::string response;
  bool keep_open = true;
  if (!parsed.ok()) {
    errors_total_->Increment();
    response = WireResponseBuilder::Error(nullptr, wire_error::kBadRequest,
                                          parsed.status().message());
  } else if (parsed->is_admin) {
    admin_total_->Increment();
    response = HandleAdmin(*parsed);
    if (parsed->verb == AdminVerb::kQuit) {
      RequestShutdown();
      keep_open = false;
    }
  } else if (parsed->is_write) {
    // Inline on the connection thread: commits serialize inside the
    // RtIndex anyway, and the rt.commit span lands in this collector.
    writes_total_->Increment();
    response = HandleWrite(*parsed);
  } else {
    queries_total_->Increment();
    auto admitted = std::chrono::steady_clock::now();
    size_t before = pending_.fetch_add(1);
    if (before >= config_.queue_depth) {
      pending_.fetch_sub(1);
      shed_total_->Increment();
      response = WireResponseBuilder::Error(
          &*parsed, wire_error::kOverloaded,
          "admission queue full (" + std::to_string(config_.queue_depth) +
              " in flight); retry with backoff");
    } else if (draining_.load()) {
      pending_.fetch_sub(1);
      {
        std::lock_guard<std::mutex> lock(drain_mu_);
      }
      drain_cv_.notify_all();
      response = WireResponseBuilder::Error(&*parsed,
                                            wire_error::kShuttingDown,
                                            "server is draining");
      keep_open = false;
    } else {
      queue_depth_gauge_->Set(static_cast<int64_t>(before + 1));
      if (coordinator_ != nullptr) {
        // Coordinator queries run inline on this connection thread: the
        // pool is busy fanning the scatter out (ParallelFor from a pool
        // worker would degrade to a serial walk of the shards).
        response = RunQuery(*parsed, admitted);
      } else {
        // Dispatch onto the pool and park until the worker answers. The
        // waiter lives on this stack frame; the pool destructor drains,
        // so the task always runs and always signals.
        struct Waiter {
          std::mutex mu;
          std::condition_variable cv;
          bool done = false;
          std::string response;
        } waiter;
        pool_->Submit([this, &parsed, &waiter, admitted] {
          std::string result = RunQuery(*parsed, admitted);
          std::lock_guard<std::mutex> lock(waiter.mu);
          waiter.response = std::move(result);
          waiter.done = true;
          // Notify under the lock: the parked thread cannot return from
          // wait() — and destroy the stack Waiter — until we let go.
          waiter.cv.notify_one();
        });
        {
          std::unique_lock<std::mutex> lock(waiter.mu);
          waiter.cv.wait(lock, [&waiter] { return waiter.done; });
          response = std::move(waiter.response);
        }
      }
      size_t after = pending_.fetch_sub(1) - 1;
      queue_depth_gauge_->Set(static_cast<int64_t>(after));
      {
        std::lock_guard<std::mutex> lock(drain_mu_);
      }
      drain_cv_.notify_all();
      request_latency_->Observe(MsSince(admitted));
    }
  }

  {
    ScopedSpan span("server.respond");
    span.AddBytes(response.size() + 1);
    response += '\n';
    if (!net::WriteAll(connection->fd, response).ok()) return false;
  }
  return keep_open;
}

std::string GksServer::RunQuery(
    const WireRequest& request,
    std::chrono::steady_clock::time_point admitted) {
  double waited_ms = MsSince(admitted);
  queue_wait_->Observe(waited_ms);
  if (config_.deadline_ms > 0.0 && waited_ms > config_.deadline_ms) {
    // Missed already — answering late would also delay everyone queued
    // behind this request.
    deadline_exceeded_total_->Increment();
    return WireResponseBuilder::Error(
        &request, wire_error::kDeadlineExceeded,
        "queued " + std::to_string(waited_ms) + "ms past the " +
            std::to_string(config_.deadline_ms) + "ms deadline");
  }
  TraceCollector collector("gks");
  if (coordinator_ != nullptr) {
    if (request.shard) {
      errors_total_->Increment();
      return WireResponseBuilder::Error(
          &request, wire_error::kBadRequest,
          "a coordinator is not a shard worker; send shard requests to "
          "the workers");
    }
    // The fan-out budget is the tighter of the coordinator budget and
    // what is left of this request's own deadline.
    double budget = config_.coord_deadline_ms;
    if (config_.deadline_ms > 0.0) {
      budget = std::min(budget, config_.deadline_ms - waited_ms);
    }
    return coordinator_->Execute(request, budget);
  }
  ScopedSpan span("server.search");
  // One body over either snapshot type. The two real differences stay
  // with the callers: only the RT path hands its pool to the searcher,
  // and only the static path has a `doc_base`.
  auto answer = [&](const auto& snapshot, const auto& searcher,
                    uint32_t doc_base) -> std::string {
    Result<Query> query = Query::Parse(request.query);
    // Every query but `explain` (per-run stage timings) goes through the
    // response cache; the answer is stored without the id, and each reply
    // gets its own.
    std::string key;
    if (response_cache_ != nullptr && !request.explain && query.ok()) {
      key = WireResponseCache::MakeKey(*query, request, snapshot.epoch);
      std::string cached;
      const bool hit = response_cache_->Get(key, &cached);
      Counter* counter = request.shard
                             ? (hit ? shard_cache_hits_ : shard_cache_misses_)
                             : (hit ? cache_hits_ : cache_misses_);
      counter->Increment();
      if (hit) return WireResponseBuilder::WithId(request, std::move(cached));
    }
    WallTimer timer;
    // The text overload, not `*query`: it records the `parse` span that
    // an explain document reports.
    Result<SearchResponse> response =
        searcher.Search(request.query, request.options);
    if (!response.ok()) {
      errors_total_->Increment();
      return WireResponseBuilder::Error(&request, wire_error::kSearchFailed,
                                        response.status().ToString());
    }
    span.AddItems(response->nodes.size());
    QueryWireExtras extras;
    extras.doc_base = doc_base;
    std::vector<std::vector<DiContribution>> contributions;
    if (request.shard) {
      extras.shard_mode = true;
      if (request.want_di_contrib) {
        // The search succeeded, so the query parsed.
        contributions = ComputeDiContributions(snapshot, response->nodes,
                                               *query, DiOptions{});
        extras.contributions = &contributions;
      }
    }
    std::string result = WireResponseBuilder::Query(
        request, *response, snapshot, snapshot.epoch, timer.ElapsedMillis(),
        extras);
    if (!key.empty()) response_cache_->Put(key, result);
    return WireResponseBuilder::WithId(request, std::move(result));
  };
  if (index_state_.rt()) {
    std::shared_ptr<const SegmentSetSnapshot> snapshot =
        index_state_.rt_snapshot();
    SegmentSearcher searcher(snapshot);
    // Degrades to the inline walk here (this thread IS a pool worker);
    // embedders driving SegmentSearcher from their own threads get the
    // parallel per-segment fan-out (docs/PERFORMANCE.md).
    searcher.set_pool(pool_.get());
    return answer(*snapshot, searcher, 0);
  }
  std::shared_ptr<const XmlIndex> snapshot = index_state_.snapshot();
  GksSearcher searcher(snapshot.get());
  // Shard indexes hold global Dewey doc ids over a dense catalog; the
  // offset is harmless zero everywhere else.
  return answer(*snapshot, searcher, config_.doc_base);
}

std::string GksServer::HandleWrite(const WireRequest& request) {
  if (!index_state_.rt()) {
    errors_total_->Increment();
    return WireResponseBuilder::Error(
        &request, wire_error::kRtDisabled,
        "server was started without --rt; writes need a real-time index");
  }
  if (request.write_verb == WriteVerb::kInsert) {
    WallTimer timer;
    Result<uint32_t> doc_id =
        index_state_.RtInsert(request.doc_name, request.doc_xml);
    if (!doc_id.ok()) {
      errors_total_->Increment();
      std::string_view code = wire_error::kSearchFailed;
      switch (doc_id.status().code()) {
        case StatusCode::kAlreadyExists:
          code = wire_error::kDocExists;
          break;
        case StatusCode::kInvalidArgument:
        case StatusCode::kCorruption:
          code = wire_error::kInvalidDocument;
          break;
        case StatusCode::kIOError:
          code = wire_error::kWalFailed;
          break;
        default:
          break;
      }
      return WireResponseBuilder::Error(&request, code,
                                        doc_id.status().ToString());
    }
    return WireResponseBuilder::Inserted(request, *doc_id,
                                         index_state_.epoch(),
                                         timer.ElapsedMillis());
  }
  Result<bool> found = index_state_.RtDelete(request.doc_name);
  if (!found.ok()) {
    errors_total_->Increment();
    std::string_view code = found.status().code() == StatusCode::kIOError
                                ? wire_error::kWalFailed
                                : wire_error::kSearchFailed;
    return WireResponseBuilder::Error(&request, code,
                                      found.status().ToString());
  }
  return WireResponseBuilder::Deleted(request, *found, index_state_.epoch());
}

std::string GksServer::HandleAdmin(const WireRequest& request) {
  switch (request.verb) {
    case AdminVerb::kHealth: {
      JsonWriter load;
      load.BeginObject();
      load.Key("inflight").UInt(pending_.load());
      load.Key("queue_depth").UInt(config_.queue_depth);
      load.Key("connections").Int(connections_gauge_->value());
      load.Key("draining").Bool(draining_.load());
      // Which hot-path kernel tier answers queries on this host — the
      // first thing to compare when two replicas disagree on latency.
      load.Key("cpu").String(simd::CpuFeatures::Get().ToString());
      load.Key("dispatch").String(simd::Active().name);
      if (coordinator_ != nullptr) {
        load.Key("role").String("coordinator");
        load.Key("shards").Raw(coordinator_->TopologyJson());
      }
      load.EndObject();
      return WireResponseBuilder::Admin(request, "serving", epoch(), "load",
                                        load.str());
    }
    case AdminVerb::kMetrics:
      return WireResponseBuilder::Admin(
          request, "ok", epoch(), "metrics",
          MetricsRegistry::Global().Snapshot().ToJson());
    case AdminVerb::kStats: {
      if (coordinator_ != nullptr) {
        JsonWriter stats;
        stats.BeginObject();
        stats.Key("shards").UInt(coordinator_->shard_count());
        stats.Key("topology").Raw(coordinator_->TopologyJson());
        stats.EndObject();
        return WireResponseBuilder::Admin(request, "ok", epoch(), "coord",
                                          stats.str());
      }
      if (index_state_.rt()) {
        Result<RtStats> rt = index_state_.GetRtStats();
        if (!rt.ok()) {
          return WireResponseBuilder::Error(&request,
                                            wire_error::kSearchFailed,
                                            rt.status().ToString());
        }
        JsonWriter stats;
        stats.BeginObject();
        stats.Key("path").String(index_state_.path());
        stats.Key("live_docs").UInt(rt->live_docs);
        stats.Key("ram_docs").UInt(rt->ram_docs);
        stats.Key("ram_bytes").UInt(rt->ram_bytes);
        stats.Key("disk_segments").UInt(rt->disk_segments);
        stats.Key("tombstones").UInt(rt->tombstones);
        stats.Key("next_doc_id").UInt(rt->next_doc_id);
        stats.Key("wal_records").UInt(rt->wal_records);
        stats.Key("replayed_records").UInt(rt->replayed_records);
        stats.Key("flushes").UInt(rt->flushes);
        stats.Key("merges").UInt(rt->merges);
        stats.Key("purged_docs").UInt(rt->purged_docs);
        stats.EndObject();
        return WireResponseBuilder::Admin(request, "ok",
                                          index_state_.epoch(), "rt",
                                          stats.str());
      }
      std::shared_ptr<const XmlIndex> snapshot = index_state_.snapshot();
      JsonWriter stats;
      stats.BeginObject();
      stats.Key("path").String(index_state_.path());
      stats.Key("documents").UInt(snapshot->catalog.document_count());
      stats.Key("elements").UInt(snapshot->nodes.counts().total);
      stats.Key("terms").UInt(snapshot->inverted.term_count());
      stats.Key("postings").UInt(snapshot->inverted.posting_count());
      stats.EndObject();
      return WireResponseBuilder::Admin(request, "ok", snapshot->epoch,
                                        "index", stats.str());
    }
    case AdminVerb::kFlush: {
      if (!index_state_.rt()) {
        errors_total_->Increment();
        return WireResponseBuilder::Error(
            &request, wire_error::kRtDisabled,
            "flush needs a real-time index (--rt)");
      }
      if (Status status = index_state_.RtFlush(); !status.ok()) {
        errors_total_->Increment();
        return WireResponseBuilder::Error(&request, wire_error::kWalFailed,
                                          status.ToString());
      }
      return WireResponseBuilder::Admin(request, "flushed",
                                        index_state_.epoch());
    }
    case AdminVerb::kReload: {
      if (coordinator_ != nullptr) {
        errors_total_->Increment();
        return WireResponseBuilder::Error(
            &request, wire_error::kReloadFailed,
            "coordinator has no index; reload the shard workers");
      }
      Result<uint64_t> epoch = index_state_.Reload(request.reload_path);
      if (!epoch.ok()) {
        errors_total_->Increment();
        return WireResponseBuilder::Error(&request,
                                          wire_error::kReloadFailed,
                                          epoch.status().ToString());
      }
      return WireResponseBuilder::Admin(request, "reloaded", *epoch);
    }
    case AdminVerb::kQuit:
      return WireResponseBuilder::Admin(request, "draining", epoch());
  }
  return WireResponseBuilder::Error(&request, wire_error::kBadRequest,
                                    "unhandled admin verb");
}

}  // namespace gks
