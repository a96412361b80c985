#include "server/coordinator.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <optional>
#include <thread>
#include <utility>

#include "common/json_value.h"
#include "common/json_writer.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/query.h"
#include "server/net.h"

namespace gks {
namespace {

double MsUntil(std::chrono::steady_clock::time_point deadline) {
  return std::chrono::duration<double, std::milli>(
             deadline - std::chrono::steady_clock::now())
      .count();
}

/// Worker failures a different mirror (or a later retry) can cure. Any
/// other worker error is a verdict on the query itself and retrying a
/// replica would just repeat it.
bool IsRetryableWireError(std::string_view code) {
  return code == wire_error::kOverloaded ||
         code == wire_error::kDeadlineExceeded ||
         code == wire_error::kShuttingDown;
}

Result<CoordEndpoint> ParseEndpoint(std::string_view text) {
  size_t colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == text.size()) {
    return Status::InvalidArgument("endpoint must be host:port, got '" +
                                   std::string(text) + "'");
  }
  CoordEndpoint endpoint;
  endpoint.host = std::string(text.substr(0, colon));
  int port = 0;
  for (char c : text.substr(colon + 1)) {
    if (c < '0' || c > '9') port = -1;
    if (port >= 0) port = port * 10 + (c - '0');
    if (port > 65535) port = -1;
    if (port < 0) {
      return Status::InvalidArgument("bad port in endpoint '" +
                                     std::string(text) + "'");
    }
  }
  if (port == 0) {
    return Status::InvalidArgument("bad port in endpoint '" +
                                   std::string(text) + "'");
  }
  endpoint.port = port;
  return endpoint;
}

/// One request line → the worker's JSON for it. Only the fields a shard
/// partial needs travel: the coordinator owns DI, refinements and the
/// max_results trim (docs/DISTRIBUTED.md). The client's `top` travels
/// too, and tells the worker which nodes need display strings.
std::string BuildShardRequestLine(const WireRequest& request,
                                  bool want_contrib) {
  JsonWriter json;
  json.BeginObject();
  json.Key("query").String(request.query);
  json.Key("s").UInt(request.options.s);
  if (request.options.max_results > 0) {
    json.Key("top").UInt(request.options.max_results);
  }
  if (request.options.top_k > 0) {
    json.Key("top_k").UInt(request.options.top_k);
  }
  if (request.options.plan != PlanMode::kAuto) {
    json.Key("plan").String(PlanModeName(request.options.plan));
  }
  json.Key("shard").Bool(true);
  if (want_contrib) json.Key("di_contrib").Bool(true);
  json.EndObject();
  return json.Take() + "\n";
}

/// Reads a required non-negative integer member. A missing or wrong-kind
/// value, or a negative one (which would wrap into a huge count), is a
/// malformed partial.
bool ReadCount(const JsonValue& object, std::string_view key, uint64_t* out,
               std::string* error) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || !value->is_int() || value->GetInt() < 0) {
    *error = "bad or missing \"" + std::string(key) + "\"";
    return false;
  }
  *out = static_cast<uint64_t>(value->GetInt());
  return true;
}

/// Decodes a partial's "di_dict": the distinct contributions its nodes'
/// "di_contrib" arrays index into.
bool ParseDiDictionary(const JsonValue& root,
                       std::vector<DiContribution>* out, std::string* error) {
  const JsonValue* dict = root.Find("di_dict");
  if (dict == nullptr) return true;
  if (!dict->is_array()) {
    *error = "bad di_dict";
    return false;
  }
  out->reserve(dict->size());
  for (const JsonValue& entry : dict->items()) {
    // [tag, value, path step, path step, ...], all strings.
    const std::vector<JsonValue>& fields = entry.items();
    bool well_formed = fields.size() >= 2;
    for (const JsonValue& field : fields) {
      well_formed = well_formed && field.is_string();
    }
    if (!well_formed) {
      *error = "bad di_dict entry";
      return false;
    }
    DiContribution contribution;
    contribution.tag = fields[0].GetString();
    contribution.value = fields[1].GetString();
    for (size_t i = 2; i < fields.size(); ++i) {
      contribution.path.push_back(fields[i].GetString());
    }
    out->push_back(std::move(contribution));
  }
  return true;
}

/// Decodes a worker's success envelope into the merge input. A malformed
/// response reads as a transport failure (retryable on a mirror), never
/// as partial data. `describe_top` is the `top` the request forwarded
/// (0 = none): the first min(top, nodes) nodes must carry `doc` and
/// `describe`, and the nodes must arrive in merge order, so the merged
/// top can only reach nodes with display strings.
bool ParseShardPartial(const JsonValue& root, size_t describe_top,
                       ShardPartialResult* out, std::string* error) {
  const JsonValue* plan = root.Find("plan");
  const JsonValue* nodes = root.Find("nodes");
  if (!ReadCount(root, "epoch", &out->epoch, error) ||
      !ReadCount(root, "merged_list_size", &out->merged_list_size, error) ||
      !ReadCount(root, "candidates", &out->candidate_count, error)) {
    return false;
  }
  if (nodes == nullptr || !nodes->is_array()) {
    *error = "shard response missing summary fields";
    return false;
  }
  if (plan == nullptr || !plan->is_string() ||
      !ParsePlanMode(plan->GetString(), &out->plan)) {
    *error = "shard response missing plan";
    return false;
  }
  std::vector<DiContribution> dictionary;
  if (!ParseDiDictionary(root, &dictionary, error)) return false;
  const size_t described = describe_top == 0
                               ? nodes->size()
                               : std::min(describe_top, nodes->size());
  out->nodes.reserve(nodes->size());
  for (const JsonValue& entry : nodes->items()) {
    const JsonValue* id = entry.Find("id");
    const JsonValue* mask = entry.Find("mask");
    const JsonValue* rank_bits = entry.Find("rank_bits");
    if (id == nullptr || !id->is_string() || mask == nullptr ||
        !mask->is_string() || rank_bits == nullptr ||
        !rank_bits->is_string()) {
      *error = "shard node missing id/mask/rank_bits (worker not in "
               "shard mode?)";
      return false;
    }
    ShardResultNode node;
    Result<DeweyId> dewey = DeweyId::Parse(id->GetString());
    if (!dewey.ok()) {
      *error = "bad node id: " + dewey.status().ToString();
      return false;
    }
    node.node.id = std::move(*dewey);
    // A NaN rank would also break the merge sort's strict weak order.
    if (!DecodeMaskBits(mask->GetString(), &node.node.keyword_mask) ||
        !DecodeDoubleBits(rank_bits->GetString(), &node.node.rank) ||
        std::isnan(node.node.rank)) {
      *error = "bad mask/rank_bits encoding";
      return false;
    }
    const JsonValue* lce = entry.Find("lce");
    if (lce == nullptr || !lce->is_bool()) {
      *error = "bad or missing \"lce\"";
      return false;
    }
    node.node.is_lce = lce->GetBool();
    uint64_t keywords = 0;
    if (!ReadCount(entry, "keywords", &keywords, error)) return false;
    if (keywords > 64) {  // a query has at most 64 keywords
      *error = "bad \"keywords\"";
      return false;
    }
    node.node.keyword_count = static_cast<uint32_t>(keywords);
    if (!out->nodes.empty() && RanksBefore(node.node, out->nodes.back().node)) {
      *error = "shard nodes out of rank order";
      return false;
    }
    const JsonValue* doc = entry.Find("doc");
    const JsonValue* describe = entry.Find("describe");
    if (doc != nullptr) node.doc_name = doc->GetString();
    if (describe != nullptr) node.describe = describe->GetString();
    if (out->nodes.size() < described &&
        (doc == nullptr || !doc->is_string() || node.describe.empty())) {
      *error = "shard node " + std::to_string(out->nodes.size()) +
               " lacks doc/describe inside the forwarded top";
      return false;
    }
    if (const JsonValue* contrib = entry.Find("di_contrib")) {
      if (!contrib->is_array()) {
        *error = "bad di_contrib";
        return false;
      }
      node.di.reserve(contrib->size());
      for (const JsonValue& item : contrib->items()) {
        if (!item.is_int() || item.GetInt() < 0 ||
            static_cast<uint64_t>(item.GetInt()) >= dictionary.size()) {
          *error = "di_contrib index outside di_dict";
          return false;
        }
        node.di.push_back(dictionary[static_cast<size_t>(item.GetInt())]);
      }
    }
    out->nodes.push_back(std::move(node));
  }
  return true;
}

/// Reads one newline-framed response within the budget, keeping any
/// over-read with the connection's buffer.
Status ReadLineBudgeted(int fd, std::string* buffer,
                        std::chrono::steady_clock::time_point deadline,
                        std::string* line) {
  while (true) {
    size_t newline = buffer->find('\n');
    if (newline != std::string::npos) {
      line->assign(*buffer, 0, newline);
      buffer->erase(0, newline + 1);
      if (!line->empty() && line->back() == '\r') line->pop_back();
      return Status::OK();
    }
    double remaining = MsUntil(deadline);
    if (remaining <= 0.0) {
      return Status::DeadlineExceeded("shard response timed out");
    }
    GKS_RETURN_IF_ERROR(
        net::WaitReadable(fd, static_cast<int>(std::ceil(remaining))));
    char chunk[8192];
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("read: ") + std::strerror(errno));
    }
    if (n == 0) return Status::IOError("shard closed the connection");
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace

Result<std::vector<CoordShardSpec>> ParseShardTopology(
    std::string_view spec) {
  std::vector<CoordShardSpec> shards;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    std::string_view shard_text =
        spec.substr(start, comma == std::string_view::npos ? spec.size() - start
                                                           : comma - start);
    CoordShardSpec shard;
    size_t mirror_start = 0;
    while (mirror_start <= shard_text.size()) {
      size_t pipe = shard_text.find('|', mirror_start);
      std::string_view endpoint_text = shard_text.substr(
          mirror_start, pipe == std::string_view::npos
                            ? shard_text.size() - mirror_start
                            : pipe - mirror_start);
      GKS_ASSIGN_OR_RETURN(CoordEndpoint endpoint,
                           ParseEndpoint(endpoint_text));
      shard.mirrors.push_back(std::move(endpoint));
      if (pipe == std::string_view::npos) break;
      mirror_start = pipe + 1;
    }
    shards.push_back(std::move(shard));
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  if (shards.empty()) {
    return Status::InvalidArgument("--coord-shards names no shards");
  }
  return shards;
}

ShardCoordinator::ShardCoordinator(CoordinatorOptions options,
                                   ThreadPool* pool)
    : options_(std::move(options)), pool_(pool) {
  endpoints_.reserve(options_.shards.size());
  for (const CoordShardSpec& shard : options_.shards) {
    std::vector<std::unique_ptr<Endpoint>> mirrors;
    mirrors.reserve(shard.mirrors.size());
    for (const CoordEndpoint& address : shard.mirrors) {
      auto endpoint = std::make_unique<Endpoint>();
      endpoint->address = address;
      mirrors.push_back(std::move(endpoint));
    }
    endpoints_.push_back(std::move(mirrors));
  }
  MetricsRegistry& registry = MetricsRegistry::Global();
  fanout_total_ = registry.GetCounter("gks.coord.fanout_total");
  shard_requests_total_ =
      registry.GetCounter("gks.coord.shard_requests_total");
  retries_total_ = registry.GetCounter("gks.coord.retries_total");
  failovers_total_ = registry.GetCounter("gks.coord.failovers_total");
  degraded_total_ = registry.GetCounter("gks.coord.degraded_total");
  shard_errors_total_ = registry.GetCounter("gks.coord.shard_errors_total");
  reconnects_total_ = registry.GetCounter("gks.coord.reconnects_total");
  budget_exceeded_total_ =
      registry.GetCounter("gks.coord.budget_exceeded_total");
  shard_latency_ms_ = registry.GetHistogram("gks.coord.shard_latency_ms");
  fanout_ms_ = registry.GetHistogram("gks.coord.fanout_ms");
  merge_ms_ = registry.GetHistogram("gks.coord.merge_ms");
  partial_bytes_ = registry.GetHistogram("gks.coord.partial_bytes");
  decode_ms_ = registry.GetHistogram("gks.coord.decode_ms");
}

ShardCoordinator::~ShardCoordinator() { CloseAll(); }

void ShardCoordinator::CloseAll() {
  for (auto& mirrors : endpoints_) {
    for (auto& endpoint : mirrors) {
      std::lock_guard<std::mutex> lock(endpoint->mu);
      for (PooledConn& conn : endpoint->idle) net::CloseFd(conn.fd);
      endpoint->idle.clear();
    }
  }
}

std::string ShardCoordinator::TopologyJson() const {
  JsonWriter json;
  json.BeginArray();
  for (const auto& mirrors : endpoints_) {
    json.BeginObject();
    json.Key("mirrors").BeginArray();
    for (const auto& endpoint : mirrors) {
      std::lock_guard<std::mutex> lock(endpoint->mu);
      json.BeginObject();
      json.Key("endpoint").String(endpoint->address.ToString());
      json.Key("failures").Int(endpoint->failures);
      json.Key("blacked_out")
          .Bool(endpoint->blackout_until > std::chrono::steady_clock::now());
      json.Key("idle_conns").UInt(endpoint->idle.size());
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  return json.Take();
}

void ShardCoordinator::MarkDown(Endpoint& endpoint) {
  std::lock_guard<std::mutex> lock(endpoint.mu);
  endpoint.failures += 1;
  // Exponential blackout so a dead mirror stops eating attempt budget;
  // capped, so a recovered worker is retried within a few seconds.
  double blackout =
      options_.backoff_ms *
      static_cast<double>(1u << std::min(endpoint.failures - 1, 6));
  blackout = std::min(blackout, 5000.0);
  endpoint.blackout_until =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(static_cast<int64_t>(blackout * 1000.0));
  // Pooled connections to a failing endpoint are suspect; start fresh.
  for (PooledConn& conn : endpoint.idle) net::CloseFd(conn.fd);
  endpoint.idle.clear();
}

void ShardCoordinator::MarkUp(Endpoint& endpoint) {
  std::lock_guard<std::mutex> lock(endpoint.mu);
  endpoint.failures = 0;
  endpoint.blackout_until = {};
}

ShardCoordinator::Endpoint& ShardCoordinator::PickMirror(size_t shard,
                                                         int attempt) {
  auto& mirrors = endpoints_[shard];
  auto now = std::chrono::steady_clock::now();
  size_t start = static_cast<size_t>(attempt) % mirrors.size();
  for (size_t i = 0; i < mirrors.size(); ++i) {
    Endpoint& candidate = *mirrors[(start + i) % mirrors.size()];
    std::lock_guard<std::mutex> lock(candidate.mu);
    if (candidate.blackout_until <= now) return candidate;
  }
  // Everything blacked out: take the mirror that recovers soonest rather
  // than giving up inside the budget.
  Endpoint* best = mirrors[start].get();
  for (auto& candidate : mirrors) {
    std::lock_guard<std::mutex> lock(candidate->mu);
    if (candidate->blackout_until < best->blackout_until) {
      best = candidate.get();
    }
  }
  return *best;
}

bool ShardCoordinator::AcquireConn(Endpoint& endpoint, double remaining_ms,
                                   PooledConn* conn, std::string* error) {
  bool reconnecting = false;
  {
    std::lock_guard<std::mutex> lock(endpoint.mu);
    if (!endpoint.idle.empty()) {
      *conn = std::move(endpoint.idle.back());
      endpoint.idle.pop_back();
      return true;
    }
    reconnecting = endpoint.ever_connected;
  }
  Result<int> fd = net::ConnectWithTimeout(
      endpoint.address.host, endpoint.address.port,
      std::max(1, static_cast<int>(std::ceil(remaining_ms))));
  if (!fd.ok()) {
    *error = "connect " + endpoint.address.ToString() + ": " +
             fd.status().ToString();
    return false;
  }
  if (reconnecting) reconnects_total_->Increment();
  {
    std::lock_guard<std::mutex> lock(endpoint.mu);
    endpoint.ever_connected = true;
  }
  conn->fd = *fd;
  conn->buffer.clear();
  return true;
}

void ShardCoordinator::ReleaseConn(Endpoint& endpoint, PooledConn conn) {
  std::lock_guard<std::mutex> lock(endpoint.mu);
  if (endpoint.idle.size() >= 8) {
    net::CloseFd(conn.fd);
    return;
  }
  endpoint.idle.push_back(std::move(conn));
}

ShardCoordinator::AttemptResult ShardCoordinator::TryEndpoint(
    Endpoint& endpoint, const ShardRequest& request,
    std::chrono::steady_clock::time_point deadline,
    ShardPartialResult* partial, std::string* code, std::string* message) {
  double remaining = MsUntil(deadline);
  if (remaining <= 0.0) {
    *code = std::string(wire_error::kShardUnavailable);
    *message = "fan-out budget exhausted before contacting " +
               endpoint.address.ToString();
    return AttemptResult::kRetryable;
  }
  PooledConn conn;
  if (!AcquireConn(endpoint, remaining, &conn, message)) {
    *code = std::string(wire_error::kShardUnavailable);
    return AttemptResult::kRetryable;
  }
  shard_requests_total_->Increment();
  WallTimer latency;
  std::string line;
  Status status = net::WriteAll(conn.fd, request.line);
  if (status.ok()) {
    status = ReadLineBudgeted(conn.fd, &conn.buffer, deadline, &line);
  }
  if (!status.ok()) {
    net::CloseFd(conn.fd);
    *code = std::string(wire_error::kShardUnavailable);
    *message = endpoint.address.ToString() + ": " + status.ToString();
    return AttemptResult::kRetryable;
  }
  shard_latency_ms_->Observe(latency.ElapsedMillis());

  WallTimer decode;
  Result<JsonValue> root = JsonValue::Parse(line);
  if (!root.ok() || !root->is_object() || root->Find("ok") == nullptr ||
      !root->Find("ok")->is_bool()) {
    net::CloseFd(conn.fd);
    *code = std::string(wire_error::kShardUnavailable);
    *message = endpoint.address.ToString() + ": unparseable shard response";
    return AttemptResult::kRetryable;
  }
  if (!root->Find("ok")->GetBool()) {
    // A well-formed refusal: the stream stays framed, but a failing
    // worker should not be repooled ahead of healthy reuse.
    net::CloseFd(conn.fd);
    const JsonValue* error = root->Find("error");
    const JsonValue* error_message = root->Find("message");
    *code = error != nullptr ? error->GetString()
                             : std::string(wire_error::kSearchFailed);
    *message = endpoint.address.ToString() + ": " +
               (error_message != nullptr ? error_message->GetString()
                                         : "shard error");
    return IsRetryableWireError(*code) ? AttemptResult::kRetryable
                                       : AttemptResult::kFatal;
  }
  std::string parse_error;
  if (!ParseShardPartial(*root, request.describe_top, partial,
                         &parse_error)) {
    net::CloseFd(conn.fd);
    *code = std::string(wire_error::kShardUnavailable);
    *message = endpoint.address.ToString() + ": " + parse_error;
    return AttemptResult::kRetryable;
  }
  // Metrics rather than spans: this runs on a pool thread, which has no
  // trace collector.
  decode_ms_->Observe(decode.ElapsedMillis());
  partial_bytes_->Observe(static_cast<double>(line.size()));
  ReleaseConn(endpoint, std::move(conn));
  return AttemptResult::kSuccess;
}

ShardCoordinator::ShardOutcome ShardCoordinator::QueryShard(
    size_t shard, const ShardRequest& request,
    std::chrono::steady_clock::time_point deadline) {
  ShardOutcome outcome;
  bool had_failure = false;
  const int attempts = 1 + std::max(0, options_.retries);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      retries_total_->Increment();
      double pause = options_.backoff_ms *
                     static_cast<double>(1u << std::min(attempt - 1, 6));
      double remaining = MsUntil(deadline);
      if (remaining <= 1.0) break;
      pause = std::min(pause, remaining - 1.0);
      if (pause > 0.0) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<int64_t>(pause * 1000.0)));
      }
    }
    if (MsUntil(deadline) <= 0.0) break;
    Endpoint& endpoint = PickMirror(shard, attempt);
    // Retries get their own span so a trace shows exactly where failover
    // time went; the first attempt is the normal path.
    AttemptResult result;
    if (attempt > 0) {
      ScopedSpan retry_span("coord.retry");
      result = TryEndpoint(endpoint, request, deadline, &outcome.partial,
                           &outcome.error_code, &outcome.error_message);
    } else {
      result = TryEndpoint(endpoint, request, deadline, &outcome.partial,
                           &outcome.error_code, &outcome.error_message);
    }
    if (result == AttemptResult::kSuccess) {
      MarkUp(endpoint);
      if (had_failure) failovers_total_->Increment();
      outcome.ok = true;
      outcome.error_code.clear();
      outcome.error_message.clear();
      return outcome;
    }
    shard_errors_total_->Increment();
    MarkDown(endpoint);
    if (result == AttemptResult::kFatal) {
      outcome.fatal = true;
      return outcome;
    }
    had_failure = true;
    outcome.partial = ShardPartialResult();
  }
  if (MsUntil(deadline) <= 0.0) budget_exceeded_total_->Increment();
  if (outcome.error_code.empty()) {
    outcome.error_code = std::string(wire_error::kShardUnavailable);
    outcome.error_message = "shard " + std::to_string(shard) +
                            " unreachable within the fan-out budget";
  }
  return outcome;
}

std::string ShardCoordinator::Execute(const WireRequest& request,
                                      double budget_ms) {
  fanout_total_->Increment();
  Result<Query> query = Query::Parse(request.query);
  if (!query.ok()) {
    return WireResponseBuilder::Error(&request, wire_error::kSearchFailed,
                                      query.status().ToString());
  }
  const bool want_contrib =
      request.options.discover_di && request.options.di_top_m > 0;
  const ShardRequest shard_request{
      BuildShardRequestLine(request, want_contrib),
      request.options.max_results};
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(
          static_cast<int64_t>(std::max(budget_ms, 1.0) * 1000.0));

  WallTimer total;
  const size_t shard_count = endpoints_.size();
  std::vector<ShardOutcome> outcomes(shard_count);
  {
    ScopedSpan span("coord.fanout");
    span.AddItems(shard_count);
    // Execute runs on a connection thread, never on a pool worker, so
    // the scatter genuinely parallelizes (ParallelFor would degrade to a
    // serial loop from inside the pool).
    ParallelFor(pool_, shard_count, [&](size_t i) {
      outcomes[i] = QueryShard(i, shard_request, deadline);
    });
  }
  fanout_ms_->Observe(total.ElapsedMillis());

  std::vector<ShardPartialResult> partials;
  partials.reserve(shard_count);
  const ShardOutcome* failed = nullptr;
  for (const ShardOutcome& outcome : outcomes) {
    if (outcome.fatal) {
      // The query itself was rejected (bad_request, search_failed, ...):
      // every healthy shard would answer the same way.
      return WireResponseBuilder::Error(&request, outcome.error_code,
                                        outcome.error_message);
    }
    if (!outcome.ok && failed == nullptr) failed = &outcome;
  }
  for (ShardOutcome& outcome : outcomes) {
    if (outcome.ok) partials.push_back(std::move(outcome.partial));
  }
  const uint32_t ok_count = static_cast<uint32_t>(partials.size());
  if (ok_count == 0 ||
      (ok_count < shard_count && !options_.allow_partial)) {
    return WireResponseBuilder::Error(
        &request, failed->error_code,
        failed->error_message +
            (options_.allow_partial
                 ? " (no shard reachable)"
                 : " (partial answers disabled; --coord-partial)"));
  }

  WallTimer merge_timer;
  MergedShardResult merged;
  {
    ScopedSpan span("coord.merge");
    merged = MergeShardResults(*query, request.options, std::move(partials));
    span.AddItems(merged.response.nodes.size());
  }
  merge_ms_->Observe(merge_timer.ElapsedMillis());

  uint64_t observed = last_epoch_.load();
  while (merged.epoch > observed &&
         !last_epoch_.compare_exchange_weak(observed, merged.epoch)) {
  }

  QueryWireExtras extras;
  if (ok_count < shard_count) {
    degraded_total_->Increment();
    extras.degraded = true;
    extras.shards_ok = ok_count;
    extras.shards_total = static_cast<uint32_t>(shard_count);
  }
  return WireResponseBuilder::WithId(
      request, WireResponseBuilder::Query(request, merged,
                                          total.ElapsedMillis(), extras));
}

}  // namespace gks
