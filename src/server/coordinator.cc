#include "server/coordinator.h"

#include <algorithm>
#include <bit>
#include <cmath>
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

/// Decodes a worker's reply line straight into the merge input, in one
/// streaming pass and without a JsonValue tree (docs/DISTRIBUTED.md).
/// Members may come in any order: a node's `di_contrib` indices are kept
/// and resolved once the whole line, `di_dict` included, has been read.
/// Unknown members are validated and skipped; a member the decoder reads
/// may appear only once.
///
/// Decode() accepts only a well-formed `"ok": true` partial. On anything
/// else it returns false with error() saying what it found, and
/// ReadRejectedReply decides how the coordinator answers. `describe_top`
/// is the `top` the request forwarded (0 = none): the first min(top,
/// nodes) nodes must carry `doc` and `describe`, and the nodes must
/// arrive in merge order, so the merged top can only reach nodes with
/// display strings. `atom_count` is the query's: a node's keyword mask
/// names only query atoms, as many as its `keywords`.
class PartialDecoder {
 public:
  PartialDecoder(std::string_view line, size_t describe_top,
                 size_t atom_count, ShardPartialResult* out)
      : reader_(line),
        describe_top_(describe_top),
        atom_count_(atom_count),
        out_(out) {}

  bool Decode() {
    enum : uint32_t {
      kOk = 1, kEpoch = 2, kMergedListSize = 4, kCandidates = 8,
      kPlan = 16, kNodes = 32, kDiDict = 64,
    };
    *out_ = ShardPartialResult();
    uint32_t seen = 0;
    if (!reader_.BeginObject()) return false;
    while (reader_.NextMember(&key_)) {
      if (key_ == "ok") {
        bool ok = false;
        if (!Once(&seen, kOk) || !reader_.ReadBool(&ok)) return false;
        if (!ok) return Violation("shard refused the query");
      } else if (key_ == "epoch") {
        if (!Once(&seen, kEpoch) || !ReadCount(&out_->epoch)) return false;
      } else if (key_ == "merged_list_size") {
        if (!Once(&seen, kMergedListSize) ||
            !ReadCount(&out_->merged_list_size)) {
          return false;
        }
      } else if (key_ == "candidates") {
        if (!Once(&seen, kCandidates) || !ReadCount(&out_->candidate_count)) {
          return false;
        }
      } else if (key_ == "plan") {
        if (!Once(&seen, kPlan)) return false;
        if (reader_.Peek() != JsonReader::Kind::kString ||
            !reader_.ReadString(&text_) ||
            !ParsePlanMode(text_, &out_->plan)) {
          return Violation("shard response missing plan");
        }
      } else if (key_ == "nodes") {
        if (!Once(&seen, kNodes) || !ReadNodes()) return false;
      } else if (key_ == "di_dict") {
        if (!Once(&seen, kDiDict) || !ReadDictionary()) return false;
      } else if (!reader_.Skip()) {
        return false;
      }
    }
    if (!reader_.Finish()) return false;
    if (!(seen & kOk)) return Violation("shard response lacks \"ok\"");
    if (!(seen & kEpoch)) return Violation("bad or missing \"epoch\"");
    if (!(seen & kMergedListSize)) {
      return Violation("bad or missing \"merged_list_size\"");
    }
    if (!(seen & kCandidates)) {
      return Violation("bad or missing \"candidates\"");
    }
    if (!(seen & kNodes)) {
      return Violation("shard response missing summary fields");
    }
    if (!(seen & kPlan)) return Violation("shard response missing plan");
    return ResolveContributions();
  }

  /// What Decode() found: the JSON error, or the broken contract.
  const std::string& error() const {
    return reader_.ok() ? violation_ : reader_.status().message();
  }

 private:
  bool Violation(std::string what) {
    violation_ = std::move(what);
    return false;
  }

  /// Marks the member in `key_` as read; a second one is malformed.
  bool Once(uint32_t* seen, uint32_t member) {
    if (*seen & member) return Violation("repeated member \"" + key_ + "\"");
    *seen |= member;
    return true;
  }

  /// Reads a required non-negative integer member. A wrong-kind value,
  /// or a negative one (which would wrap into a huge count), is a
  /// malformed partial.
  bool ReadCount(uint64_t* out) {
    JsonReader::Number number;
    if (reader_.Peek() != JsonReader::Kind::kNumber ||
        !reader_.ReadNumber(&number) || !number.is_int ||
        number.int_value < 0) {
      return Violation("bad or missing \"" + key_ + "\"");
    }
    *out = static_cast<uint64_t>(number.int_value);
    return true;
  }

  /// The partial's "di_dict": the distinct contributions its nodes'
  /// "di_contrib" arrays index into.
  bool ReadDictionary() {
    if (reader_.Peek() != JsonReader::Kind::kArray) {
      return Violation("bad di_dict");
    }
    reader_.BeginArray();
    while (reader_.NextItem()) {
      // [tag, value, path step, path step, ...], all strings.
      if (reader_.Peek() != JsonReader::Kind::kArray) {
        return Violation("bad di_dict entry");
      }
      DiContribution& entry = dictionary_.emplace_back();
      size_t fields = 0;
      reader_.BeginArray();
      while (reader_.NextItem()) {
        if (reader_.Peek() != JsonReader::Kind::kString) {
          return Violation("bad di_dict entry");
        }
        reader_.ReadString(fields == 0   ? &entry.tag
                           : fields == 1 ? &entry.value
                                         : &entry.path.emplace_back());
        ++fields;
      }
      if (!reader_.ok()) return false;
      if (fields < 2) return Violation("bad di_dict entry");
    }
    return reader_.ok();
  }

  bool ReadNodes() {
    if (reader_.Peek() != JsonReader::Kind::kArray) {
      return Violation("shard response missing summary fields");
    }
    reader_.BeginArray();
    while (reader_.NextItem()) {
      if (!ReadNode()) return false;
    }
    return reader_.ok();
  }

  /// Reads one of a node's id / mask / rank_bits strings into `text_`.
  bool ReadNodeString() {
    if (reader_.Peek() != JsonReader::Kind::kString) return MissingIds();
    return reader_.ReadString(&text_);
  }
  bool MissingIds() {
    return Violation(
        "shard node missing id/mask/rank_bits (worker not in shard mode?)");
  }

  bool ReadNode() {
    enum : uint32_t {
      kId = 1, kMask = 2, kRankBits = 4, kLce = 8, kKeywords = 16,
      kDoc = 32, kDescribe = 64, kDiContrib = 128,
    };
    if (reader_.Peek() != JsonReader::Kind::kObject) return MissingIds();
    const size_t position = out_->nodes.size();
    ShardResultNode& node = out_->nodes.emplace_back();
    uint32_t seen = 0;
    bool has_doc = false;
    reader_.BeginObject();
    while (reader_.NextMember(&key_)) {
      if (key_ == "id") {
        if (!Once(&seen, kId) || !ReadNodeString()) return false;
        Result<DeweyId> dewey = DeweyId::Parse(text_);
        if (!dewey.ok()) {
          return Violation("bad node id: " + dewey.status().ToString());
        }
        node.node.id = std::move(*dewey);
      } else if (key_ == "mask") {
        if (!Once(&seen, kMask) || !ReadNodeString()) return false;
        if (!DecodeMaskBits(text_, &node.node.keyword_mask)) {
          return Violation("bad mask/rank_bits encoding");
        }
      } else if (key_ == "rank_bits") {
        if (!Once(&seen, kRankBits) || !ReadNodeString()) return false;
        // A NaN rank would also break the merge sort's strict weak order.
        if (!DecodeDoubleBits(text_, &node.node.rank) ||
            std::isnan(node.node.rank)) {
          return Violation("bad mask/rank_bits encoding");
        }
      } else if (key_ == "lce") {
        if (!Once(&seen, kLce)) return false;
        if (reader_.Peek() != JsonReader::Kind::kBool) {
          return Violation("bad or missing \"lce\"");
        }
        reader_.ReadBool(&node.node.is_lce);
      } else if (key_ == "keywords") {
        uint64_t keywords = 0;
        if (!Once(&seen, kKeywords) || !ReadCount(&keywords)) return false;
        if (keywords > 64) {  // a query has at most 64 keywords
          return Violation("bad \"keywords\"");
        }
        node.node.keyword_count = static_cast<uint32_t>(keywords);
      } else if (key_ == "doc" || key_ == "describe") {
        const bool is_doc = key_ == "doc";
        if (!Once(&seen, is_doc ? kDoc : kDescribe)) return false;
        // A display string of another kind reads as absent, which only
        // the described top rejects (below).
        if (reader_.Peek() != JsonReader::Kind::kString) {
          if (!reader_.Skip()) return false;
          continue;
        }
        reader_.ReadString(is_doc ? &node.doc_name : &node.describe);
        if (is_doc) has_doc = true;
      } else if (key_ == "di_contrib") {
        if (!Once(&seen, kDiContrib)) return false;
        if (reader_.Peek() != JsonReader::Kind::kArray) {
          return Violation("bad di_contrib");
        }
        reader_.BeginArray();
        while (reader_.NextItem()) {
          JsonReader::Number index;
          if (reader_.Peek() != JsonReader::Kind::kNumber ||
              !reader_.ReadNumber(&index) || !index.is_int ||
              index.int_value < 0) {
            return Violation("di_contrib index outside di_dict");
          }
          contributions_.push_back(static_cast<uint64_t>(index.int_value));
        }
      } else if (!reader_.Skip()) {
        return false;
      }
    }
    if (!reader_.ok()) return false;
    contribution_ends_.push_back(contributions_.size());
    if ((seen & (kId | kMask | kRankBits)) != (kId | kMask | kRankBits)) {
      return MissingIds();
    }
    if (!(seen & kLce)) return Violation("bad or missing \"lce\"");
    if (!(seen & kKeywords)) return Violation("bad or missing \"keywords\"");
    const uint64_t mask = node.node.keyword_mask;
    if (static_cast<uint32_t>(std::popcount(mask)) !=
        node.node.keyword_count) {
      return Violation("mask disagrees with \"keywords\"");
    }
    if (atom_count_ < 64 && (mask >> atom_count_) != 0) {
      return Violation("mask names a keyword the query lacks");
    }
    if (position > 0 &&
        RanksBefore(node.node, out_->nodes[position - 1].node)) {
      return Violation("shard nodes out of rank order");
    }
    if ((describe_top_ == 0 || position < describe_top_) &&
        (!has_doc || node.describe.empty())) {
      return Violation("shard node " + std::to_string(position) +
                       " lacks doc/describe inside the forwarded top");
    }
    return true;
  }

  /// Expands each node's `di_contrib` indices into its contribution
  /// list, now that the dictionary is complete.
  bool ResolveContributions() {
    size_t next = 0;
    for (size_t i = 0; i < out_->nodes.size(); ++i) {
      std::vector<DiContribution>& di = out_->nodes[i].di;
      di.reserve(contribution_ends_[i] - next);
      for (; next < contribution_ends_[i]; ++next) {
        if (contributions_[next] >= dictionary_.size()) {
          return Violation("di_contrib index outside di_dict");
        }
        di.push_back(dictionary_[contributions_[next]]);
      }
    }
    return true;
  }

  JsonReader reader_;
  const size_t describe_top_;
  const size_t atom_count_;
  ShardPartialResult* out_;
  std::string key_;   // the member being read
  std::string text_;  // a string value being decoded
  std::string violation_;
  std::vector<DiContribution> dictionary_;
  // Every node's di_contrib indices, concatenated in node order; node i's
  // end at contribution_ends_[i].
  std::vector<uint64_t> contributions_;
  std::vector<size_t> contribution_ends_;
};

/// A reply line PartialDecoder rejected, read for what the coordinator
/// answers, by the precedence the line's JSON sets: bytes that are not
/// one JSON object with exactly one "ok", a boolean, are unparseable;
/// `"ok": false` is the worker's own refusal, passed on with its "error"
/// and "message"; any other line is a malformed partial.
struct RejectedReply {
  enum class Kind { kUnparseable, kRefusal, kMalformed };
  Kind kind = Kind::kUnparseable;
  std::string code = std::string(wire_error::kSearchFailed);
  std::string message = "shard error";
};

RejectedReply ReadRejectedReply(std::string_view line) {
  RejectedReply reply;
  JsonReader reader(line);
  if (reader.Peek() != JsonReader::Kind::kObject) return reply;
  size_t oks = 0;
  bool ok_is_bool = false;
  bool ok = false;
  std::string key;
  reader.BeginObject();
  while (reader.NextMember(&key)) {
    if (key == "ok") {
      ++oks;
      ok_is_bool = reader.Peek() == JsonReader::Kind::kBool;
      if (ok_is_bool) {
        reader.ReadBool(&ok);
      } else {
        reader.Skip();
      }
    } else if (key == "error" || key == "message") {
      // A non-string "error" or "message" reads as empty.
      std::string* text = key == "error" ? &reply.code : &reply.message;
      text->clear();
      if (reader.Peek() == JsonReader::Kind::kString) {
        reader.ReadString(text);
      } else {
        reader.Skip();
      }
    } else {
      reader.Skip();
    }
  }
  if (!reader.Finish() || oks != 1 || !ok_is_bool) return reply;
  reply.kind = ok ? RejectedReply::Kind::kMalformed
                  : RejectedReply::Kind::kRefusal;
  return reply;
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
      for (PooledConn& conn : endpoint->idle) net::CloseFd(conn.fd());
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
  for (PooledConn& conn : endpoint.idle) net::CloseFd(conn.fd());
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
  *conn = PooledConn(*fd, PooledConn::kUnbounded);
  return true;
}

void ShardCoordinator::ReleaseConn(Endpoint& endpoint, PooledConn conn) {
  std::lock_guard<std::mutex> lock(endpoint.mu);
  if (endpoint.idle.size() >= 8) {
    net::CloseFd(conn.fd());
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
  Status status = net::WriteAll(conn.fd(), request.line);
  if (status.ok()) status = conn.ReadLine(&line, deadline);
  if (status.code() == StatusCode::kNotFound) {
    status = Status::IOError("shard closed the connection");
  }
  if (!status.ok()) {
    net::CloseFd(conn.fd());
    *code = std::string(wire_error::kShardUnavailable);
    *message = endpoint.address.ToString() + ": " + status.ToString();
    return AttemptResult::kRetryable;
  }
  shard_latency_ms_->Observe(latency.ElapsedMillis());

  WallTimer decode;
  PartialDecoder decoder(line, request.describe_top, request.atom_count,
                         partial);
  if (!decoder.Decode()) {
    net::CloseFd(conn.fd());
    const RejectedReply reply = ReadRejectedReply(line);
    switch (reply.kind) {
      case RejectedReply::Kind::kUnparseable:
        *code = std::string(wire_error::kShardUnavailable);
        *message =
            endpoint.address.ToString() + ": unparseable shard response";
        return AttemptResult::kRetryable;
      case RejectedReply::Kind::kRefusal:
        // A well-formed refusal: the stream stays framed, but a failing
        // worker should not be repooled ahead of healthy reuse.
        *code = reply.code;
        *message = endpoint.address.ToString() + ": " + reply.message;
        return IsRetryableWireError(*code) ? AttemptResult::kRetryable
                                           : AttemptResult::kFatal;
      case RejectedReply::Kind::kMalformed:
        *code = std::string(wire_error::kShardUnavailable);
        *message = endpoint.address.ToString() + ": " + decoder.error();
        return AttemptResult::kRetryable;
    }
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
      request.options.max_results, query->size()};
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
