#ifndef GKS_SERVER_PROTOCOL_H_
#define GKS_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include <vector>

#include "common/json_value.h"
#include "common/result.h"
#include "core/searcher.h"
#include "core/segment_search.h"
#include "core/shard_merge.h"

namespace gks {

/// The newline-delimited JSON wire protocol (one request object in, one
/// response object out, per line). The full spec with examples lives in
/// docs/SERVER.md; this header is the single in-code authority both the
/// server and the client/load-generator build against.

/// Machine-readable error codes (the `error` field of a failure
/// response). Stable strings — clients switch on them, docs/SERVER.md
/// documents each, and scripts/check_docs.sh cross-checks the documented
/// list against this file.
namespace wire_error {
inline constexpr std::string_view kBadRequest = "bad_request";
inline constexpr std::string_view kOversized = "oversized";
inline constexpr std::string_view kOverloaded = "overloaded";
inline constexpr std::string_view kDeadlineExceeded = "deadline_exceeded";
inline constexpr std::string_view kSearchFailed = "search_failed";
inline constexpr std::string_view kReloadFailed = "reload_failed";
inline constexpr std::string_view kShuttingDown = "shutting_down";
inline constexpr std::string_view kRtDisabled = "rt_disabled";
inline constexpr std::string_view kDocExists = "doc_exists";
inline constexpr std::string_view kInvalidDocument = "invalid_document";
inline constexpr std::string_view kWalFailed = "wal_failed";
inline constexpr std::string_view kShardUnavailable = "shard_unavailable";
}  // namespace wire_error

/// Admin verbs (`{"cmd": "..."}` requests).
enum class AdminVerb {
  kHealth,   // liveness + epoch + load snapshot
  kMetrics,  // full metrics-registry snapshot (JSON form)
  kStats,    // index-level stats: documents, terms, postings, epoch
  kReload,   // swap in a freshly loaded index (optional "path" override)
  kFlush,    // real-time mode: seal + flush RAM segments to disk
  kQuit,     // acknowledge, then drain and exit
};

/// Write verbs (real-time mode, docs/INDEXING.md).
enum class WriteVerb {
  kInsert,  // {"insert": "<name>", "xml": "<document>"}
  kDelete,  // {"delete": "<name>"}
};

/// A parsed request: exactly one of `is_admin` (admin verb), `is_write`
/// (real-time insert/delete), or a query.
struct WireRequest {
  // Echoed verbatim into the response when present: the client's
  // correlation id (JSON string or integer).
  bool has_id = false;
  bool id_is_string = false;
  std::string id_string;
  int64_t id_int = 0;

  bool is_admin = false;
  AdminVerb verb = AdminVerb::kHealth;
  std::string reload_path;  // optional "path" of a reload

  bool is_write = false;
  WriteVerb write_verb = WriteVerb::kInsert;
  std::string doc_name;  // catalog name of the document
  std::string doc_xml;   // raw XML body (insert only)

  std::string query;      // query text (same syntax as `gks search`)
  SearchOptions options;  // s / top / di / refine mapped onto the engine
  bool explain = false;   // attach the --explain-json document

  /// Shard-worker mode (docs/DISTRIBUTED.md): the caller is a coordinator
  /// and wants a *partial* — cross-shard stages (DI, refinements, the
  /// max_results trim) are forced off, and every node carries its exact
  /// rank bit pattern and keyword mask so the coordinator can replay
  /// those stages losslessly.
  bool shard = false;
  /// With `shard`: the client's `top`, kept as the describe limit. Only
  /// the first `describe_top` nodes carry `doc` and `describe` (0 = all
  /// of them), while options.max_results stays 0 so every node ships.
  size_t describe_top = 0;
  /// With `shard`, additionally attach each node's DI contributions
  /// (attribute tag / value / path triples, dictionary-coded) for the
  /// coordinator's DI replay. Only valid alongside `"shard": true`.
  bool want_di_contrib = false;
};

/// Parses one request line. InvalidArgument (→ `bad_request` on the wire)
/// on malformed JSON, unknown `cmd`, missing/empty `query`, or unknown
/// fields (strict by design: a typo'd option should fail loudly, not
/// silently search with defaults).
Result<WireRequest> ParseWireRequest(std::string_view line);

/// Optional response decorations (docs/DISTRIBUTED.md). All default-off:
/// a plain single-index response is byte-identical to pre-distributed
/// builds.
struct QueryWireExtras {
  /// Shard-worker partial: per-node "mask" (hex keyword mask) and
  /// "rank_bits" (hex IEEE-754 rank) fields in place of the display
  /// "rank", and "doc"/"describe" only on the first
  /// WireRequest::describe_top nodes.
  bool shard_mode = false;
  /// Per-node DI contribution lists, aligned with response.nodes. Emitted
  /// when non-null, dictionary-coded: one top-level "di_dict" array of
  /// distinct [tag, value, path...] entries, and per contributing node a
  /// "di_contrib" array of indices into it, in contribution order.
  const std::vector<std::vector<DiContribution>>* contributions = nullptr;
  /// Shard workers hold global Dewey doc ids but a dense catalog starting
  /// at this base (IndexBuilderOptions::first_doc_id).
  uint32_t doc_base = 0;
  /// Coordinator only, and only on a partial answer: "degraded": true
  /// plus "shards_ok"/"shards_total". A full fan-out emits none of these,
  /// keeping the response shape identical to a single-index server.
  bool degraded = false;
  uint32_t shards_ok = 0;
  uint32_t shards_total = 0;
};

/// Response builders — each returns one complete JSON object WITHOUT the
/// trailing newline (the connection layer owns framing).
class WireResponseBuilder {
 public:
  /// Success envelope for a query: summary counts, epoch, ranked nodes
  /// (id/tag description/rank/keywords), DI keywords, elapsed wall-clock,
  /// plus the full --explain-json document under "explain" when asked.
  /// The three Query builders return the answer without the request's
  /// `id`, so the server can cache it; WithId makes it the reply.
  static std::string Query(const WireRequest& request,
                           const SearchResponse& response,
                           const XmlIndex& index, uint64_t epoch,
                           double elapsed_ms,
                           const QueryWireExtras& extras = {});

  /// Query envelope over a real-time segment set: identical schema, with
  /// document names and node descriptions resolved through the snapshot.
  static std::string Query(const WireRequest& request,
                           const SearchResponse& response,
                           const SegmentSetSnapshot& snapshot, uint64_t epoch,
                           double elapsed_ms,
                           const QueryWireExtras& extras = {});

  /// Coordinator envelope: identical schema, with document names and
  /// describe strings taken from the merged shard partials (the
  /// coordinator holds no index of its own).
  static std::string Query(const WireRequest& request,
                           const MergedShardResult& merged, double elapsed_ms,
                           const QueryWireExtras& extras = {});

  /// The reply to `request`: `answer` (a Query envelope) with the
  /// request's id, when it has one, right after the leading "ok" — where
  /// every other envelope carries it.
  static std::string WithId(const WireRequest& request, std::string answer);

  /// Insert ack: {"ok":true,"status":"inserted","doc":...,"doc_id":N,
  /// "epoch":E,"elapsed_ms":...}. The document is searchable at `epoch`.
  static std::string Inserted(const WireRequest& request, uint32_t doc_id,
                              uint64_t epoch, double elapsed_ms);

  /// Delete ack: {"ok":true,"status":"deleted","doc":...,"found":bool,
  /// "epoch":E}. `found` false means no live document had the name
  /// (idempotent success, not an error).
  static std::string Deleted(const WireRequest& request, bool found,
                             uint64_t epoch);

  /// Failure envelope: {"ok":false,"error":"<code>","message":...} with
  /// the request id echoed when known.
  static std::string Error(const WireRequest* request, std::string_view code,
                           std::string_view message);

  /// health / stats / reload / quit acks. `payload_json` is spliced in
  /// raw under the given key when non-empty (e.g. the metrics snapshot).
  static std::string Admin(const WireRequest& request,
                           std::string_view status_word, uint64_t epoch,
                           std::string_view payload_key = {},
                           std::string_view payload_json = {});
};

}  // namespace gks

#endif  // GKS_SERVER_PROTOCOL_H_
