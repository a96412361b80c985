#include "server/protocol.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "common/json_writer.h"

namespace gks {
namespace {

/// Fields a query request may carry; anything else is a bad_request.
bool IsKnownQueryField(std::string_view key) {
  return key == "query" || key == "s" || key == "top" || key == "top_k" ||
         key == "di" || key == "refine" || key == "explain" ||
         key == "plan" || key == "id" || key == "shard" ||
         key == "di_contrib";
}

/// Fields an admin request may carry.
bool IsKnownAdminField(std::string_view key) {
  return key == "cmd" || key == "path" || key == "id";
}

/// Fields an insert request may carry.
bool IsKnownInsertField(std::string_view key) {
  return key == "insert" || key == "xml" || key == "id";
}

/// Fields a delete request may carry.
bool IsKnownDeleteField(std::string_view key) {
  return key == "delete" || key == "id";
}

Status ParseId(const JsonValue& id, WireRequest* out) {
  if (id.is_string()) {
    out->has_id = true;
    out->id_is_string = true;
    out->id_string = id.GetString();
    return Status::OK();
  }
  if (id.is_int()) {
    out->has_id = true;
    out->id_int = id.GetInt();
    return Status::OK();
  }
  return Status::InvalidArgument("'id' must be a string or an integer");
}

void EmitId(const WireRequest& request, JsonWriter* json) {
  if (!request.has_id) return;
  json->Key("id");
  if (request.id_is_string) {
    json->String(request.id_string);
  } else {
    json->Int(request.id_int);
  }
}

}  // namespace

Result<WireRequest> ParseWireRequest(std::string_view line) {
  GKS_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(line));
  if (!root.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  WireRequest request;
  if (const JsonValue* id = root.Find("id")) {
    GKS_RETURN_IF_ERROR(ParseId(*id, &request));
  }

  if (const JsonValue* cmd = root.Find("cmd")) {
    request.is_admin = true;
    for (const auto& [key, value] : root.members()) {
      (void)value;
      if (!IsKnownAdminField(key)) {
        return Status::InvalidArgument("unknown admin field '" + key + "'");
      }
    }
    const std::string& verb = cmd->GetString();
    if (verb == "health") request.verb = AdminVerb::kHealth;
    else if (verb == "metrics") request.verb = AdminVerb::kMetrics;
    else if (verb == "stats") request.verb = AdminVerb::kStats;
    else if (verb == "reload") request.verb = AdminVerb::kReload;
    else if (verb == "flush") request.verb = AdminVerb::kFlush;
    else if (verb == "quit") request.verb = AdminVerb::kQuit;
    else {
      return Status::InvalidArgument("unknown admin cmd '" + verb + "'");
    }
    if (const JsonValue* path = root.Find("path")) {
      if (request.verb != AdminVerb::kReload) {
        return Status::InvalidArgument("'path' is only valid with reload");
      }
      if (!path->is_string()) {
        return Status::InvalidArgument("'path' must be a string");
      }
      request.reload_path = path->GetString();
    }
    return request;
  }

  if (const JsonValue* insert = root.Find("insert")) {
    request.is_write = true;
    request.write_verb = WriteVerb::kInsert;
    for (const auto& [key, value] : root.members()) {
      (void)value;
      if (!IsKnownInsertField(key)) {
        return Status::InvalidArgument("unknown insert field '" + key + "'");
      }
    }
    if (!insert->is_string() || insert->GetString().empty()) {
      return Status::InvalidArgument(
          "'insert' must be a non-empty document name");
    }
    request.doc_name = insert->GetString();
    const JsonValue* xml = root.Find("xml");
    if (xml == nullptr || !xml->is_string() || xml->GetString().empty()) {
      return Status::InvalidArgument(
          "insert needs a non-empty string 'xml' body");
    }
    request.doc_xml = xml->GetString();
    return request;
  }
  if (const JsonValue* remove = root.Find("delete")) {
    request.is_write = true;
    request.write_verb = WriteVerb::kDelete;
    for (const auto& [key, value] : root.members()) {
      (void)value;
      if (!IsKnownDeleteField(key)) {
        return Status::InvalidArgument("unknown delete field '" + key + "'");
      }
    }
    if (!remove->is_string() || remove->GetString().empty()) {
      return Status::InvalidArgument(
          "'delete' must be a non-empty document name");
    }
    request.doc_name = remove->GetString();
    return request;
  }

  for (const auto& [key, value] : root.members()) {
    (void)value;
    if (!IsKnownQueryField(key)) {
      return Status::InvalidArgument("unknown request field '" + key + "'");
    }
  }
  const JsonValue* query = root.Find("query");
  if (query == nullptr || !query->is_string() || query->GetString().empty()) {
    return Status::InvalidArgument(
        "request needs a non-empty string 'query' (or an admin 'cmd')");
  }
  request.query = query->GetString();
  if (const JsonValue* s = root.Find("s")) {
    if (!s->is_int() || s->GetInt() < 0) {
      return Status::InvalidArgument("'s' must be a non-negative integer");
    }
    request.options.s = static_cast<uint32_t>(s->GetInt());
  }
  if (const JsonValue* top = root.Find("top")) {
    if (!top->is_int() || top->GetInt() < 0) {
      return Status::InvalidArgument("'top' must be a non-negative integer");
    }
    request.options.max_results = static_cast<size_t>(top->GetInt());
  }
  if (const JsonValue* top_k = root.Find("top_k")) {
    if (!top_k->is_int() || top_k->GetInt() < 0) {
      return Status::InvalidArgument(
          "'top_k' must be a non-negative integer");
    }
    request.options.top_k = static_cast<uint32_t>(top_k->GetInt());
  }
  if (const JsonValue* di = root.Find("di")) {
    if (!di->is_int() || di->GetInt() < 0) {
      return Status::InvalidArgument("'di' must be a non-negative integer");
    }
    request.options.di_top_m = static_cast<size_t>(di->GetInt());
  }
  if (const JsonValue* refine = root.Find("refine")) {
    if (!refine->is_bool()) {
      return Status::InvalidArgument("'refine' must be a boolean");
    }
    request.options.suggest_refinements = refine->GetBool();
  } else {
    request.options.suggest_refinements = false;  // opt-in, like the CLI
  }
  if (const JsonValue* explain = root.Find("explain")) {
    if (!explain->is_bool()) {
      return Status::InvalidArgument("'explain' must be a boolean");
    }
    request.explain = explain->GetBool();
    // --explain-json semantics: documenting the pipeline runs all of it.
    if (request.explain) request.options.suggest_refinements = true;
  }
  if (const JsonValue* plan = root.Find("plan")) {
    if (!plan->is_string() ||
        !ParsePlanMode(plan->GetString(), &request.options.plan)) {
      return Status::InvalidArgument(
          "'plan' must be one of \"auto\", \"merge\", \"probe\"");
    }
  }
  if (const JsonValue* shard = root.Find("shard")) {
    if (!shard->is_bool()) {
      return Status::InvalidArgument("'shard' must be a boolean");
    }
    request.shard = shard->GetBool();
    if (request.shard) {
      if (request.explain) {
        return Status::InvalidArgument(
            "'explain' is not available on shard partials");
      }
      // A shard partial is the worker's ranked nodes alone: cross-shard
      // stages run on the coordinator. The client's `top` only limits
      // which nodes carry display strings.
      request.options.discover_di = false;
      request.options.suggest_refinements = false;
      request.describe_top = request.options.max_results;
      request.options.max_results = 0;
    }
  }
  if (const JsonValue* di_contrib = root.Find("di_contrib")) {
    if (!di_contrib->is_bool()) {
      return Status::InvalidArgument("'di_contrib' must be a boolean");
    }
    if (di_contrib->GetBool() && !request.shard) {
      return Status::InvalidArgument(
          "'di_contrib' is only valid with \"shard\": true");
    }
    request.want_di_contrib = di_contrib->GetBool();
  }
  return request;
}

namespace {

/// Numbers a partial's distinct DI contributions in first-use order, so
/// each (tag, value, path) triple is written once under "di_dict" and
/// nodes refer to it by index. The contributions must outlive it.
class DiDictionary {
 public:
  uint32_t IndexOf(const DiContribution& contribution) {
    auto [it, inserted] = index_.try_emplace(
        &contribution, static_cast<uint32_t>(entries_.size()));
    if (inserted) entries_.push_back(&contribution);
    return it->second;
  }
  const std::vector<const DiContribution*>& entries() const {
    return entries_;
  }

 private:
  struct Hash {
    size_t operator()(const DiContribution* c) const {
      std::hash<std::string_view> hash;
      return hash(c->tag) * 31 + hash(c->value);
    }
  };
  struct Equal {
    bool operator()(const DiContribution* a, const DiContribution* b) const {
      return a->tag == b->tag && a->value == b->value && a->path == b->path;
    }
  };

  std::unordered_map<const DiContribution*, uint32_t, Hash, Equal> index_;
  std::vector<const DiContribution*> entries_;
};

/// A node's `doc` string: its catalog name, or "?" for a document id
/// outside the searched index's range.
std::string_view DocName(const Catalog::DocumentInfo* info) {
  return info != nullptr ? std::string_view(info->name) : "?";
}

/// Shared body of the Query overloads: `doc_name` and `describe` resolve
/// a node against whatever index form the caller searched.
template <typename DocNameFn, typename DescribeFn>
std::string BuildQueryResponse(const WireRequest& request,
                               const SearchResponse& response, uint64_t epoch,
                               double elapsed_ms, DocNameFn&& doc_name,
                               DescribeFn&& describe,
                               const QueryWireExtras& extras) {
  JsonWriter json;
  json.BeginObject();
  json.Key("ok").Bool(true);
  json.Key("epoch").UInt(epoch);
  json.Key("s").UInt(response.effective_s);
  json.Key("merged_list_size").UInt(response.merged_list_size);
  json.Key("candidates").UInt(response.candidate_count);
  json.Key("lce").UInt(response.lce_count);
  json.Key("plan").String(PlanModeName(response.plan.strategy));
  if (extras.degraded) {
    json.Key("degraded").Bool(true);
    json.Key("shards_ok").UInt(extras.shards_ok);
    json.Key("shards_total").UInt(extras.shards_total);
  }
  json.Key("elapsed_ms").Double(elapsed_ms);
  // A shard partial names and describes only its first `top` nodes: the
  // merge order is total, so the global top `top` lies within the union
  // of the shards' local tops (docs/DISTRIBUTED.md).
  const size_t displayed =
      !extras.shard_mode || request.describe_top == 0
          ? response.nodes.size()
          : std::min(request.describe_top, response.nodes.size());
  DiDictionary dictionary;
  json.Key("nodes").BeginArray();
  for (size_t n = 0; n < response.nodes.size(); ++n) {
    const GksNode& node = response.nodes[n];
    json.BeginObject();
    json.Key("id").String(node.id.ToString());
    if (n < displayed) json.Key("doc").String(doc_name(node));
    json.Key("lce").Bool(node.is_lce);
    json.Key("keywords").UInt(node.keyword_count);
    if (extras.shard_mode) {
      // Lossless fields for the coordinator: the 3-decimal display
      // "rank" cannot reproduce sort order or DI weight sums bit-exactly.
      json.Key("mask").String(EncodeMaskBits(node.keyword_mask));
      json.Key("rank_bits").String(EncodeDoubleBits(node.rank));
    } else {
      json.Key("rank").Double(node.rank);
    }
    if (n < displayed) json.Key("describe").String(describe(node));
    if (extras.contributions != nullptr &&
        !(*extras.contributions)[n].empty()) {
      json.Key("di_contrib").BeginArray();
      for (const DiContribution& contribution : (*extras.contributions)[n]) {
        json.UInt(dictionary.IndexOf(contribution));
      }
      json.EndArray();
    }
    json.EndObject();
  }
  json.EndArray();
  if (extras.contributions != nullptr) {
    json.Key("di_dict").BeginArray();
    for (const DiContribution* entry : dictionary.entries()) {
      json.BeginArray();
      json.String(entry->tag);
      json.String(entry->value);
      for (const std::string& step : entry->path) json.String(step);
      json.EndArray();
    }
    json.EndArray();
  }
  json.Key("di").BeginArray();
  for (const DiKeyword& di : response.insights) {
    json.BeginObject();
    json.Key("value").String(di.value);
    json.Key("path").BeginArray();
    for (const std::string& step : di.path) json.String(step);
    json.EndArray();
    json.Key("weight").Double(di.weight);
    json.Key("support").UInt(di.support);
    json.EndObject();
  }
  json.EndArray();
  if (!response.refinements.empty()) {
    json.Key("refinements").BeginArray();
    for (const RefinementSuggestion& suggestion : response.refinements) {
      json.BeginObject();
      json.Key("keywords").BeginArray();
      for (const std::string& keyword : suggestion.keywords) {
        json.String(keyword);
      }
      json.EndArray();
      json.Key("rationale").String(suggestion.rationale);
      json.EndObject();
    }
    json.EndArray();
  }
  if (request.explain) {
    json.Key("explain").Raw(ExplainJson(response));
  }
  json.EndObject();
  return json.Take();
}

}  // namespace

std::string WireResponseBuilder::Query(const WireRequest& request,
                                       const SearchResponse& response,
                                       const XmlIndex& index, uint64_t epoch,
                                       double elapsed_ms,
                                       const QueryWireExtras& extras) {
  return BuildQueryResponse(
      request, response, epoch, elapsed_ms,
      [&](const GksNode& node) {
        return DocName(index.Document(node.id.doc_id()));
      },
      [&](const GksNode& node) { return DescribeNode(index, node); }, extras);
}

std::string WireResponseBuilder::Query(const WireRequest& request,
                                       const SearchResponse& response,
                                       const SegmentSetSnapshot& snapshot,
                                       uint64_t epoch, double elapsed_ms,
                                       const QueryWireExtras& extras) {
  return BuildQueryResponse(
      request, response, epoch, elapsed_ms,
      [&](const GksNode& node) {
        return DocName(snapshot.Document(node.id.doc_id()));
      },
      [&](const GksNode& node) { return DescribeNode(snapshot, node); },
      extras);
}

std::string WireResponseBuilder::Query(const WireRequest& request,
                                       const MergedShardResult& merged,
                                       double elapsed_ms,
                                       const QueryWireExtras& extras) {
  const SearchResponse& response = merged.response;
  const GksNode* base = response.nodes.data();
  return BuildQueryResponse(
      request, response, merged.epoch, elapsed_ms,
      [&](const GksNode& node) -> const std::string& {
        return merged.doc_names[static_cast<size_t>(&node - base)];
      },
      [&](const GksNode& node) -> const std::string& {
        return merged.describes[static_cast<size_t>(&node - base)];
      },
      extras);
}

std::string WireResponseBuilder::WithId(const WireRequest& request,
                                        std::string answer) {
  if (!request.has_id) return answer;
  JsonWriter reply;
  reply.BeginObject();
  reply.Key("ok").Bool(true);
  const size_t head = reply.str().size();  // `{"ok":true`
  EmitId(request, &reply);
  std::string out = reply.Take();
  out.append(answer, head);
  return out;
}

std::string WireResponseBuilder::Inserted(const WireRequest& request,
                                          uint32_t doc_id, uint64_t epoch,
                                          double elapsed_ms) {
  JsonWriter json;
  json.BeginObject();
  json.Key("ok").Bool(true);
  EmitId(request, &json);
  json.Key("status").String("inserted");
  json.Key("doc").String(request.doc_name);
  json.Key("doc_id").UInt(doc_id);
  json.Key("epoch").UInt(epoch);
  json.Key("elapsed_ms").Double(elapsed_ms);
  json.EndObject();
  return json.Take();
}

std::string WireResponseBuilder::Deleted(const WireRequest& request,
                                         bool found, uint64_t epoch) {
  JsonWriter json;
  json.BeginObject();
  json.Key("ok").Bool(true);
  EmitId(request, &json);
  json.Key("status").String("deleted");
  json.Key("doc").String(request.doc_name);
  json.Key("found").Bool(found);
  json.Key("epoch").UInt(epoch);
  json.EndObject();
  return json.Take();
}

std::string WireResponseBuilder::Error(const WireRequest* request,
                                       std::string_view code,
                                       std::string_view message) {
  JsonWriter json;
  json.BeginObject();
  json.Key("ok").Bool(false);
  if (request != nullptr) EmitId(*request, &json);
  json.Key("error").String(code);
  json.Key("message").String(message);
  json.EndObject();
  return json.Take();
}

std::string WireResponseBuilder::Admin(const WireRequest& request,
                                       std::string_view status_word,
                                       uint64_t epoch,
                                       std::string_view payload_key,
                                       std::string_view payload_json) {
  JsonWriter json;
  json.BeginObject();
  json.Key("ok").Bool(true);
  EmitId(request, &json);
  json.Key("status").String(status_word);
  json.Key("epoch").UInt(epoch);
  if (!payload_key.empty()) {
    json.Key(payload_key).Raw(payload_json);
  }
  json.EndObject();
  return json.Take();
}

}  // namespace gks
