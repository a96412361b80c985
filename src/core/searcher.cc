#include "core/searcher.h"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "common/json_writer.h"
#include "common/metrics.h"
#include "common/simd/kernels.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"

#include "core/arena.h"
#include "core/merged_list.h"
#include "core/partial_merge.h"
#include "core/planner.h"
#include "core/probe_eval.h"
#include "core/result_cache.h"
#include "core/topk_eval.h"
#include "core/window_scan.h"

namespace gks {
namespace {

// Backfills the legacy Timings struct from the recorded span tree and the
// end-to-end timer, and feeds the query-level registry instruments.
void FinishTimings(const WallTimer& total_timer, SearchResponse* response) {
  SearchResponse::Timings& t = response->timings;
  t.parse_ms = response->trace.ElapsedMs("parse");
  t.merge_ms = response->trace.ElapsedMs("merged_list");
  t.window_ms = response->trace.ElapsedMs("window_scan");
  t.lce_ms = response->trace.ElapsedMs("lce");  // includes prune + ranking
  t.di_ms = response->trace.ElapsedMs("di");
  t.refine_ms = response->trace.ElapsedMs("refinement");
  t.total_ms = total_timer.ElapsedMillis();

  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("gks.search.queries_total")->Increment();
  registry.GetHistogram("gks.search.total.latency_ms")->Observe(t.total_ms);
  registry.GetCounter("gks.search.nodes_total")
      ->Add(response->nodes.size());
}

}  // namespace

// Canonical cache-key form of a parsed query: analyzed terms (lowercased,
// stemmed, whitespace-collapsed) plus tag constraints — NOT Query::ToString,
// which preserves the raw spelling ("XML  Data" must hit "xml data").
// Control separators cannot occur in analyzed tokens.
std::string NormalizedQueryText(const Query& query) {
  std::string out;
  for (const QueryAtom& atom : query.atoms()) {
    if (!out.empty()) out.push_back('\x01');
    out += atom.tag_constraint;
    for (const std::string& term : atom.terms) {
      out.push_back('\x02');
      out += term;
    }
  }
  return out;
}

Result<SearchResponse> GksSearcher::SearchTraced(
    const Query& query, const SearchOptions& options) const {
  // The index's one partial: the evaluators fill it, the merge core ranks
  // it and runs the stages after ranking (core/partial_merge.h).
  Partial partial;
  const uint32_t s = EffectiveS(query, options);

  // The arena is per worker thread: scratch buffers (atom lists, merged
  // list storage, gather buffers) cycle through it across queries instead
  // of hitting the allocator each time.
  QueryArena& arena = QueryArena::ThreadLocal();
  PlannerDecision decision =
      ChoosePlan(*index_, query, s, options.plan, options.top_k,
                 options.topk_scan_floor);
  partial.plan = std::move(decision.info);

  MetricsRegistry& registry = MetricsRegistry::Global();
  // Zero-length marker span: the chosen strategy stays visible in every
  // recorded span tree, not just in explain output.
  switch (partial.plan.strategy) {
    case PlanMode::kMerge: {
      ScopedSpan marker("plan.merge");
      registry.GetCounter("gks.search.plan.merge_total")->Increment();
      break;
    }
    case PlanMode::kProbe: {
      ScopedSpan marker("plan.probe");
      registry.GetCounter("gks.search.plan.probe_total")->Increment();
      break;
    }
    case PlanMode::kAuto:
      break;  // unreachable: the planner always resolves kAuto
  }

  if (partial.plan.topk.engaged) {
    // Top-k axis: the block-max evaluator substitutes for the chosen
    // strategy (its nodes equal any strategy's, truncated to the k best,
    // already in final order). Spans `topk.scan` / `topk.finalize` and the
    // gks.search.topk.* counters are recorded inside.
    TopKResult topk =
        EvaluateTopK(*index_, query, s, options.top_k, &arena);
    partial.nodes = std::move(topk.nodes);
    partial.merged_list_size = topk.merged_list_size;
    partial.candidate_count = topk.candidate_count;
    partial.plan.topk.segments = topk.stats.segments;
    partial.plan.topk.segments_pruned_sparse =
        topk.stats.segments_pruned_sparse;
    partial.plan.topk.segments_pruned_bound = topk.stats.segments_pruned_bound;
    partial.plan.topk.blocks_skipped = topk.stats.blocks_skipped;
    partial.plan.topk.docs_skipped = topk.stats.docs_skipped;
  } else if (partial.plan.strategy == PlanMode::kMerge) {
    MergedList sl = [&] {
      ScopedSpan span("merged_list");
      MergedList merged = MergedList::Build(*index_, query, &arena);
      span.AddItems(merged.size());
      return merged;
    }();
    partial.merged_list_size = sl.size();

    std::vector<LcpCandidate> candidates = [&] {
      ScopedSpan span("window_scan");
      std::vector<LcpCandidate> lcps = ComputeLcpCandidates(sl, s);
      span.AddItems(lcps.size());
      return lcps;
    }();
    partial.candidate_count = candidates.size();

    {
      ScopedSpan span("lce");
      partial.nodes = ComputeGksNodes(*index_, sl, candidates);
      span.AddItems(partial.nodes.size());
    }
    sl.ReleaseTo(&arena);
  } else {
    ProbeEvaluator eval(*index_, query, s, {}, &arena);
    {
      ScopedSpan span("merged_list");
      eval.PrepareLists();
      span.AddItems(eval.anchor_postings());
    }
    // Patch the plan report with the evaluator's exact view: the planner
    // estimated phrase/tag atom sizes from token-list upper bounds, so the
    // anchor set may shift once exact sizes are known.
    partial.plan.anchor_postings = eval.anchor_postings();
    for (PlanAtomStats& stats : partial.plan.atoms) stats.anchor = false;
    for (uint32_t atom : eval.anchors()) {
      partial.plan.atoms[atom].anchor = true;
    }

    {
      ScopedSpan span("window_scan");
      eval.RunVirtualScan();
      span.AddItems(eval.candidates().size());
    }
    partial.merged_list_size = eval.merged_size();
    partial.candidate_count = eval.candidates().size();
    partial.plan.probe_events = eval.events();

    {
      ScopedSpan lce_span("lce");
      {
        ScopedSpan span("prune");
        eval.PruneCandidates();
        span.AddItems(eval.pruned().size());
      }
      {
        ScopedSpan span("probe.gather");
        eval.GatherReduced();
        span.AddItems(eval.reduced().size());
      }
      partial.plan.gathered_postings = eval.reduced().size();
      partial.nodes =
          ComputeGksNodesPruned(*index_, eval.reduced(), eval.pruned());
      lce_span.AddItems(partial.nodes.size());
    }
  }
  std::vector<Partial> partials;
  partials.push_back(std::move(partial));
  auto di_source = [&](NodeOrigin, const GksNode& node, DiAccumulator* acc) {
    AccumulateDi(*index_, node, query, DiOptions{}, acc);
  };
  return MergePartials(query, options, std::move(partials), di_source)
      .response;
}

Result<SearchResponse> GksSearcher::Search(const Query& query,
                                           const SearchOptions& options) const {
  std::string cache_key;
  if (cache_ != nullptr) {
    cache_key = QueryResultCache::MakeKey(NormalizedQueryText(query), options,
                                          index_->epoch);
    SearchResponse cached;
    if (cache_->Get(cache_key, &cached)) return cached;
  }
  WallTimer total_timer;
  TraceCollector collector("gks.search");
  Result<SearchResponse> response = SearchTraced(query, options);
  if (!response.ok()) return response;
  response->trace = collector.Finish();
  FinishTimings(total_timer, &*response);
  if (cache_ != nullptr) cache_->Put(cache_key, *response);
  return response;
}

Result<SearchResponse> GksSearcher::Search(std::string_view query_text,
                                           const SearchOptions& options) const {
  WallTimer total_timer;
  TraceCollector collector("gks.search");
  Result<Query> query = [&] {
    ScopedSpan span("parse");
    return Query::Parse(query_text);
  }();
  if (!query.ok()) return query.status();
  std::string cache_key;
  if (cache_ != nullptr) {
    // The analyzed form makes equivalent spellings share one entry, and
    // the epoch pins the index state.
    cache_key = QueryResultCache::MakeKey(NormalizedQueryText(*query), options,
                                          index_->epoch);
    SearchResponse cached;
    if (cache_->Get(cache_key, &cached)) return cached;
  }
  Result<SearchResponse> response = SearchTraced(*query, options);
  if (!response.ok()) return response;
  response->trace = collector.Finish();
  FinishTimings(total_timer, &*response);
  if (cache_ != nullptr) cache_->Put(cache_key, *response);
  return response;
}

std::vector<Result<SearchResponse>> GksSearcher::SearchBatch(
    const std::vector<std::string>& query_texts, const SearchOptions& options,
    ThreadPool* pool) const {
  MetricsRegistry::Global()
      .GetCounter("gks.search.batch.queries_total")
      ->Add(query_texts.size());
  // Result<T> has no default constructor; stage through optionals so each
  // worker constructs its slot exactly once.
  std::vector<std::optional<Result<SearchResponse>>> scratch(
      query_texts.size());
  ParallelFor(pool, query_texts.size(), [&](size_t i) {
    scratch[i].emplace(Search(query_texts[i], options));
  });
  std::vector<Result<SearchResponse>> responses;
  responses.reserve(scratch.size());
  for (std::optional<Result<SearchResponse>>& slot : scratch) {
    responses.push_back(std::move(*slot));
  }
  return responses;
}

std::string FormatSearchDiagnostics(const SearchResponse& response) {
  char buf[896];
  const SearchResponse::Timings& t = response.timings;
  std::snprintf(
      buf, sizeof(buf),
      "plan=%s (%s) kernel=%s\n"
      "s=%u  |S_L|=%zu  candidates=%zu  nodes=%zu (LCE %zu)\n"
      "parse %.3fms | merge %.3fms | windows %.3fms | lce+rank %.3fms | "
      "di %.3fms | refine %.3fms\n"
      "stages %.3fms + other %.3fms = total %.3fms",
      PlanModeName(response.plan.strategy), response.plan.reason.c_str(),
      simd::Active().name,
      response.effective_s, response.merged_list_size,
      response.candidate_count, response.nodes.size(), response.lce_count,
      t.parse_ms, t.merge_ms, t.window_ms, t.lce_ms, t.di_ms, t.refine_ms,
      t.StageSumMs(), t.OtherMs(), t.total_ms);
  std::string out = buf;
  const PlanTopK& topk = response.plan.topk;
  if (topk.engaged) {
    char tbuf[224];
    std::snprintf(
        tbuf, sizeof(tbuf),
        "\ntop-k=%u  segments=%llu (sparse-skipped %llu, bound-skipped "
        "%llu)  blocks_skipped=%llu  docs_skipped=%llu",
        topk.k, static_cast<unsigned long long>(topk.segments),
        static_cast<unsigned long long>(topk.segments_pruned_sparse),
        static_cast<unsigned long long>(topk.segments_pruned_bound),
        static_cast<unsigned long long>(topk.blocks_skipped),
        static_cast<unsigned long long>(topk.docs_skipped));
    out += tbuf;
  }
  return out;
}

std::string ExplainJson(const SearchResponse& response) {
  const SearchResponse::Timings& t = response.timings;
  JsonWriter json;
  json.BeginObject();
  json.Key("s").UInt(response.effective_s);
  json.Key("merged_list_size").UInt(response.merged_list_size);
  json.Key("candidates").UInt(response.candidate_count);
  json.Key("nodes").UInt(response.nodes.size());
  json.Key("lce").UInt(response.lce_count);
  const PlanInfo& plan = response.plan;
  json.Key("plan").BeginObject();
  json.Key("strategy").String(PlanModeName(plan.strategy));
  json.Key("requested").String(PlanModeName(plan.requested));
  json.Key("reason").String(plan.reason);
  json.Key("largest_postings").UInt(plan.largest_postings);
  json.Key("anchor_postings").UInt(plan.anchor_postings);
  json.Key("skew").Double(plan.skew, 2);
  json.Key("probe_events").UInt(plan.probe_events);
  json.Key("gathered_postings").UInt(plan.gathered_postings);
  // Active hot-path kernel tier ("scalar" or "avx2") — dispatch is
  // process-wide (src/common/simd/kernels.h), surfaced here so a saved
  // explain document records which kernels produced its timings.
  json.Key("kernel").String(simd::Active().name);
  json.Key("topk").BeginObject();
  json.Key("k").UInt(plan.topk.k);
  json.Key("engaged").Bool(plan.topk.engaged);
  json.Key("reason").String(plan.topk.reason);
  json.Key("segments").UInt(plan.topk.segments);
  json.Key("segments_pruned_sparse").UInt(plan.topk.segments_pruned_sparse);
  json.Key("segments_pruned_bound").UInt(plan.topk.segments_pruned_bound);
  json.Key("blocks_skipped").UInt(plan.topk.blocks_skipped);
  json.Key("docs_skipped").UInt(plan.topk.docs_skipped);
  json.EndObject();
  json.Key("atoms").BeginArray();
  for (const PlanAtomStats& atom : plan.atoms) {
    json.BeginObject();
    json.Key("keyword").String(atom.keyword);
    json.Key("postings").UInt(atom.postings);
    json.Key("blocks").UInt(atom.blocks);
    json.Key("doc_span").UInt(atom.doc_span);
    json.Key("anchor").Bool(atom.anchor);
    json.Key("estimated").Bool(atom.estimated);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  json.Key("timings").BeginObject();
  json.Key("parse_ms").Double(t.parse_ms);
  json.Key("merge_ms").Double(t.merge_ms);
  json.Key("window_ms").Double(t.window_ms);
  json.Key("lce_ms").Double(t.lce_ms);
  json.Key("di_ms").Double(t.di_ms);
  json.Key("refine_ms").Double(t.refine_ms);
  json.Key("stage_sum_ms").Double(t.StageSumMs());
  json.Key("other_ms").Double(t.OtherMs());
  json.Key("total_ms").Double(t.total_ms);
  json.EndObject();
  json.Key("spans").Raw(response.trace.ToJson());
  json.EndObject();
  return json.Take();
}

Result<std::vector<std::vector<DiKeyword>>> GksSearcher::DiscoverRecursiveDi(
    const Query& query, const SearchOptions& options, size_t rounds) const {
  std::vector<std::vector<DiKeyword>> result;
  Query current = query;
  for (size_t round = 0; round < rounds; ++round) {
    GKS_ASSIGN_OR_RETURN(SearchResponse response, Search(current, options));
    if (response.insights.empty()) break;
    result.push_back(response.insights);
    std::vector<std::string> keywords;
    for (const DiKeyword& di : response.insights) {
      keywords.push_back(di.value);
    }
    Result<Query> next = Query::FromKeywords(keywords);
    if (!next.ok()) break;  // DI values analyzed away: stop recursing
    current = std::move(next).value();
  }
  return result;
}

std::string DescribeNode(const XmlIndex& index, const GksNode& node,
                         size_t max_attrs) {
  std::string out;
  const NodeInfo* info = index.nodes.Find(node.id);
  out += "<";
  out += info != nullptr ? index.nodes.TagName(info->tag_id) : "?";
  out += "> ";
  out += node.id.ToString();
  if (node.is_lce) out += " [LCE]";
  if (info != nullptr) {
    out += " [";
    out += NodeFlagsToString(info->flags);
    out += "]";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), " keywords=%u rank=%.3f",
                node.keyword_count, node.rank);
  out += buf;

  // Show the node's first few own attribute values as context.
  auto [begin, end] = index.attributes.SubtreeRange(DeweySpan::Of(node.id));
  size_t shown = 0;
  std::string attrs;
  for (size_t i = begin; i < end && shown < max_attrs; ++i) {
    DeweySpan attr_id = index.attributes.IdAt(i);
    if (attr_id.size != DeweySpan::Of(node.id).size + 1) continue;  // direct
    if (shown > 0) attrs += ", ";
    attrs += index.nodes.TagName(index.attributes.TagAt(i));
    attrs += ": ";
    attrs += index.nodes.Value(index.attributes.ValueAt(i));
    ++shown;
  }
  if (!attrs.empty()) {
    out += " {";
    out += attrs;
    out += "}";
  }
  return out;
}

}  // namespace gks
