#include "core/searcher.h"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "common/json_writer.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"

#include "core/arena.h"
#include "core/merged_list.h"
#include "core/partial_merge.h"
#include "core/planner.h"
#include "core/probe_eval.h"
#include "core/topk_eval.h"
#include "core/window_scan.h"

namespace gks {
namespace {

// Backfills the legacy Timings struct from the recorded span tree (each
// stage field sums that stage's spans: one per segment) and the
// end-to-end timer, and feeds the query-level registry instruments once
// per query.
void FinishTimings(const WallTimer& total_timer, SearchResponse* response) {
  SearchResponse::Timings& t = response->timings;
  for (const TraceSpan& span : response->trace.spans()) {
    if (span.name == "parse") {
      t.parse_ms += span.elapsed_ms;
    } else if (span.name == "merged_list") {
      t.merge_ms += span.elapsed_ms;
    } else if (span.name == "window_scan") {
      t.window_ms += span.elapsed_ms;
    } else if (span.name == "lce") {  // includes prune + ranking
      t.lce_ms += span.elapsed_ms;
    } else if (span.name == "di") {
      t.di_ms += span.elapsed_ms;
    } else if (span.name == "refinement") {
      t.refine_ms += span.elapsed_ms;
    }
  }
  t.total_ms = total_timer.ElapsedMillis();

  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("gks.search.queries_total")->Increment();
  registry.GetHistogram("gks.search.total.latency_ms")->Observe(t.total_ms);
  registry.GetCounter("gks.search.nodes_total")
      ->Add(response->nodes.size());
}

// True when any tombstone falls inside the segment's doc-id range.
bool HasTombstones(const SegmentSetSnapshot& snapshot,
                   const SegmentView& segment) {
  if (snapshot.deleted == nullptr || snapshot.deleted->empty()) return false;
  auto it = std::lower_bound(snapshot.deleted->begin(),
                             snapshot.deleted->end(), segment.doc_base);
  return it != snapshot.deleted->end() &&
         *it < segment.doc_base + segment.doc_count;
}

// One segment's evaluation, up to its partial: the planner picks the
// strategy, the chosen evaluator fills the ranked nodes (in any order).
// `top_k` is the cut the planner may engage the block-max evaluator for.
Partial EvaluateSegment(const XmlIndex& index, const Query& query, uint32_t s,
                        const SearchOptions& options, uint32_t top_k) {
  Partial partial;
  // The arena is per worker thread: scratch buffers (atom lists, merged
  // list storage, gather buffers) cycle through it across queries instead
  // of hitting the allocator each time.
  QueryArena& arena = QueryArena::ThreadLocal();
  PlannerDecision decision = ChoosePlan(index, query, s, options.plan, top_k,
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
    TopKResult topk = EvaluateTopK(index, query, s, top_k, &arena);
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
      MergedList merged = MergedList::Build(index, query, &arena);
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
      partial.nodes = ComputeGksNodes(index, sl, candidates);
      span.AddItems(partial.nodes.size());
    }
    sl.ReleaseTo(&arena);
  } else {
    ProbeEvaluator eval(index, query, s, {}, &arena);
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
          ComputeGksNodesPruned(index, eval.reduced(), eval.pruned());
      lce_span.AddItems(partial.nodes.size());
    }
  }
  return partial;
}

}  // namespace

GksSearcher::GksSearcher(const XmlIndex* index) {
  // The index is borrowed: an owner-less shared_ptr points at it.
  snapshot_ = OneSegmentSnapshot(
      std::shared_ptr<const XmlIndex>(std::shared_ptr<const XmlIndex>(),
                                      index));
}

// Canonical form of a parsed query: analyzed terms (lowercased, stemmed,
// whitespace-collapsed) plus tag constraints — NOT Query::ToString, which
// preserves the raw spelling ("XML  Data" must hit "xml data" in the
// server's response cache). Control separators cannot occur in analyzed
// tokens.
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
  const std::vector<SegmentView>& segments = snapshot_->segments;
  const uint32_t s = EffectiveS(query, options);
  std::vector<Partial> partials(segments.size());
  for (size_t i = 0; i < segments.size(); ++i) {
    // A single index records the plain stage spans; over several segments
    // each segment's stages nest under its own span.
    std::optional<ScopedSpan> span;
    if (segments.size() > 1) span.emplace("segment:" + segments[i].label);
    // Exactness under deletion: a segment's k best survivors may rank
    // below k masked nodes, so a segment holding tombstones is evaluated
    // in full and the merge cuts to k.
    const bool masked = HasTombstones(*snapshot_, segments[i]);
    partials[i] = EvaluateSegment(*segments[i].index, query, s, options,
                                  masked ? 0 : options.top_k);
    if (masked) {
      std::erase_if(partials[i].nodes, [&](const GksNode& node) {
        return snapshot_->IsDeleted(node.id.doc_id());
      });
    }
  }
  // A node's DI resolves through the segment it came from.
  auto di_source = [&](NodeOrigin origin, const GksNode& node,
                       DiAccumulator* acc) {
    AccumulateDi(*segments[origin.partial].index, node, query, DiOptions{},
                 acc);
  };
  return MergePartials(query, options, std::move(partials), di_source)
      .response;
}

Result<SearchResponse> GksSearcher::Search(const Query& query,
                                           const SearchOptions& options) const {
  WallTimer total_timer;
  TraceCollector collector("gks.search");
  Result<SearchResponse> response = SearchTraced(query, options);
  if (!response.ok()) return response;
  response->trace = collector.Finish();
  FinishTimings(total_timer, &*response);
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
  Result<SearchResponse> response = SearchTraced(*query, options);
  if (!response.ok()) return response;
  response->trace = collector.Finish();
  FinishTimings(total_timer, &*response);
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
      "plan=%s (%s)\n"
      "s=%u  |S_L|=%zu  candidates=%zu  nodes=%zu (LCE %zu)\n"
      "parse %.3fms | merge %.3fms | windows %.3fms | lce+rank %.3fms | "
      "di %.3fms | refine %.3fms\n"
      "stages %.3fms + other %.3fms = total %.3fms",
      PlanModeName(response.plan.strategy), response.plan.reason.c_str(),
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

  // Show the node's first few direct valued children as context.
  const uint32_t child_size = DeweySpan::Of(node.id).size + 1;
  size_t shown = 0;
  std::string attrs;
  if (max_attrs > 0) {
    index.nodes.ForEachValuedRow(
        DeweySpan::Of(node.id), [&](size_t row, bool) {
          if (index.nodes.IdAt(row).size != child_size) return true;
          const NodeInfo& child = index.nodes.InfoAt(row);
          if (shown > 0) attrs += ", ";
          attrs += index.nodes.TagName(child.tag_id);
          attrs += ": ";
          attrs += index.nodes.Value(child.value_id);
          return ++shown < max_attrs;
        });
  }
  if (!attrs.empty()) {
    out += " {";
    out += attrs;
    out += "}";
  }
  return out;
}

std::string DescribeNode(const SegmentSetSnapshot& snapshot,
                         const GksNode& node, size_t max_attrs) {
  const SegmentView* segment = snapshot.SegmentFor(node.id.doc_id());
  if (segment == nullptr) return "<?> " + node.id.ToString();
  return DescribeNode(*segment->index, node, max_attrs);
}

std::vector<std::vector<DiContribution>> ComputeDiContributions(
    const SegmentSetSnapshot& snapshot, const std::vector<GksNode>& nodes,
    const Query& query, const DiOptions& options) {
  std::vector<std::vector<DiContribution>> out(nodes.size());
  for (size_t n = 0; n < nodes.size(); ++n) {
    if (!GivesDi(nodes[n])) continue;
    const SegmentView* segment = snapshot.SegmentFor(nodes[n].id.doc_id());
    if (segment == nullptr) continue;
    out[n] = NodeDiContributions(*segment->index, nodes[n], query, options);
  }
  return out;
}

}  // namespace gks
