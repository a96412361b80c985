// The traced pass (traced.h). Every timed region wraps exactly one
// public call, so the per-layer numbers are the cost of that call as a
// caller sees it; core.unattributed_ms shows whatever the stage calls do
// not cover (the rank sort, result assembly, tracing inside Search).

#include "traced.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/json_value.h"
#include "common/json_writer.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "core/arena.h"
#include "core/di.h"
#include "core/lce.h"
#include "core/merged_list.h"
#include "core/planner.h"
#include "core/probe_eval.h"
#include "core/query.h"
#include "core/refinement.h"
#include "core/searcher.h"
#include "core/segment_search.h"
#include "core/shard_merge.h"
#include "core/topk_eval.h"
#include "core/window_scan.h"
#include "index/index_builder.h"
#include "index/rt_index.h"
#include "index/serialization.h"
#include "index/shard.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace perfbench {
namespace {

using gks::WallTimer;

/// Summed milliseconds per named region.
class Clocks {
 public:
  template <typename F>
  decltype(auto) Time(const std::string& name, F&& f) {
    WallTimer timer;
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      ms_[name] += timer.ElapsedMillis();
    } else {
      decltype(auto) result = f();
      ms_[name] += timer.ElapsedMillis();
      return result;
    }
  }
  double Total(const std::string& name) const {
    auto it = ms_.find(name);
    return it != ms_.end() ? it->second : 0.0;
  }

 private:
  std::map<std::string, double> ms_;
};

/// Kernel block-decode calls so far (both dispatch tiers).
uint64_t BlocksDecoded() {
  gks::MetricsRegistry& registry = gks::MetricsRegistry::Global();
  return registry.GetCounter("gks.search.kernel.posting_decode.scalar_total")
             ->value() +
         registry.GetCounter("gks.search.kernel.posting_decode.simd_total")
             ->value();
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Full engine-level identity of two responses: nodes (id, LCE flag,
/// mask, count, bit-exact rank), DI and refinements.
bool SameAnswer(const gks::SearchResponse& a, const gks::SearchResponse& b) {
  if (a.nodes.size() != b.nodes.size() ||
      a.insights.size() != b.insights.size() ||
      a.refinements.size() != b.refinements.size()) {
    return false;
  }
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    const gks::GksNode& x = a.nodes[i];
    const gks::GksNode& y = b.nodes[i];
    if (!(x.id == y.id) || x.is_lce != y.is_lce ||
        x.keyword_mask != y.keyword_mask ||
        x.keyword_count != y.keyword_count || !SameBits(x.rank, y.rank)) {
      return false;
    }
  }
  for (size_t i = 0; i < a.insights.size(); ++i) {
    const gks::DiKeyword& x = a.insights[i];
    const gks::DiKeyword& y = b.insights[i];
    if (x.value != y.value || x.path != y.path || x.support != y.support ||
        !SameBits(x.weight, y.weight)) {
      return false;
    }
  }
  for (size_t i = 0; i < a.refinements.size(); ++i) {
    const gks::RefinementSuggestion& x = a.refinements[i];
    const gks::RefinementSuggestion& y = b.refinements[i];
    if (x.kind != y.kind || x.keywords != y.keywords ||
        !SameBits(x.score, y.score)) {
      return false;
    }
  }
  return true;
}

std::string FingerprintOf(const std::string& wire) {
  gks::Result<gks::JsonValue> parsed = gks::JsonValue::Parse(wire);
  return parsed.ok() ? Fingerprint(*parsed) : std::string();
}

/// The searcher pipeline (core/searcher.cc SearchTraced) rebuilt from
/// the stage functions, each call timed by `clocks`.
struct Replay {
  gks::SearchResponse response;
  gks::PlanMode strategy = gks::PlanMode::kMerge;
  bool topk_engaged = false;
  uint64_t blocks_skipped = 0;
  uint64_t gathered = 0;
  size_t nodes_before_trim = 0;
};

Replay ReplayStages(const gks::XmlIndex& index, const gks::Query& query,
                    const gks::SearchOptions& options, Clocks* clocks) {
  Replay out;
  gks::SearchResponse& response = out.response;
  uint32_t s = options.s == 0 ? static_cast<uint32_t>(query.size())
                              : options.s;
  s = std::min<uint32_t>(s, static_cast<uint32_t>(query.size()));
  response.effective_s = s;
  gks::QueryArena& arena = gks::QueryArena::ThreadLocal();

  gks::PlannerDecision decision = clocks->Time("core.plan_ms", [&] {
    return gks::ChoosePlan(index, query, s, options.plan, options.top_k,
                           options.topk_scan_floor);
  });
  out.strategy = decision.info.strategy;
  out.topk_engaged = decision.info.topk.engaged;

  if (out.topk_engaged) {
    gks::TopKResult topk = clocks->Time("core.topk_ms", [&] {
      return gks::EvaluateTopK(index, query, s, options.top_k, &arena);
    });
    response.nodes = std::move(topk.nodes);
    response.merged_list_size = topk.merged_list_size;
    response.candidate_count = topk.candidate_count;
    out.blocks_skipped = topk.stats.blocks_skipped;
  } else if (out.strategy == gks::PlanMode::kMerge) {
    gks::MergedList sl = clocks->Time("core.merge_ms", [&] {
      return gks::MergedList::Build(index, query, &arena);
    });
    response.merged_list_size = sl.size();
    std::vector<gks::LcpCandidate> pruned =
        clocks->Time("core.window_ms", [&] {
          std::vector<gks::LcpCandidate> candidates =
              gks::ComputeLcpCandidates(sl, s);
          response.candidate_count = candidates.size();
          return gks::PruneCoveredAncestors(sl, std::move(candidates));
        });
    response.nodes = clocks->Time("core.lce_rank_ms", [&] {
      return gks::ComputeGksNodesPruned(index, sl, pruned);
    });
    sl.ReleaseTo(&arena);
  } else {
    gks::ProbeEvaluator eval(index, query, s, decision.probe, &arena);
    clocks->Time("core.probe_ms", [&] {
      eval.PrepareLists();
      eval.RunVirtualScan();
      eval.PruneCandidates();
      eval.GatherReduced();
    });
    response.merged_list_size = eval.merged_size();
    response.candidate_count = eval.candidates().size();
    out.gathered = eval.reduced().size();
    response.nodes = clocks->Time("core.lce_rank_ms", [&] {
      return gks::ComputeGksNodesPruned(index, eval.reduced(), eval.pruned());
    });
  }
  if (!out.topk_engaged) {
    std::sort(response.nodes.begin(), response.nodes.end(),
              [](const gks::GksNode& a, const gks::GksNode& b) {
                if (a.rank != b.rank) return a.rank > b.rank;
                if (a.keyword_count != b.keyword_count) {
                  return a.keyword_count > b.keyword_count;
                }
                return a.id < b.id;
              });
    if (options.top_k > 0 && response.nodes.size() > options.top_k) {
      response.nodes.resize(options.top_k);
    }
  }
  out.nodes_before_trim = response.nodes.size();
  if (options.discover_di) {
    gks::DiOptions di_options;
    di_options.top_m = options.di_top_m;
    response.insights = clocks->Time("core.di_ms", [&] {
      return gks::DiscoverDi(index, response.nodes, query, di_options);
    });
  }
  if (options.suggest_refinements) {
    response.refinements = clocks->Time("core.refine_ms", [&] {
      return gks::SuggestRefinements(query, response.nodes,
                                     response.insights);
    });
  }
  if (options.max_results > 0 &&
      response.nodes.size() > options.max_results) {
    response.nodes.resize(options.max_results);
  }
  return out;
}

/// The request line a coordinator sends a shard worker for `request`
/// (server/coordinator.cc BuildShardRequestLine).
std::string ShardRequestLine(const gks::WireRequest& request) {
  gks::JsonWriter json;
  json.BeginObject();
  json.Key("query").String(request.query);
  json.Key("s").UInt(request.options.s);
  if (request.options.top_k > 0) {
    json.Key("top_k").UInt(request.options.top_k);
  }
  if (request.options.plan != gks::PlanMode::kAuto) {
    json.Key("plan").String(gks::PlanModeName(request.options.plan));
  }
  json.Key("shard").Bool(true);
  if (request.options.discover_di && request.options.di_top_m > 0) {
    json.Key("di_contrib").Bool(true);
  }
  json.EndObject();
  return json.Take();
}

template <typename T>
T Check(gks::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).value();
}

void Check(const gks::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

}  // namespace

Metrics RunTracedPass(const TracedInputs& in) {
  Metrics metrics;
  auto add = [&](const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  };
  std::error_code error;
  std::filesystem::create_directories(in.dir, error);

  // --- index: build, save, load, split --------------------------------
  const std::string index_path = in.dir + "/traced.gksidx";
  {
    WallTimer build;
    gks::IndexBuilder builder;
    for (const std::string& file : in.corpus->files) {
      Check(builder.AddFile(file), "index");
    }
    gks::XmlIndex built = Check(std::move(builder).Finalize(), "finalize");
    add("index.build_s", build.ElapsedSeconds(), "s");
    WallTimer save;
    Check(gks::SaveIndex(built, index_path), "save");
    add("index.save_s", save.ElapsedSeconds(), "s");
  }
  WallTimer load;
  const gks::XmlIndex index = Check(gks::LoadIndex(index_path), "load");
  add("index.load_s", load.ElapsedSeconds(), "s");
  const std::string shard_dir = in.dir + "/shards";
  std::filesystem::create_directories(shard_dir, error);
  WallTimer split;
  gks::ShardManifest manifest = Check(
      gks::SplitIntoShards(in.corpus->files, 2, shard_dir), "split");
  add("index.split_s", split.ElapsedSeconds(), "s");
  add("index.bytes", static_cast<double>(DiskBytes(index_path)), "bytes");
  std::vector<gks::XmlIndex> shards;
  for (const gks::ShardSpec& spec : manifest.shards) {
    shards.push_back(
        Check(gks::LoadIndex(shard_dir + "/" + spec.file), "shard load"));
  }

  // --- text + core: stage replay against GksSearcher::Search ----------
  Clocks clocks;
  const size_t n = in.stream.size();
  if (n == 0) Die("traced pass has no queries");
  // Each component gets its own pass over the whole stream, so no timed
  // call runs right after another call on the same query (which would
  // find that query's lists and nodes already in the CPU caches).
  std::vector<gks::WireRequest> requests;
  std::vector<gks::Query> queries;
  for (const BenchQuery& bench : in.stream) {
    const std::string line = bench.RequestLine();
    requests.push_back(clocks.Time("server.parse_request_ms", [&] {
      return Check(gks::ParseWireRequest(line), "parse request");
    }));
    queries.push_back(clocks.Time("text.parse_ms", [&] {
      return Check(gks::Query::Parse(requests.back().query), "parse query");
    }));
  }
  std::vector<gks::SearchResponse> answers;  // GksSearcher::Search
  double class_ms[kClassCount] = {};
  size_t class_n[kClassCount] = {};
  gks::GksSearcher searcher(&index);
  for (size_t i = 0; i < n; ++i) {
    WallTimer timer;
    answers.push_back(Check(
        searcher.Search(requests[i].query, requests[i].options), "search"));
    const size_t cls = static_cast<size_t>(in.stream[i].cls);
    class_ms[cls] += timer.ElapsedMillis();
    ++class_n[cls];
  }
  std::map<std::string, uint64_t> counts;
  uint64_t topk_skipped = 0;
  for (size_t i = 0; i < n; ++i) {
    const BenchQuery& bench = in.stream[i];
    Replay replay =
        ReplayStages(index, queries[i], requests[i].options, &clocks);
    if (!SameAnswer(replay.response, answers[i])) {
      Die("traced replay disagrees with GksSearcher::Search on '" +
          bench.text + "'");
    }
    counts[std::string("core.plan.") + gks::PlanModeName(replay.strategy)] +=
        1;
    counts["core.sl_entries"] += replay.response.merged_list_size;
    counts["core.candidates"] += replay.response.candidate_count;
    counts["core.nodes"] += replay.nodes_before_trim;
    counts["core.probe_gathered_postings"] += replay.gathered;
    counts["core.topk_blocks_skipped"] += replay.blocks_skipped;
    if (bench.cls == QueryClass::kTopK) topk_skipped += replay.blocks_skipped;
    if (in.check_mechanisms) {
      if (bench.cls == QueryClass::kSkewed &&
          replay.strategy != gks::PlanMode::kProbe) {
        Die("skewed query not planned as probe: '" + bench.text + "'");
      }
      if (bench.cls == QueryClass::kTopK && !replay.topk_engaged) {
        Die("topk query did not engage block-max: '" + bench.text + "'");
      }
      if (bench.cls == QueryClass::kDi && answers[i].insights.empty()) {
        Die("di query returned no DI: '" + bench.text + "'");
      }
    }
  }
  if (in.check_mechanisms && topk_skipped == 0) {
    Die("topk class skipped no posting blocks");
  }
  // The servers load eagerly, which decodes every posting block up
  // front; the block work a query stream causes shows on a mapped index,
  // where lists decode block by block as cursors reach them.
  uint64_t decoded = 0;
  {
    const gks::XmlIndex mapped =
        Check(gks::LoadIndexMapped(index_path), "load mapped");
    gks::GksSearcher lazy(&mapped);
    const uint64_t before = BlocksDecoded();
    for (size_t i = 0; i < n; ++i) {
      Check(lazy.Search(requests[i].query, requests[i].options),
            "mapped search");
    }
    decoded = BlocksDecoded() - before;
  }
  double search_total = 0.0;
  for (size_t c = 0; c < kClassCount; ++c) search_total += class_ms[c];
  const double per_query = 1.0 / static_cast<double>(n);

  // --- server: serialization and a single-connection round trip -------
  uint64_t response_bytes = 0;
  std::vector<std::string> expected(n);
  for (size_t i = 0; i < n; ++i) {
    std::string wire = clocks.Time("server.serialize_ms", [&] {
      return gks::WireResponseBuilder::Query(requests[i], answers[i], index,
                                             index.epoch, 0.0);
    });
    response_bytes += wire.size();
    expected[i] = FingerprintOf(wire);
  }
  {
    // Cache off, so every round trip runs the search it measures.
    gks::ServerConfig config;
    config.port = 0;
    config.cache_capacity = 0;
    gks::GksServer server(config, index_path);
    Check(server.Start(), "traced server");
    gks::ServerConnection conn =
        Check(gks::ServerConnection::Open("127.0.0.1", server.port()),
              "traced connect");
    for (size_t i = 0; i < n; ++i) {
      std::string line = in.stream[i].RequestLine();
      std::string raw = clocks.Time("server.roundtrip_ms", [&] {
        return Check(conn.CallRaw(line), "round trip");
      });
      if (FingerprintOf(raw) != expected[i]) {
        Die("server answer differs from GksSearcher on '" +
            in.stream[i].text + "'");
      }
    }
    conn.Close();
    server.RequestShutdown();
    server.Wait();
  }

  // --- coordinator: partials rebuilt as the shard suite's RunShard ----
  uint64_t partial_bytes = 0;
  uint64_t partial_nodes = 0;
  for (size_t i = 0; i < n; ++i) {
    const gks::WireRequest& request = requests[i];
    const gks::Query& query = queries[i];
    gks::WireRequest shard_request =
        Check(gks::ParseWireRequest(ShardRequestLine(request)), "shard line");
    std::vector<gks::ShardPartialResult> partials;
    for (size_t k = 0; k < shards.size(); ++k) {
      const gks::XmlIndex& shard = shards[k];
      const uint32_t doc_base = manifest.shards[k].doc_base;
      gks::GksSearcher worker(&shard);
      gks::SearchResponse response =
          clocks.Time("coord.worker_search_ms", [&] {
            return Check(worker.Search(query, shard_request.options),
                         "shard search");
          });
      std::vector<std::vector<gks::DiContribution>> contributions;
      if (shard_request.want_di_contrib) {
        contributions = clocks.Time("coord.di_contrib_ms", [&] {
          return gks::ComputeDiContributions(shard, response.nodes, query,
                                             gks::DiOptions{});
        });
      }
      gks::ShardPartialResult partial;
      partial.merged_list_size = response.merged_list_size;
      partial.candidate_count = response.candidate_count;
      partial.plan = response.plan.strategy;
      partial.epoch = 1;
      clocks.Time("coord.describe_ms", [&] {
        for (size_t j = 0; j < response.nodes.size(); ++j) {
          gks::ShardResultNode node;
          node.node = response.nodes[j];
          node.doc_name =
              shard.catalog.document(node.node.id.doc_id() - doc_base).name;
          node.describe = gks::DescribeNode(shard, node.node);
          if (j < contributions.size()) node.di = contributions[j];
          partial.nodes.push_back(std::move(node));
        }
      });
      gks::QueryWireExtras extras;
      extras.shard_mode = true;
      extras.doc_base = doc_base;
      if (shard_request.want_di_contrib) extras.contributions = &contributions;
      std::string line = clocks.Time("coord.partial_serialize_ms", [&] {
        return gks::WireResponseBuilder::Query(shard_request, response, shard,
                                               1, 0.0, extras);
      });
      partial_bytes += line.size();
      partial_nodes += response.nodes.size();
      clocks.Time("coord.decode_ms", [&] {
        return Check(gks::JsonValue::Parse(line), "partial decode");
      });
      partials.push_back(std::move(partial));
    }
    gks::MergedShardResult merged = clocks.Time("coord.merge_ms", [&] {
      return gks::MergeShardResults(query, request.options,
                                    std::move(partials));
    });
    std::string wire = clocks.Time("coord.serialize_ms", [&] {
      return gks::WireResponseBuilder::Query(request, merged, 0.0);
    });
    if (FingerprintOf(wire) != expected[i]) {
      Die("merged shard answer differs from the single index on '" +
          in.stream[i].text + "'");
    }
  }

  // --- real-time index: inserts, flushes, merges, segmented search -----
  std::vector<double> insert_ms;
  std::vector<double> flush_ms;
  std::vector<double> merge_ms;
  uint64_t inserted_bytes = 0;
  gks::RtStats rt_stats;
  gks::Counter* wal_bytes =
      gks::MetricsRegistry::Global().GetCounter("gks.rt.wal.bytes_total");
  const uint64_t wal_before = wal_bytes->value();
  {
    gks::RtOptions options;
    options.dir = in.dir + "/rt";
    options.base_index_path = index_path;
    options.background = false;  // flush/merge driven here, in order
    std::unique_ptr<gks::RtIndex> rt =
        Check(gks::RtIndex::Open(options), "rt open");
    for (size_t i = 0; i < in.inserts; ++i) {
      InsertDoc doc = MakeInsertDoc(in.seed, i);
      inserted_bytes += doc.xml.size();
      WallTimer timer;
      Check(rt->Insert(doc.name, doc.xml), "rt insert");
      insert_ms.push_back(timer.ElapsedMillis());
      if (rt->Stats().ram_docs >= options.flush_docs) {
        WallTimer flush;
        Check(rt->Flush(), "rt flush");
        flush_ms.push_back(flush.ElapsedMillis());
        uint64_t merges = rt->Stats().merges;
        WallTimer merge;
        Check(rt->MaybeMerge(), "rt merge");
        if (rt->Stats().merges > merges) {
          merge_ms.push_back(merge.ElapsedMillis());
        }
      }
    }
    rt_stats = rt->Stats();
    gks::SegmentSearcher segments(rt->snapshot());
    for (size_t i = 0; i < n; ++i) {
      clocks.Time("core.segment_search_ms", [&] {
        return Check(segments.Search(requests[i].query, requests[i].options),
                     "segment search");
      });
    }
  }
  std::sort(insert_ms.begin(), insert_ms.end());
  auto mean = [](const std::vector<double>& v) {
    double total = 0.0;
    for (double x : v) total += x;
    return v.empty() ? 0.0 : total / static_cast<double>(v.size());
  };
  add("rt.insert_ms_p50", Quantile(insert_ms, 0.5), "ms");
  add("rt.insert_ms_p99", Quantile(insert_ms, 0.99), "ms");
  add("rt.flush_ms", mean(flush_ms), "ms");
  add("rt.merge_ms", mean(merge_ms), "ms");
  add("rt.flushes", static_cast<double>(rt_stats.flushes), "count");
  add("rt.merges", static_cast<double>(rt_stats.merges), "count");
  add("rt.wal_bytes_per_xml_byte",
      inserted_bytes > 0 ? static_cast<double>(wal_bytes->value() -
                                               wal_before) /
                               static_cast<double>(inserted_bytes)
                         : 0.0,
      "ratio");
  add("rt.disk_segments_end", static_cast<double>(rt_stats.disk_segments),
      "count");

  // --- per-query means and work counters -------------------------------
  auto per_q = [&](const std::string& name) {
    return clocks.Total(name) * per_query;
  };
  const double search_ms = search_total * per_query;
  add("text.parse_ms", per_q("text.parse_ms"), "ms");
  add("core.search_ms", search_ms, "ms");
  for (size_t c = 0; c < kClassCount; ++c) {
    add(std::string("core.search_ms.") + ClassName(static_cast<QueryClass>(c)),
        class_n[c] > 0 ? class_ms[c] / static_cast<double>(class_n[c]) : 0.0,
        "ms");
  }
  const char* stages[] = {"core.plan_ms",   "core.merge_ms",
                          "core.probe_ms",  "core.window_ms",
                          "core.lce_rank_ms", "core.topk_ms",
                          "core.di_ms",     "core.refine_ms"};
  double stage_sum = per_q("text.parse_ms");
  for (const char* stage : stages) stage_sum += per_q(stage);
  add("core.plan_ms", per_q("core.plan_ms"), "ms");
  add("core.plan.merge", static_cast<double>(counts["core.plan.merge"]),
      "count");
  add("core.plan.probe", static_cast<double>(counts["core.plan.probe"]),
      "count");
  add("core.plan.hybrid", static_cast<double>(counts["core.plan.hybrid"]),
      "count");
  add("core.merge_ms", per_q("core.merge_ms"), "ms");
  add("core.sl_entries", static_cast<double>(counts["core.sl_entries"]),
      "count");
  add("core.probe_ms", per_q("core.probe_ms"), "ms");
  add("core.probe_gathered_postings",
      static_cast<double>(counts["core.probe_gathered_postings"]), "count");
  add("core.window_ms", per_q("core.window_ms"), "ms");
  add("core.candidates", static_cast<double>(counts["core.candidates"]),
      "count");
  add("core.lce_rank_ms", per_q("core.lce_rank_ms"), "ms");
  add("core.nodes", static_cast<double>(counts["core.nodes"]), "count");
  add("core.topk_ms", per_q("core.topk_ms"), "ms");
  add("core.topk_blocks_skipped",
      static_cast<double>(counts["core.topk_blocks_skipped"]), "count");
  add("core.di_ms", per_q("core.di_ms"), "ms");
  add("core.refine_ms", per_q("core.refine_ms"), "ms");
  add("core.unattributed_ms", search_ms - stage_sum, "ms");
  add("core.blocks_decoded", static_cast<double>(decoded), "count");
  add("core.segment_search_ms", per_q("core.segment_search_ms"), "ms");

  const double serialize_ms = per_q("server.serialize_ms");
  const double roundtrip_ms = per_q("server.roundtrip_ms");
  add("server.parse_request_ms", per_q("server.parse_request_ms"), "ms");
  add("server.serialize_ms", serialize_ms, "ms");
  add("server.response_bytes",
      static_cast<double>(response_bytes) * per_query, "bytes");
  add("server.roundtrip_ms", roundtrip_ms, "ms");
  add("server.overhead_ms", roundtrip_ms - search_ms - serialize_ms, "ms");

  for (const char* name :
       {"coord.worker_search_ms", "coord.di_contrib_ms", "coord.describe_ms",
        "coord.partial_serialize_ms"}) {
    add(name, per_q(name), "ms");
  }
  add("coord.partial_bytes", static_cast<double>(partial_bytes), "bytes");
  add("coord.partial_nodes", static_cast<double>(partial_nodes), "count");
  for (const char* name :
       {"coord.decode_ms", "coord.merge_ms", "coord.serialize_ms"}) {
    add(name, per_q(name), "ms");
  }
  return metrics;
}

}  // namespace perfbench
