// Planner skew sweep: wall-clock of merge vs probe vs auto as the
// keyword-frequency skew between the rarest and the largest query term
// grows. The corpus is synthetic with *exactly* controlled frequencies:
// `alpha` and `beta` occur in every record (the uniform pair), and one
// `needleR` term occurs in every R-th record, so the skew ratio of the
// query "alpha needleR" is exactly R. The planner's contract, measured:
//
//   - skewed queries (rarest <= 1% of largest): auto >= 5x faster than
//     forced merge, identical results;
//   - uniform queries: auto within 1.05x of merge (it *is* merge plus a
//     stats inspection).
//
// A second sweep measures top-k early termination (--top-k, PR 7): a
// corpus where nearly every record matches the query at a LOW rank
// (keywords in attribute leaves under a wide parent, per-occurrence
// weight 1/8) and one high-rank needle record every 1024 records. The
// block-max bounds of the rank_bounds section prove whole chaff blocks
// cannot beat the k-th needle, so the evaluator jumps them undecoded:
//
//   - k <= 10: >= 3x faster than full evaluation, identical top-k nodes,
//     gks.search.topk.blocks_skipped_total > 0 (real block jumps).
//
// Prints one table plus a trailing `BENCH_JSON {...}` line that the
// BENCH_pr5.json / BENCH_pr7.json records are transcribed from.

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/json_writer.h"
#include "index/serialization.h"

namespace {

using gks::bench::Scaled;

const std::vector<size_t>& SkewRatios() {
  static const std::vector<size_t>* ratios =
      new std::vector<size_t>{4, 16, 64, 256, 1024};
  return *ratios;
}

// One <rec> per record; every record holds the two uniform terms plus a
// rotating filler token (so the vocabulary is not degenerate), and record
// i additionally holds needleR for every sweep ratio R dividing i.
gks::bench::Corpus MakePlannerCorpus(size_t records) {
  std::string xml;
  xml.reserve(records * 96);
  xml += "<corpus>";
  char buffer[160];
  for (size_t i = 0; i < records; ++i) {
    std::snprintf(buffer, sizeof(buffer),
                  "<rec><title>alpha beta filler%zu</title>", i % 97);
    xml += buffer;
    for (size_t ratio : SkewRatios()) {
      if (i % ratio == 0) {
        std::snprintf(buffer, sizeof(buffer), "<tag>needle%zu</tag>", ratio);
        xml += buffer;
      }
    }
    xml += "</rec>";
  }
  xml += "</corpus>";
  return {"planner-skew", {{"skew.xml", std::move(xml)}}};
}

struct Timed {
  double ms = 0.0;
  gks::SearchResponse response;
};

// Times all three plans over one query with interleaved repeats (plan A,
// B, C, A, B, C, ...) so slow drift in machine state — page cache, turbo,
// a noisy neighbor — cannot systematically favor whichever plan is timed
// last. Best-of per plan. `out[i]` matches `plans[i]`.
void TimeQuery(const gks::XmlIndex& index, const std::string& text,
               const std::vector<gks::PlanMode>& plans, Timed* out,
               int repeats = 5) {
  gks::GksSearcher searcher(&index);
  gks::SearchOptions options;
  options.s = 2;
  options.discover_di = false;
  options.suggest_refinements = false;
  for (size_t p = 0; p < plans.size(); ++p) {
    out[p].ms = 1e99;
    // One untimed warmup per plan levels first-touch effects (arena
    // growth, page cache) before any measurement starts.
    options.plan = plans[p];
    (void)searcher.Search(text, options);
  }
  for (int i = 0; i < repeats; ++i) {
    for (size_t p = 0; p < plans.size(); ++p) {
      options.plan = plans[p];
      gks::WallTimer timer;
      gks::Result<gks::SearchResponse> response =
          searcher.Search(text, options);
      if (!response.ok()) {
        std::fprintf(stderr, "FATAL query '%s': %s\n", text.c_str(),
                     response.status().ToString().c_str());
        std::exit(1);
      }
      out[p].ms = std::min(out[p].ms, timer.ElapsedMillis());
      out[p].response = std::move(response).value();
    }
  }
}

// Byte-identical responses are the planner's invariant; a bench that
// publishes speedups must refuse to publish wrong answers.
void CheckIdentical(const gks::SearchResponse& a, const gks::SearchResponse& b,
                    const char* label) {
  bool same = a.nodes.size() == b.nodes.size() &&
              a.merged_list_size == b.merged_list_size;
  for (size_t i = 0; same && i < a.nodes.size(); ++i) {
    same = a.nodes[i].id == b.nodes[i].id &&
           a.nodes[i].rank == b.nodes[i].rank &&
           a.nodes[i].keyword_mask == b.nodes[i].keyword_mask;
  }
  if (!same) {
    std::fprintf(stderr, "FATAL %s: plans disagree on the result list\n",
                 label);
    std::exit(1);
  }
}

struct Row {
  size_t ratio;           // largest/rarest frequency ratio (1 = uniform)
  size_t largest;         // postings in the biggest list
  size_t rarest;          // postings in the anchor list
  double merge_ms;
  double probe_ms;
  double auto_ms;
  std::string auto_plan;  // what the planner picked
  size_t results;
};

// ---- Top-k early-termination sweep ------------------------------------

// Chaff record: both query terms live in attribute leaves under a parent
// with 8 children, so every occurrence carries weight 1/8 and the block-max
// bound of a pure-chaff posting block is 2 * (1/8 + 1/8) = 0.5. Needle
// record (every kNeedleEvery records, starting at 0 so the heap sees a
// high-rank node immediately): both terms — plus `gamma`, the sparse-skip
// probe term — in one leaf under a single-child parent, weight 1.0, rank
// well above any chaff node. Once k needles are in the heap, every
// pure-chaff block is provably beaten and jumps undecoded.
constexpr size_t kNeedleEvery = 1024;

gks::bench::Corpus MakeTopKCorpus(size_t records) {
  // One DOCUMENT per record: the evaluator's segments are document-
  // granular (a Dewey id's leading component), so a single wrapper file
  // would collapse the whole corpus into one unskippable segment.
  gks::bench::Corpus corpus;
  corpus.name = "topk-needles";
  corpus.documents.reserve(records);
  char name[32];
  char buffer[224];
  for (size_t i = 0; i < records; ++i) {
    std::snprintf(name, sizeof(name), "r%07zu.xml", i);
    if (i % kNeedleEvery == 0) {
      corpus.documents.emplace_back(name, "<rec><t>alpha beta gamma</t></rec>");
      continue;
    }
    std::snprintf(buffer, sizeof(buffer),
                  "<chaff><a0>alpha</a0><a1>beta</a1><f2>c2</f2><f3>c3</f3>"
                  "<f4>c4</f4><f5>c5</f5><f6>c6</f6><f7>fill%zu</f7></chaff>",
                  i % 97);
    corpus.documents.emplace_back(name, buffer);
  }
  return corpus;
}

// Best-of timing of one query at a fixed top_k (0 = full evaluation).
double TimeTopK(const gks::XmlIndex& index, const std::string& text,
                uint32_t top_k, gks::SearchResponse* out, int repeats = 5) {
  gks::GksSearcher searcher(&index);
  gks::SearchOptions options;
  options.s = 2;
  options.discover_di = false;
  options.suggest_refinements = false;
  options.top_k = top_k;
  (void)searcher.Search(text, options);  // warmup (page cache, arena)
  double best = 1e99;
  for (int i = 0; i < repeats; ++i) {
    gks::WallTimer timer;
    gks::Result<gks::SearchResponse> response = searcher.Search(text, options);
    if (!response.ok()) {
      std::fprintf(stderr, "FATAL query '%s': %s\n", text.c_str(),
                   response.status().ToString().c_str());
      std::exit(1);
    }
    best = std::min(best, timer.ElapsedMillis());
    *out = std::move(response).value();
  }
  return best;
}

// The top-k contract: the k nodes equal the full response truncated to k.
void CheckTopKIdentical(const gks::SearchResponse& full,
                        const gks::SearchResponse& topk, uint32_t k,
                        const char* label) {
  size_t want = std::min<size_t>(k, full.nodes.size());
  bool same = topk.nodes.size() == want;
  for (size_t i = 0; same && i < want; ++i) {
    same = topk.nodes[i].id == full.nodes[i].id &&
           topk.nodes[i].rank == full.nodes[i].rank &&
           topk.nodes[i].keyword_mask == full.nodes[i].keyword_mask;
  }
  if (!same) {
    std::fprintf(stderr,
                 "FATAL %s: top-k nodes differ from truncated full "
                 "evaluation\n",
                 label);
    std::exit(1);
  }
}

struct TopKRow {
  std::string query;
  uint32_t k;
  double full_ms;
  double topk_ms;
  bool engaged;  // block-max evaluator ran (false: planner chose full+trim)
  uint64_t blocks_skipped;
  uint64_t pruned_bound;
  uint64_t pruned_sparse;
  size_t full_results;
};

}  // namespace

int main() {
  const size_t records = Scaled(200000);
  std::printf("Planner skew sweep (scale=%.2f, %zu records)\n",
              gks::bench::Scale(), records);

  gks::bench::Corpus corpus = MakePlannerCorpus(records);
  double build_seconds = 0.0;
  gks::XmlIndex index = gks::bench::BuildIndex(corpus, &build_seconds);
  std::printf("index: %.1fMB XML, built in %.2fs\n",
              static_cast<double>(corpus.TotalBytes()) / 1e6, build_seconds);

  std::printf("\n%8s | %9s | %8s | %9s | %9s | %9s | %7s | %-6s\n", "skew",
              "largest", "rarest", "merge ms", "probe ms", "auto ms",
              "speedup", "auto");
  std::vector<Row> rows;
  auto run_case = [&](size_t ratio, const std::string& text) {
    gks::bench::MetricsDeltaScope metrics_scope("planner:" + text);
    Timed timed[3];
    TimeQuery(index, text,
              {gks::PlanMode::kMerge, gks::PlanMode::kProbe,
               gks::PlanMode::kAuto},
              timed);
    Timed& merge = timed[0];
    Timed& probe = timed[1];
    Timed& autop = timed[2];
    CheckIdentical(merge.response, probe.response, text.c_str());
    CheckIdentical(merge.response, autop.response, text.c_str());
    Row row;
    row.ratio = ratio;
    row.largest = 0;
    row.rarest = SIZE_MAX;
    for (const gks::PlanAtomStats& stats : autop.response.plan.atoms) {
      row.largest = std::max(row.largest, stats.postings);
      row.rarest = std::min(row.rarest, stats.postings);
    }
    row.merge_ms = merge.ms;
    row.probe_ms = probe.ms;
    row.auto_ms = autop.ms;
    row.auto_plan = gks::PlanModeName(autop.response.plan.strategy);
    row.results = autop.response.nodes.size();
    rows.push_back(row);
    std::printf("%8zu | %9zu | %8zu | %9.3f | %9.3f | %9.3f | %6.2fx | %-6s\n",
                row.ratio, row.largest, row.rarest, row.merge_ms, row.probe_ms,
                row.auto_ms, row.merge_ms / row.auto_ms,
                row.auto_plan.c_str());
  };

  run_case(1, "alpha beta");  // uniform: auto must degrade to merge
  for (size_t ratio : SkewRatios()) {
    run_case(ratio, "alpha needle" + std::to_string(ratio));
  }

  // Acceptance framing, evaluated right here so the table cannot drift
  // from the claim: >= 5x at <= 1% skew, <= 1.05x on uniform.
  double uniform_ratio = rows.front().auto_ms / rows.front().merge_ms;
  double best_skew_speedup = 0.0;
  for (const Row& row : rows) {
    if (row.rarest * 100 <= row.largest) {
      best_skew_speedup =
          std::max(best_skew_speedup, row.merge_ms / row.auto_ms);
    }
  }
  std::printf("\nuniform auto/merge = %.3fx (want <= 1.05x)\n", uniform_ratio);
  std::printf("best speedup at skew >= 100x = %.1fx (want >= 5x)\n",
              best_skew_speedup);

  // ---- Top-k early-termination sweep ----------------------------------
  std::printf("\nTop-k sweep (%zu records, needle every %zu)\n", records,
              kNeedleEvery);
  gks::bench::Corpus topk_corpus = MakeTopKCorpus(records);
  double topk_build_seconds = 0.0;
  gks::XmlIndex topk_built =
      gks::bench::BuildIndex(topk_corpus, &topk_build_seconds);
  // Round-trip through the v2 file: the per-block rank bounds the top-k
  // evaluator skips with exist only on a loaded index.
  const char* topk_path = "planner_bench_topk_v2.gksidx";
  if (gks::Status status = gks::SaveIndex(topk_built, topk_path);
      !status.ok()) {
    std::fprintf(stderr, "FATAL save %s: %s\n", topk_path,
                 status.ToString().c_str());
    return 1;
  }
  gks::Result<gks::XmlIndex> topk_index = gks::LoadIndex(topk_path);
  if (!topk_index.ok()) {
    std::fprintf(stderr, "FATAL load: %s\n",
                 topk_index.status().ToString().c_str());
    return 1;
  }

  gks::MetricsRegistry& registry = gks::MetricsRegistry::Global();
  gks::Counter* skip_counter =
      registry.GetCounter("gks.search.topk.blocks_skipped_total");
  gks::Counter* bound_counter =
      registry.GetCounter("gks.search.topk.segments_pruned_bound_total");
  gks::Counter* sparse_counter =
      registry.GetCounter("gks.search.topk.segments_pruned_sparse_total");

  std::vector<TopKRow> topk_rows;
  std::printf("%14s | %3s | %9s | %9s | %7s | %7s | %8s | %8s | %8s\n",
              "query", "k", "full ms", "topk ms", "speedup", "engaged",
              "blk_skip", "bound", "sparse");
  for (const std::string& text :
       {std::string("alpha beta"), std::string("alpha gamma")}) {
    gks::SearchResponse full;
    double full_ms = TimeTopK(*topk_index, text, 0, &full);
    for (uint32_t k : {1u, 10u}) {
      gks::bench::MetricsDeltaScope metrics_scope(
          "topk:" + text + ":k" + std::to_string(k));
      gks::SearchResponse topk;
      double topk_ms = TimeTopK(*topk_index, text, k, &topk);
      CheckTopKIdentical(full, topk, k, text.c_str());
      TopKRow row;
      row.query = text;
      row.k = k;
      row.full_ms = full_ms;
      row.topk_ms = topk_ms;
      row.engaged = topk.plan.topk.engaged;
      // One fresh (uncached-searcher) run under counter deltas attributes
      // the skip work of exactly one query.
      uint64_t skips0 = skip_counter->value();
      uint64_t bound0 = bound_counter->value();
      uint64_t sparse0 = sparse_counter->value();
      gks::SearchResponse counted;
      (void)TimeTopK(*topk_index, text, k, &counted, 1);
      row.blocks_skipped = (skip_counter->value() - skips0) / 2;  // warm+timed
      row.pruned_bound = (bound_counter->value() - bound0) / 2;
      row.pruned_sparse = (sparse_counter->value() - sparse0) / 2;
      row.full_results = full.nodes.size();
      topk_rows.push_back(row);
      std::printf(
          "%14s | %3u | %9.3f | %9.3f | %6.2fx | %7s | %8llu | %8llu | "
          "%8llu\n",
          text.c_str(), k, full_ms, topk_ms, full_ms / topk_ms,
          row.engaged ? "yes" : "no",
          (unsigned long long)row.blocks_skipped,
          (unsigned long long)row.pruned_bound,
          (unsigned long long)row.pruned_sparse);
    }
  }

  // The >= 3x claim is about DENSE matches, where full evaluation has no
  // choice but to score everything ("alpha beta" hits every record). The
  // skewed "alpha gamma" rows demonstrate sparse skips; their full-path
  // baseline is already a probe over ten postings, which no top-k
  // evaluator needs to beat.
  double worst_topk_speedup = 1e99;
  // Skewed queries ("alpha gamma": the anchor is ten-ish postings) used
  // to pay the segment loop for nothing — 0.5-0.6x vs full evaluation.
  // The planner now disengages below the anchor-postings floor and the
  // searcher truncates the full ranking, so these rows must sit at
  // parity.
  double worst_sparse_parity = 1e99;
  uint64_t total_blocks_skipped = 0;
  for (const TopKRow& row : topk_rows) {
    if (row.query == "alpha beta") {
      worst_topk_speedup =
          std::min(worst_topk_speedup, row.full_ms / row.topk_ms);
    } else {
      worst_sparse_parity =
          std::min(worst_sparse_parity, row.full_ms / row.topk_ms);
    }
    total_blocks_skipped += row.blocks_skipped;
  }
  std::printf("\nworst dense-query top-k speedup at k <= 10 = %.1fx "
              "(want >= 3x)\n",
              worst_topk_speedup);
  std::printf("worst skewed-query top-k parity = %.2fx (want >= 0.95x)\n",
              worst_sparse_parity);
  std::printf("blocks skipped across the sweep = %llu (want > 0)\n",
              (unsigned long long)total_blocks_skipped);
  std::remove(topk_path);

  gks::JsonWriter json;
  json.BeginObject();
  json.Key("records").UInt(records);
  json.Key("build_seconds").Double(build_seconds, 2);
  json.Key("uniform_auto_over_merge").Double(uniform_ratio, 3);
  json.Key("best_skew_speedup").Double(best_skew_speedup, 1);
  json.Key("rows").BeginArray();
  for (const Row& row : rows) {
    json.BeginObject();
    json.Key("skew").UInt(row.ratio);
    json.Key("largest").UInt(row.largest);
    json.Key("rarest").UInt(row.rarest);
    json.Key("merge_ms").Double(row.merge_ms, 3);
    json.Key("probe_ms").Double(row.probe_ms, 3);
    json.Key("auto_ms").Double(row.auto_ms, 3);
    json.Key("auto_plan").String(row.auto_plan);
    json.Key("results").UInt(row.results);
    json.EndObject();
  }
  json.EndArray();
  json.Key("topk").BeginObject();
  json.Key("records").UInt(records);
  json.Key("needle_every").UInt(kNeedleEvery);
  json.Key("build_seconds").Double(topk_build_seconds, 2);
  json.Key("worst_dense_speedup_k_le_10").Double(worst_topk_speedup, 1);
  json.Key("worst_sparse_parity").Double(worst_sparse_parity, 2);
  json.Key("blocks_skipped").UInt(total_blocks_skipped);
  json.Key("rows").BeginArray();
  for (const TopKRow& row : topk_rows) {
    json.BeginObject();
    json.Key("query").String(row.query);
    json.Key("k").UInt(row.k);
    json.Key("full_ms").Double(row.full_ms, 3);
    json.Key("topk_ms").Double(row.topk_ms, 3);
    json.Key("speedup").Double(row.full_ms / row.topk_ms, 1);
    json.Key("engaged").Bool(row.engaged);
    json.Key("blocks_skipped").UInt(row.blocks_skipped);
    json.Key("segments_pruned_bound").UInt(row.pruned_bound);
    json.Key("segments_pruned_sparse").UInt(row.pruned_sparse);
    json.Key("full_results").UInt(row.full_results);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  json.EndObject();
  std::printf("\nBENCH_JSON %s\n", json.str().c_str());
  return 0;
}
