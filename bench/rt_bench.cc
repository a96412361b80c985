// Real-time indexing benchmarks (docs/INDEXING.md, docs/PERFORMANCE.md):
//
//   1. ingest — wire-shaped commit loop against RtIndex: docs/s and MB/s
//      with the background flusher running, plus the final flush + merge
//      cost. The WAL is the write path's tax; fsync off isolates the
//      indexing cost itself (the smoke/CI configuration).
//   2. freshness — commit-to-visible latency: each sampled insert is
//      immediately queried for a keyword unique to it; the paper's rank
//      pipeline runs on the fresh snapshot with no rebuild or reload.
//      Reported as the full insert+search round trip (p50/p95).
//   3. rt-vs-offline — query latency over the segmented RT snapshot vs
//      one offline-built index on the same live documents: the price of
//      per-segment evaluation + merge, with result counts asserted
//      identical (tests/core/segment_search_test.cc pins full equality).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/searcher.h"
#include "index/rt_index.h"

namespace {

using gks::GksSearcher;
using gks::RtIndex;
using gks::RtOptions;
using gks::RtStats;
using gks::SearchResponse;
using gks::WallTimer;
using gks::XmlIndex;

// Deterministic synthetic articles: a rotating vocabulary so queries hit
// a controlled fraction of documents, plus one nonce keyword per
// document for the freshness probe.
const char* const kTopics[] = {"database", "keyword", "ranking", "xml",
                               "potential", "semantics", "index", "query"};

std::string ArticleXml(size_t i) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "<article year=\"%zu\"><title>%s %s study nonce%zu</title>"
                "<author>author%zu</author></article>",
                1995 + i % 20, kTopics[i % 8], kTopics[(i / 8) % 8], i,
                i % 37);
  return buffer;
}

struct FreshSample {
  double ms = 0.0;
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t i = static_cast<size_t>(p * static_cast<double>(values.size() - 1));
  return values[i];
}

}  // namespace

int main() {
  const size_t docs = gks::bench::Scaled(3000);
  std::string dir = ::std::filesystem::temp_directory_path() /
                    "gks_rt_bench";
  std::filesystem::remove_all(dir);

  RtOptions options;
  options.dir = dir;
  options.fsync = false;      // isolate indexing cost (CI has no battery)
  options.flush_docs = 512;   // the serve default: flushes happen mid-run
  options.merge_fanout = 4;
  options.background = true;
  gks::Result<std::unique_ptr<RtIndex>> opened = RtIndex::Open(options);
  if (!opened.ok()) {
    std::fprintf(stderr, "rt_bench: open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<RtIndex> rt = std::move(opened).value();

  std::printf("rt_bench — %zu documents, flush_docs=%zu, fanout=%zu "
              "(GKS_BENCH_SCALE=%.2f)\n\n",
              docs, options.flush_docs, options.merge_fanout,
              gks::bench::Scale());

  // ---- 1. ingest ------------------------------------------------------
  size_t xml_bytes = 0;
  std::vector<double> freshness_ms;
  const size_t probe_every = std::max<size_t>(1, docs / 64);
  WallTimer ingest_timer;
  for (size_t i = 0; i < docs; ++i) {
    std::string xml = ArticleXml(i);
    xml_bytes += xml.size();
    bool probe = (i % probe_every) == 0;
    WallTimer commit_timer;
    gks::Result<uint32_t> id =
        rt->Insert("doc" + std::to_string(i) + ".xml", std::move(xml));
    if (!id.ok()) {
      std::fprintf(stderr, "rt_bench: insert %zu failed: %s\n", i,
                   id.status().ToString().c_str());
      return 1;
    }
    if (probe) {
      // ---- 2. freshness: the nonce must be findable right now. -------
      GksSearcher searcher(rt->snapshot());
      gks::Result<SearchResponse> hit =
          searcher.Search("nonce" + std::to_string(i));
      if (!hit.ok() || hit->nodes.empty()) {
        std::fprintf(stderr,
                     "rt_bench: document %zu not visible after commit\n", i);
        return 1;
      }
      freshness_ms.push_back(commit_timer.ElapsedMillis());
    }
  }
  double ingest_ms = ingest_timer.ElapsedMillis();

  WallTimer flush_timer;
  if (gks::Status status = rt->Flush(); !status.ok()) {
    std::fprintf(stderr, "rt_bench: flush failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  double flush_ms = flush_timer.ElapsedMillis();
  WallTimer merge_timer;
  if (gks::Status status = rt->MaybeMerge(); !status.ok()) {
    std::fprintf(stderr, "rt_bench: merge failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  double merge_ms = merge_timer.ElapsedMillis();

  RtStats stats = rt->Stats();
  std::printf("ingest      : %8.1f docs/s  %6.2f MB/s  (%.1fms total, "
              "%llu flushes, %llu merges, %llu segments)\n",
              1000.0 * static_cast<double>(docs) / ingest_ms,
              static_cast<double>(xml_bytes) / 1048.576 / ingest_ms,
              ingest_ms, (unsigned long long)stats.flushes,
              (unsigned long long)stats.merges,
              (unsigned long long)stats.disk_segments);
  std::printf("final flush : %8.1fms   final merge: %.1fms\n", flush_ms,
              merge_ms);
  std::printf("freshness   : p50 %6.3fms  p95 %6.3fms  "
              "(insert + first visible search, %zu samples)\n",
              Percentile(freshness_ms, 0.50), Percentile(freshness_ms, 0.95),
              freshness_ms.size());

  // ---- 3. rt-vs-offline ----------------------------------------------
  gks::IndexBuilder builder;
  for (size_t i = 0; i < docs; ++i) {
    gks::Status status =
        builder.AddDocument(ArticleXml(i), "doc" + std::to_string(i) + ".xml");
    if (!status.ok()) {
      std::fprintf(stderr, "rt_bench: offline build failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }
  gks::Result<XmlIndex> offline = std::move(builder).Finalize();
  if (!offline.ok()) {
    std::fprintf(stderr, "rt_bench: offline finalize failed: %s\n",
                 offline.status().ToString().c_str());
    return 1;
  }

  const std::vector<std::string> queries = {
      "database keyword", "xml ranking", "potential semantics",
      "query index study"};
  const int rounds = 5;
  double rt_ms = 0.0, offline_ms = 0.0;
  GksSearcher segmented(rt->snapshot());
  GksSearcher plain(&*offline);
  for (int round = 0; round < rounds; ++round) {
    for (const std::string& query : queries) {
      WallTimer timer;
      gks::Result<SearchResponse> a = segmented.Search(query);
      rt_ms += timer.ElapsedMillis();
      WallTimer timer2;
      gks::Result<SearchResponse> b = plain.Search(query);
      offline_ms += timer2.ElapsedMillis();
      if (!a.ok() || !b.ok() || a->nodes.size() != b->nodes.size()) {
        std::fprintf(stderr,
                     "rt_bench: rt/offline result mismatch on '%s' "
                     "(%zu vs %zu nodes)\n",
                     query.c_str(), a.ok() ? a->nodes.size() : 0,
                     b.ok() ? b->nodes.size() : 0);
        return 1;
      }
    }
  }
  size_t per = queries.size() * rounds;
  std::printf("query       : rt %6.3fms/q over %llu segments, offline "
              "%6.3fms/q — rt/offline %.2fx\n",
              rt_ms / static_cast<double>(per),
              (unsigned long long)rt->snapshot()->segments.size(),
              offline_ms / static_cast<double>(per),
              offline_ms > 0 ? rt_ms / offline_ms : 0.0);

  rt.reset();
  std::filesystem::remove_all(dir);
  return 0;
}
