// On-disk format v2 on a DBLP-style corpus:
//
//   1. index size — total file bytes, bytes/posting and per-section bytes
//      (LZ-wrapped node/attr sections + delta-compressed posting blocks);
//   2. load latency — LoadIndex of the file, which decodes and validates
//      every section;
//   3. fig8-style query latency — n=8 keyword queries of varying
//      selectivity against the loaded index.
//
// Prints a JSON document on stdout. BENCH_pr3.json records the v1 vs v2
// comparison this bench made while the writer still produced v1.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/json_writer.h"
#include "data/names.h"
#include "index/serialization.h"

namespace {

using gks::JsonWriter;
using gks::LoadIndex;
using gks::Result;
using gks::SaveIndex;
using gks::WallTimer;
using gks::XmlIndex;

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

// Best-of-N wall time for `fn` in milliseconds.
template <typename Fn>
double BestOfMs(int reps, Fn fn) {
  double best = 1e99;
  for (int i = 0; i < reps; ++i) {
    WallTimer timer;
    fn();
    best = std::min(best, timer.ElapsedMillis());
  }
  return best;
}

struct QueryPoint {
  std::string query;
  size_t sl = 0;
  double ms = 0;
};

int Run() {
  std::fprintf(stderr, "building DBLP-style corpus (scale=%.2f)...\n",
               gks::bench::Scale());
  gks::bench::Corpus corpus = gks::bench::MakeDblp();
  XmlIndex built = gks::bench::BuildIndex(corpus);

  const std::string path = TempPath("gks_size_bench_v2.gksidx");
  if (!SaveIndex(built, path).ok()) {
    std::fprintf(stderr, "FATAL: save failed\n");
    return 1;
  }
  Result<gks::IndexFileInfo> info = gks::InspectIndexFile(path);
  if (!info.ok()) {
    std::fprintf(stderr, "FATAL: inspect failed\n");
    return 1;
  }
  const double postings = static_cast<double>(built.inverted.posting_count());

  std::fprintf(stderr, "timing loads...\n");
  const double load_ms = BestOfMs(5, [&] {
    if (!LoadIndex(path).ok()) std::exit(1);
  });

  // --- fig8-style query latency (n=8, varying selectivity). ---
  std::fprintf(stderr, "timing queries...\n");
  Result<XmlIndex> loaded = LoadIndex(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "FATAL: reload failed\n");
    return 1;
  }
  const std::vector<std::string>& vocabulary = gks::data::TitleWords();
  std::vector<QueryPoint> points;
  for (size_t start = 0; start + 8 <= vocabulary.size(); start += 4) {
    QueryPoint point;
    for (size_t i = 0; i < 8; ++i) {
      if (!point.query.empty()) point.query += " ";
      point.query += vocabulary[start + i];
    }
    point.ms = BestOfMs(5, [&] {
      point.sl =
          gks::bench::RunQuery(*loaded, point.query, 2).merged_list_size;
    });
    points.push_back(point);
  }
  std::sort(points.begin(), points.end(),
            [](const QueryPoint& a, const QueryPoint& b) { return a.sl < b.sl; });
  double query_total = 0;
  for (const QueryPoint& point : points) query_total += point.ms;

  // --- emit JSON. ---
  JsonWriter json;
  json.BeginObject();
  json.Key("corpus");
  json.BeginObject();
  json.Key("kind").String("dblp");
  json.Key("scale").Double(gks::bench::Scale());
  json.Key("xml_bytes").UInt(corpus.TotalBytes());
  json.Key("terms").UInt(built.inverted.term_count());
  json.Key("postings").UInt(built.inverted.posting_count());
  json.EndObject();

  json.Key("size");
  json.BeginObject();
  json.Key("bytes").UInt(info->file_bytes);
  json.Key("bytes_per_posting")
      .Double(static_cast<double>(info->file_bytes) / postings);
  json.Key("sections");
  json.BeginObject();
  for (const gks::IndexSectionInfo& section : info->sections) {
    json.Key(section.name).UInt(section.bytes);
  }
  json.EndObject();
  json.EndObject();

  json.Key("load_ms").Double(load_ms);

  json.Key("fig8_query_ms");
  json.BeginObject();
  json.Key("points");
  json.BeginArray();
  for (const QueryPoint& point : points) {
    json.BeginObject();
    json.Key("sl").UInt(point.sl);
    json.Key("ms").Double(point.ms);
    json.EndObject();
  }
  json.EndArray();
  json.Key("total").Double(query_total);
  json.EndObject();

  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  std::remove(path.c_str());
  return 0;
}

}  // namespace

int main() { return Run(); }
