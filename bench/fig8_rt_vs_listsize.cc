// Figure 8 (Sec. 7.1.2): response time vs merged-list size |S_L| with the
// query size fixed at n=8, on the NASA-like and SwissProt-like corpora.
// Expected shape: RT grows linearly in |S_L| for fixed d and n.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "data/names.h"

namespace {

// Runs the query `repeats` times and reports the best-of runtime in ms
// (best-of filters scheduler noise on a busy machine).
double TimeQuery(const gks::XmlIndex& index, const std::string& text,
                 size_t* sl_size, int repeats = 5) {
  double best = 1e99;
  for (int i = 0; i < repeats; ++i) {
    gks::WallTimer timer;
    gks::SearchResponse response = gks::bench::RunQuery(index, text, 2);
    best = std::min(best, timer.ElapsedMillis());
    *sl_size = response.merged_list_size;
  }
  return best;
}

void RunSeries(const char* label, const gks::XmlIndex& index,
               const std::vector<std::string>& vocabulary) {
  // n = 8 keywords per query; selectivity varies by picking vocabulary
  // ranks further down the Zipf head -> |S_L| shrinks.
  std::printf("\n%s (n=8):\n", label);
  std::printf("%10s | %10s\n", "|S_L|", "RT (ms)");
  struct Point {
    size_t sl;
    double ms;
  };
  std::vector<Point> points;
  for (size_t start = 0; start + 8 <= vocabulary.size(); start += 4) {
    std::string query;
    for (size_t i = 0; i < 8; ++i) {
      if (!query.empty()) query += " ";
      query += vocabulary[start + i];
    }
    size_t sl = 0;
    double ms = TimeQuery(index, query, &sl);
    points.push_back({sl, ms});
  }
  std::sort(points.begin(), points.end(),
            [](const Point& a, const Point& b) { return a.sl < b.sl; });
  for (const Point& point : points) {
    std::printf("%10zu | %10.3f\n", point.sl, point.ms);
  }
}

}  // namespace

int main() {
  std::printf("Figure 8: response time vs merged list size (scale=%.2f)\n",
              gks::bench::Scale());

  gks::bench::Corpus nasa = gks::bench::MakeNasa();
  gks::XmlIndex nasa_index = gks::bench::BuildIndex(nasa);
  RunSeries("NASA-like", nasa_index, gks::data::AstroWords());

  gks::bench::Corpus swiss = gks::bench::MakeSwissProt();
  gks::XmlIndex swiss_index = gks::bench::BuildIndex(swiss);
  RunSeries("SwissProt-like", swiss_index, gks::data::ProteinWords());

  std::printf("\nExpected shape (paper): RT linear in |S_L| (tens of ms at "
              "the paper's scale).\n");
  return 0;
}
