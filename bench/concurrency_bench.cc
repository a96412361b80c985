// Concurrency + merge-kernel benchmarks (see docs/PERFORMANCE.md):
//
//   1. merge-kernel — the galloping k-way merge behind MergedList::Build
//      against a faithful reimplementation of the historical per-entry
//      heap merge, on the Figure-8 workload (n=8 queries, NASA-like
//      corpus, selectivity swept down the Zipf head).
//   2. batch — SearchBatch throughput across thread counts on a 100-query
//      batch (pure fan-out).
//   4. parallel-build — BuildIndexParallel vs the sequential IndexBuilder
//      on the multi-document Plays corpus (outputs verified identical).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/merged_list.h"
#include "data/names.h"
#include "index/parallel_build.h"

namespace {

using gks::DeweySpan;
using gks::PackedIds;
using gks::Query;
using gks::SearchOptions;
using gks::ThreadPool;
using gks::XmlIndex;

// The pre-galloping kernel, reproduced verbatim in shape: a binary heap of
// per-list cursors, one pop + one push per emitted entry, each head
// comparison a full Dewey compare, output materialized entry by entry into
// the same PackedIds/atoms representation MergedList uses (so both sides
// pay the copy). Tie-break matches MergedList::Build (equal ids -> lower
// atom index), so outputs are identical.
size_t ReferenceMerge(const std::vector<PackedIds>& lists,
                      PackedIds* out_ids, std::vector<uint32_t>* out_atoms) {
  struct Cursor {
    uint32_t list;
    size_t pos;
  };
  auto heap_greater = [&lists](const Cursor& a, const Cursor& b) {
    int cmp = lists[a.list].At(a.pos).Compare(lists[b.list].At(b.pos));
    if (cmp != 0) return cmp > 0;
    return a.list > b.list;
  };
  std::vector<Cursor> heap;
  for (uint32_t i = 0; i < lists.size(); ++i) {
    if (lists[i].size() > 0) heap.push_back(Cursor{i, 0});
  }
  std::make_heap(heap.begin(), heap.end(), heap_greater);
  *out_ids = PackedIds();
  out_atoms->clear();
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), heap_greater);
    Cursor top = heap.back();
    heap.pop_back();
    out_ids->Add(lists[top.list].At(top.pos));
    out_atoms->push_back(top.list);
    if (top.pos + 1 < lists[top.list].size()) {
      heap.push_back(Cursor{top.list, top.pos + 1});
      std::push_heap(heap.begin(), heap.end(), heap_greater);
    }
  }
  return out_atoms->size();
}

// Two n=8 workloads off the fig8 Zipf vocabulary. "interleaved": adjacent
// vocabulary ranks, similarly-sized posting lists, short runs — the merge
// kernel's worst case. "skewed": the two most frequent words plus six
// tail words, so one long list streams in big runs between rare
// interrupts — the shape real queries have (one common term + rare ones).
std::vector<std::string> InterleavedQueries(
    const std::vector<std::string>& words) {
  std::vector<std::string> queries;
  for (size_t start = 0; start + 8 <= words.size(); start += 4) {
    std::string query;
    for (size_t i = 0; i < 8; ++i) {
      if (!query.empty()) query += " ";
      query += words[start + i];
    }
    queries.push_back(query);
  }
  return queries;
}

std::vector<std::string> SkewedQueries(const std::vector<std::string>& words) {
  std::vector<std::string> queries;
  for (size_t tail = words.size(); tail >= 8; tail -= 6) {
    std::string query = words[0] + " " + words[1];
    for (size_t i = 0; i < 6; ++i) query += " " + words[tail - 1 - i];
    queries.push_back(query);
    if (queries.size() == 4) break;
  }
  return queries;
}

// The Sec. 7.6 hybrid scenario: five corpora with (mostly) disjoint
// vocabularies indexed together. Cross-domain queries then have
// region-clustered posting lists — each keyword's occurrences are
// contiguous in document order — which is where galloping run copies
// pay off: the merge degenerates to a handful of block copies.
gks::bench::Corpus MakeHybridCorpus() {
  gks::bench::Corpus hybrid{"Hybrid (NASA+SwissProt+Mondial+DBLP+Plays)", {}};
  for (gks::bench::Corpus part :
       {gks::bench::MakeNasa(), gks::bench::MakeSwissProt(),
        gks::bench::MakeMondial(), gks::bench::MakeDblp(),
        gks::bench::MakePlays()}) {
    for (auto& document : part.documents) {
      hybrid.documents.push_back(std::move(document));
    }
  }
  return hybrid;
}

std::vector<std::string> HybridQueries() {
  // One keyword per vocabulary pool, each pool native to one corpus
  // region of the hybrid index (astro -> NASA, protein/organism ->
  // SwissProt, country/language -> Mondial, first name -> DBLP,
  // speaker/play word -> Plays).
  std::vector<std::string> queries;
  for (size_t j = 0; j < 4; ++j) {
    std::string query;
    for (const auto* pool :
         {&gks::data::AstroWords(), &gks::data::ProteinWords(),
          &gks::data::OrganismNames(), &gks::data::CountryNames(),
          &gks::data::LanguageNames(), &gks::data::FirstNames(),
          &gks::data::SpeakerNames(), &gks::data::PlayWords()}) {
      if (!query.empty()) query += " ";
      query += (*pool)[j % pool->size()];
    }
    queries.push_back(query);
  }
  return queries;
}

void BenchMergeKernel(const XmlIndex& index, const char* label,
                      const std::vector<std::string>& queries) {
  std::printf("\n[1] merge kernel, %s workload (n=8): galloping run-copy "
              "vs per-entry heap\n", label);
  std::printf("%10s | %8s | %12s | %12s | %8s\n", "|S_L|", "avg run",
              "per-entry ms", "gallop ms", "speedup");
  gks::Counter* skips = gks::MetricsRegistry::Global().GetCounter(
      "gks.search.merge.gallop_skips_total");
  double ref_total = 0.0;
  double new_total = 0.0;
  for (const std::string& text : queries) {
    gks::Result<Query> query = Query::Parse(text);
    if (!query.ok()) continue;
    std::vector<PackedIds> lists;
    for (const gks::QueryAtom& atom : query->atoms()) {
      lists.push_back(gks::AtomOccurrences(index, atom));
    }

    constexpr int kRepeats = 7;
    double ref_best = 1e99;
    PackedIds ref_ids;
    std::vector<uint32_t> ref_atoms;
    for (int r = 0; r < kRepeats; ++r) {
      gks::WallTimer timer;
      ReferenceMerge(lists, &ref_ids, &ref_atoms);
      ref_best = std::min(ref_best, timer.ElapsedMillis());
    }
    // MergedList::Build recomputes the atom lists internally; time that
    // part alone and subtract it, so both kernels are timed merge-only.
    double atoms_best = 1e99;
    for (int r = 0; r < kRepeats; ++r) {
      gks::WallTimer timer;
      std::vector<PackedIds> scratch;
      for (const gks::QueryAtom& atom : query->atoms()) {
        scratch.push_back(gks::AtomOccurrences(index, atom));
      }
      atoms_best = std::min(atoms_best, timer.ElapsedMillis());
    }
    double new_best = 1e99;
    size_t sl = 0;
    double avg_run = 0.0;
    for (int r = 0; r < kRepeats; ++r) {
      uint64_t skips_before = skips->value();
      gks::WallTimer timer;
      gks::MergedList merged = gks::MergedList::Build(index, *query);
      new_best = std::min(new_best, timer.ElapsedMillis() - atoms_best);
      sl = merged.size();
      uint64_t pops = sl - (skips->value() - skips_before);
      avg_run = pops > 0 ? static_cast<double>(sl) / pops : 0.0;
      if (r > 0) continue;  // verify outputs once
      if (merged.size() != ref_atoms.size()) {
        std::fprintf(stderr, "FATAL: kernel outputs differ (%zu vs %zu)\n",
                     merged.size(), ref_atoms.size());
        std::exit(1);
      }
      for (size_t i = 0; i < merged.size(); ++i) {
        if (merged.AtomAt(i) != ref_atoms[i]) {
          std::fprintf(stderr, "FATAL: kernel order differs at %zu\n", i);
          std::exit(1);
        }
      }
    }
    if (new_best <= 0.0) new_best = 1e-4;  // sub-resolution merge
    ref_total += ref_best;
    new_total += new_best;
    std::printf("%10zu | %8.1f | %12.3f | %12.3f | %7.2fx\n", sl, avg_run,
                ref_best, new_best, ref_best / new_best);
  }
  std::printf("aggregate (%s): per-entry %.3fms, gallop %.3fms -> %.2fx\n",
              label, ref_total, new_total, ref_total / new_total);
}

std::vector<std::string> BatchQueries(const std::vector<std::string>& words,
                                      size_t count) {
  // `count` 2-3 keyword queries cycling through the vocabulary. The index
  // stride walks distinct (i, i*7+3, i*13+5) combinations; with a
  // vocabulary shorter than `count` some combinations repeat.
  std::vector<std::string> batch;
  for (size_t i = 0; i < count; ++i) {
    std::string query = words[i % words.size()];
    query += " " + words[(i * 7 + 3) % words.size()];
    if (i % 2 == 0) query += " " + words[(i * 13 + 5) % words.size()];
    batch.push_back(query);
  }
  return batch;
}

double TimeBatch(const gks::GksSearcher& searcher,
                 const std::vector<std::string>& batch,
                 const SearchOptions& options, ThreadPool* pool) {
  gks::WallTimer timer;
  std::vector<gks::Result<gks::SearchResponse>> responses =
      searcher.SearchBatch(batch, options, pool);
  for (const auto& response : responses) {
    if (!response.ok()) {
      std::fprintf(stderr, "FATAL batch query: %s\n",
                   response.status().ToString().c_str());
      std::exit(1);
    }
  }
  return timer.ElapsedMillis();
}

void BenchBatch(const XmlIndex& index,
                const std::vector<std::string>& batch) {
  std::printf("\n[2] SearchBatch fan-out (%zu queries)\n", batch.size());
  std::printf("%8s | %10s | %10s | %8s\n", "threads", "RT (ms)", "q/s",
              "speedup");
  gks::GksSearcher searcher(&index);
  SearchOptions options;
  options.discover_di = false;
  options.suggest_refinements = false;
  double sequential_ms = 0.0;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    TimeBatch(searcher, batch, options, pool.get());  // warm-up
    double best = 1e99;
    for (int r = 0; r < 3; ++r) {
      best = std::min(best, TimeBatch(searcher, batch, options, pool.get()));
    }
    if (threads == 1) sequential_ms = best;
    std::printf("%8zu | %10.2f | %10.1f | %7.2fx\n", threads, best,
                1000.0 * static_cast<double>(batch.size()) / best,
                sequential_ms / best);
  }
}

void BenchParallelBuild(const gks::bench::Corpus& corpus) {
  std::printf("\n[4] parallel index build (%s: %zu documents, %s)\n",
              corpus.name.c_str(), corpus.documents.size(),
              gks::HumanBytes(corpus.TotalBytes()).c_str());
  double sequential_s = 0.0;
  XmlIndex sequential = gks::bench::BuildIndex(corpus, &sequential_s);
  std::string expected;
  gks::SerializeIndex(sequential).swap(expected);
  std::printf("%8s | %10s | %8s\n", "threads", "build (s)", "speedup");
  std::printf("%8s | %10.3f | %8s\n", "seq", sequential_s, "1.00x");
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    ThreadPool pool(threads);
    gks::WallTimer timer;
    gks::Result<XmlIndex> parallel =
        gks::BuildIndexParallel(corpus.documents, {}, &pool);
    double elapsed = timer.ElapsedSeconds();
    if (!parallel.ok()) {
      std::fprintf(stderr, "FATAL parallel build: %s\n",
                   parallel.status().ToString().c_str());
      std::exit(1);
    }
    if (gks::SerializeIndex(*parallel) != expected) {
      std::fprintf(stderr, "FATAL: parallel build not byte-identical\n");
      std::exit(1);
    }
    std::printf("%8zu | %10.3f | %7.2fx\n", threads, elapsed,
                sequential_s / elapsed);
  }
  std::printf("(outputs verified byte-identical to the sequential build)\n");
}

}  // namespace

int main() {
  std::printf("Concurrency benchmarks (scale=%.2f, hw threads=%zu)\n",
              gks::bench::Scale(), gks::ThreadPool::DefaultThreads());

  gks::bench::Corpus nasa = gks::bench::MakeNasa();
  XmlIndex nasa_index = gks::bench::BuildIndex(nasa);
  BenchMergeKernel(nasa_index, "skewed",
                   SkewedQueries(gks::data::AstroWords()));
  BenchMergeKernel(nasa_index, "interleaved",
                   InterleavedQueries(gks::data::AstroWords()));
  {
    gks::bench::Corpus hybrid = MakeHybridCorpus();
    XmlIndex hybrid_index = gks::bench::BuildIndex(hybrid);
    BenchMergeKernel(hybrid_index, "hybrid cross-domain", HybridQueries());
  }

  std::vector<std::string> batch = BatchQueries(gks::data::AstroWords(), 100);
  BenchBatch(nasa_index, batch);

  gks::bench::Corpus plays = gks::bench::MakePlays();
  BenchParallelBuild(plays);
  return 0;
}
