// Kernel micro-bench: scalar vs vector dispatch tier for each hot-path
// kernel behind src/common/simd/kernels.h — posting-block delta decode,
// the gather shift of galloping-merge run emission, LZ back-reference
// copy, and the probe evaluator's per-depth subtree counting. Each row
// times the same work under the scalar table and the best compiled-in
// tier the host supports (via the test dispatch override), best-of over
// interleaved repeats, and prints the speedup. On scalar-only hosts the
// vector column reads "-" and the bench still exits 0.
//
// Prints the dispatch banner plus a trailing `BENCH_JSON {...}` line
// (transcribed into BENCH_pr8.json). Input sizes honor GKS_BENCH_SCALE.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/json_writer.h"
#include "common/lz.h"
#include "common/simd/cpu_features.h"
#include "common/simd/kernels.h"
#include "index/posting_blocks.h"
#include "index/posting_list.h"

namespace {

using gks::PackedIds;
using gks::bench::Scaled;
using gks::simd::Kernels;

struct KernelRow {
  const char* name;
  double scalar_ms = 0.0;
  double simd_ms = 0.0;  // 0 when no vector tier is available
  double items;          // work units per run, for the throughput column
  const char* unit;
};

// Best-of interleaved timing of `body` under each table: run(table) must
// perform identical work, differing only in the dispatched kernels.
template <typename Body>
void TimeTables(const Kernels* simd_table, const Body& body, KernelRow* row,
                int repeats = 7) {
  const Kernels& scalar = gks::simd::Scalar();
  row->scalar_ms = 1e99;
  row->simd_ms = simd_table != nullptr ? 1e99 : 0.0;
  body(scalar);  // warmup (page faults, allocator growth)
  if (simd_table != nullptr) body(*simd_table);
  for (int i = 0; i < repeats; ++i) {
    {
      gks::WallTimer timer;
      body(scalar);
      row->scalar_ms = std::min(row->scalar_ms, timer.ElapsedMillis());
    }
    if (simd_table != nullptr) {
      gks::WallTimer timer;
      body(*simd_table);
      row->simd_ms = std::min(row->simd_ms, timer.ElapsedMillis());
    }
  }
}

void PrintRow(const KernelRow& row) {
  const double best = row.simd_ms > 0.0 ? row.simd_ms : row.scalar_ms;
  char simd_col[32];
  if (row.simd_ms > 0.0) {
    std::snprintf(simd_col, sizeof(simd_col), "%9.3f", row.simd_ms);
  } else {
    std::snprintf(simd_col, sizeof(simd_col), "%9s", "-");
  }
  std::printf("%-16s | %9.3f | %s | %7.2fx | %8.1f M%s/s\n", row.name,
              row.scalar_ms, simd_col,
              row.simd_ms > 0.0 ? row.scalar_ms / row.simd_ms : 1.0,
              row.items / best / 1e3, row.unit);
}

}  // namespace

int main() {
  std::printf("Kernel micro-bench (%s)\n",
              gks::simd::DispatchDescription().c_str());
  const Kernels* simd_table = gks::simd::ForLevel(gks::simd::Level::kAvx2);
  std::mt19937 rng(20260809);
  std::vector<KernelRow> rows;

  std::printf("\n%-16s | %9s | %9s | %8s | %s\n", "kernel", "scalar ms",
              "simd ms", "speedup", "throughput");

  // ---- posting decode: delta-coded 128-id blocks, index-shaped ids -----
  {
    const size_t n = Scaled(1500000);
    PackedIds ids;
    uint32_t last = 0;
    std::uniform_int_distribution<uint32_t> step(1, 100);
    for (size_t i = 0; i < n; ++i) {
      // Dense leaf runs under a shallow prefix: the shape of a large
      // posting list (same document, siblings differing in the last
      // component) and of the vector decoder's fast path.
      last += step(rng);
      const uint32_t comps[5] = {7, 1, 2, static_cast<uint32_t>(i / 4096),
                                 last};
      ids.Add(gks::DeweySpan{comps, 5});
      if (i % 4096 == 4095) last = 0;
    }
    std::string encoded;
    EncodeBlockPostings(ids, &encoded);
    KernelRow row{"posting_decode", 0, 0, static_cast<double>(n), "ids"};
    PackedIds decoded;
    TimeTables(simd_table, [&](const Kernels& table) {
      gks::simd::SetActiveForTest(&table);
      decoded.Clear();
      std::string_view input = encoded;
      if (!gks::DecodeBlockPostings(&input, &decoded).ok()) std::abort();
      gks::simd::SetActiveForTest(nullptr);
    }, &row);
    PrintRow(row);
    rows.push_back(row);
  }

  // ---- gather shift: offsets rebase of AppendRange run emission --------
  {
    const size_t n = Scaled(4000000);
    std::vector<uint32_t> src(n);
    for (size_t i = 0; i < n; ++i) src[i] = static_cast<uint32_t>(i * 3);
    std::vector<uint32_t> dst(n);
    KernelRow row{"gather_shift", 0, 0, static_cast<double>(n), "offsets"};
    TimeTables(simd_table, [&](const Kernels& table) {
      table.shift_u32(src.data(), n, 0x9e3779b9u, dst.data());
    }, &row);
    PrintRow(row);
    rows.push_back(row);
  }

  // ---- LZ match copy: decompress an index-section-shaped stream --------
  {
    std::string raw;
    const size_t target = Scaled(8000000);
    raw.reserve(target);
    while (raw.size() < target) {
      if (rng() % 3 != 0 && raw.size() > 64) {
        size_t from = rng() % (raw.size() - 32);
        raw.append(raw, from, 16 + rng() % 180);
      } else {
        for (int i = 0; i < 24; ++i) {
          raw.push_back(static_cast<char>('a' + rng() % 9));
        }
      }
    }
    std::string compressed;
    gks::LzCompress(raw, &compressed);
    KernelRow row{"lz_decompress", 0, 0, static_cast<double>(raw.size()),
                  "B"};
    std::string out;
    TimeTables(simd_table, [&](const Kernels& table) {
      gks::simd::SetActiveForTest(&table);
      out.clear();
      if (!gks::LzDecompress(compressed, &out).ok()) std::abort();
      gks::simd::SetActiveForTest(nullptr);
    }, &row);
    PrintRow(row);
    rows.push_back(row);
  }

  // ---- depth count: probe-evaluator subtree counting -------------------
  {
    const size_t n = Scaled(400000);
    PackedIds ids;
    uint32_t leaf = 0;
    std::uniform_int_distribution<uint32_t> step(1, 6);
    for (size_t i = 0; i < n; ++i) {
      leaf += step(rng);
      const uint32_t comps[6] = {static_cast<uint32_t>(i / 50000), 0,
                                 static_cast<uint32_t>(i / 500 % 100), 2,
                                 leaf % 4096, leaf};
      ids.Add(gks::DeweySpan{comps, 6});
    }
    // Event-shaped probes: intervals of the linear-kernel size, paths
    // borrowed from ids inside them.
    struct Probe {
      size_t lo, hi;
      std::vector<uint32_t> path;
    };
    std::vector<Probe> probes;
    const size_t probe_count = std::max<size_t>(1, n / 64);
    for (size_t p = 0; p < probe_count; ++p) {
      Probe probe;
      probe.lo = rng() % ids.size();
      probe.hi = std::min(ids.size(), probe.lo + 1 + rng() % 256);
      gks::DeweySpan sample = ids.At(probe.lo + rng() % (probe.hi - probe.lo));
      probe.path.assign(sample.data, sample.data + sample.size);
      probes.push_back(std::move(probe));
    }
    double total = 0;
    for (const Probe& probe : probes) total += probe.hi - probe.lo;
    KernelRow row{"depth_count", 0, 0, total, "ids"};
    std::vector<uint64_t> totals;
    TimeTables(simd_table, [&](const Kernels& table) {
      for (const Probe& probe : probes) {
        totals.assign(probe.path.size() + 1, 0);
        table.count_depth_prefixes(
            ids.raw_components(), ids.raw_offsets(), probe.lo, probe.hi,
            probe.path.data(), static_cast<uint32_t>(probe.path.size()),
            totals.data());
      }
    }, &row);
    PrintRow(row);
    rows.push_back(row);
  }

  gks::JsonWriter json;
  json.BeginObject();
  json.Key("dispatch").String(gks::simd::Active().name);
  json.Key("cpu").String(gks::simd::CpuFeatures::Get().ToString());
  json.Key("kernels").BeginArray();
  for (const KernelRow& row : rows) {
    json.BeginObject();
    json.Key("name").String(row.name);
    json.Key("scalar_ms").Double(row.scalar_ms, 3);
    if (row.simd_ms > 0.0) {
      json.Key("simd_ms").Double(row.simd_ms, 3);
      json.Key("speedup").Double(row.scalar_ms / row.simd_ms, 2);
    }
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  std::printf("\nBENCH_JSON %s\n", json.str().c_str());
  return 0;
}
