// Differential fuzz suite for the dispatched hot-path kernels
// (src/common/simd/kernels.h): every vector tier must be *byte-identical*
// to the scalar reference on every input — well-formed, adversarial, and
// random garbage alike. Each test runs scalar against every compiled-in
// tier the host CPU supports; on a scalar-only host (or -DGKS_SIMD=OFF
// builds) the comparisons degenerate to scalar-vs-scalar and the suite
// stays green rather than vacuously skipping. check_asan.sh runs these
// under ASan/UBSan, and the *_scalar ctest configurations re-run them
// with GKS_SIMD=off.

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "common/lz.h"
#include "common/simd/kernels.h"
#include "index/posting_blocks.h"
#include "index/posting_list.h"

namespace gks {
namespace {

using simd::Kernels;

// Scalar first: table[0] is the reference everything else is diffed
// against.
std::vector<const Kernels*> Tables() {
  std::vector<const Kernels*> tables = {&simd::Scalar()};
  if (const Kernels* avx2 = simd::ForLevel(simd::Level::kAvx2)) {
    tables.push_back(avx2);
  }
  return tables;
}

// Sorted, duplicate-free random Dewey ids. `dense` biases toward the AVX2
// decode fast path: long runs sharing all but the last component, with
// small single-byte deltas.
PackedIds RandomSortedIds(std::mt19937* rng, size_t count, uint32_t max_depth,
                          uint32_t max_component, bool dense) {
  std::vector<std::vector<uint32_t>> ids;
  ids.reserve(count);
  std::uniform_int_distribution<uint32_t> depth_dist(1, max_depth);
  std::uniform_int_distribution<uint32_t> comp_dist(0, max_component);
  if (dense) {
    const uint32_t depth = depth_dist(*rng);
    std::vector<uint32_t> id(depth);
    for (uint32_t c = 0; c < depth; ++c) id[c] = comp_dist(*rng) % 1000;
    std::uniform_int_distribution<uint32_t> step(1, 120);
    for (size_t i = 0; i < count; ++i) {
      id.back() += step(*rng);
      ids.push_back(id);
    }
  } else {
    for (size_t i = 0; i < count; ++i) {
      std::vector<uint32_t> id(depth_dist(*rng));
      for (uint32_t& c : id) c = comp_dist(*rng);
      ids.push_back(std::move(id));
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  }
  PackedIds packed;
  for (const std::vector<uint32_t>& id : ids) {
    packed.Add(DeweySpan{id.data(), static_cast<uint32_t>(id.size())});
  }
  return packed;
}

void ExpectSameIds(const PackedIds& want, const PackedIds& got,
                   const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  ASSERT_EQ(got.component_count(), want.component_count()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.At(i).Compare(want.At(i)), 0) << label << " id " << i;
  }
  // Layout identity too: the offsets side-array must match entry for
  // entry, not just the ids it implies.
  for (size_t i = 0; i <= want.size(); ++i) {
    EXPECT_EQ(got.raw_offsets()[i], want.raw_offsets()[i]) << label;
  }
}

// Random id streams, encoded through the real v2 block codec, decoded
// under every table: the end-to-end shape of the posting-decode kernel.
TEST(SimdKernelTest, PostingDecodeRoundTripMatchesScalar) {
  std::mt19937 rng(20260809);
  for (int trial = 0; trial < 60; ++trial) {
    const bool dense = trial % 2 == 0;
    const size_t count = 1 + rng() % 600;  // spans multiple 128-id blocks
    const uint32_t max_depth = 1 + rng() % 12;
    const uint32_t max_component =
        trial % 3 == 0 ? 0xffffffffu : 1u << (3 + rng() % 20);
    PackedIds source =
        RandomSortedIds(&rng, count, max_depth, max_component, dense);
    if (source.empty()) continue;
    std::string encoded;
    EncodeBlockPostings(source, &encoded);

    for (const Kernels* table : Tables()) {
      simd::SetActiveForTest(table);
      std::string_view input = encoded;
      PackedIds decoded;
      Status status = DecodeBlockPostings(&input, &decoded);
      simd::SetActiveForTest(nullptr);
      ASSERT_TRUE(status.ok()) << table->name << ": " << status.ToString();
      ExpectSameIds(source, decoded, table->name);
    }
  }
}

// Raw-garbage agreement: every table must accept exactly the same byte
// streams and, on acceptance, produce the same output. Random buffers are
// mostly rejected; seeding them from a valid encoding and flipping bytes
// exercises the accept boundary from both sides.
TEST(SimdKernelTest, PostingDecodeFuzzAgreesOnAcceptSet) {
  std::mt19937 rng(97);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<uint8_t> payload;
    if (trial % 2 == 0) {
      payload.resize(rng() % 64);
      for (uint8_t& b : payload) b = static_cast<uint8_t>(rng());
    } else {
      // Start from a real block payload, then corrupt a few bytes.
      PackedIds ids = RandomSortedIds(&rng, 2 + rng() % 100, 1 + rng() % 6,
                                      1u << 16, trial % 4 == 1);
      std::string encoded;
      EncodeBlockPostings(ids, &encoded);
      payload.assign(encoded.begin(), encoded.end());
      for (int flips = rng() % 4; flips > 0 && !payload.empty(); --flips) {
        payload[rng() % payload.size()] = static_cast<uint8_t>(rng());
      }
    }
    const uint32_t count = 2 + rng() % 129;
    std::vector<uint32_t> first(1 + rng() % 4);
    for (uint32_t& c : first) c = rng();

    struct Run {
      size_t consumed;
      std::vector<uint32_t> comps, components, offsets;
    };
    std::vector<Run> runs;
    for (const Kernels* table : Tables()) {
      Run run;
      run.comps = first;
      run.components = first;  // mimic the first id already appended
      run.offsets = {0, static_cast<uint32_t>(first.size())};
      run.consumed = table->decode_delta_ids(payload.data(), payload.size(),
                                             count, &run.comps,
                                             &run.components, &run.offsets);
      runs.push_back(std::move(run));
    }
    for (size_t t = 1; t < runs.size(); ++t) {
      ASSERT_EQ(runs[t].consumed, runs[0].consumed)
          << "trial " << trial << " table " << Tables()[t]->name;
      if (runs[0].consumed == simd::kDecodeError) continue;
      EXPECT_EQ(runs[t].components, runs[0].components) << "trial " << trial;
      EXPECT_EQ(runs[t].offsets, runs[0].offsets) << "trial " << trial;
      EXPECT_EQ(runs[t].comps, runs[0].comps) << "trial " << trial;
    }
  }
}

// Gather shift: uint32 wraparound must match lane for lane.
TEST(SimdKernelTest, ShiftU32MatchesScalar) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = rng() % 100;
    std::vector<uint32_t> src(n);
    for (uint32_t& v : src) v = rng();
    const uint32_t delta = rng();  // includes wraparound-forcing values
    std::vector<std::vector<uint32_t>> outs;
    for (const Kernels* table : Tables()) {
      std::vector<uint32_t> dst(n, 0xdeadbeef);
      table->shift_u32(src.data(), n, delta, dst.data());
      outs.push_back(std::move(dst));
    }
    for (size_t t = 1; t < outs.size(); ++t) {
      EXPECT_EQ(outs[t], outs[0]) << "trial " << trial;
    }
  }
}

// LZ match copy, including the dist < len RLE-overlap doubling path and
// dist == 1 byte runs.
TEST(SimdKernelTest, LzMatchCopyMatchesScalar) {
  std::mt19937 rng(13);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t produced = 1 + rng() % 300;
    std::string seed(produced, '\0');
    for (char& c : seed) c = static_cast<char>(rng());
    const size_t dist = 1 + rng() % produced;
    const size_t len = 1 + rng() % 500;
    std::vector<std::string> outs;
    for (const Kernels* table : Tables()) {
      std::string out = seed;
      table->lz_match_copy(&out, dist, len);
      outs.push_back(std::move(out));
    }
    for (size_t t = 1; t < outs.size(); ++t) {
      EXPECT_EQ(outs[t], outs[0]) << "trial " << trial << " dist=" << dist
                                  << " len=" << len;
    }
    ASSERT_EQ(outs[0].size(), produced + len);
  }
}

// Whole-stream LZ: random and repetitive inputs through the real
// compressor, decompressed under each table, must reproduce the source.
TEST(SimdKernelTest, LzRoundTripMatchesUnderEveryTable) {
  std::mt19937 rng(29);
  for (int trial = 0; trial < 40; ++trial) {
    std::string raw;
    const size_t target = rng() % 5000;
    while (raw.size() < target) {
      if (rng() % 3 == 0 && !raw.empty()) {
        // Splice in a repeat of earlier content to force back-references.
        size_t from = rng() % raw.size();
        size_t n = std::min<size_t>(1 + rng() % 200, raw.size() - from);
        raw.append(raw, from, n);
      } else {
        raw.push_back(static_cast<char>('a' + rng() % 7));
      }
    }
    std::string compressed;
    LzCompress(raw, &compressed);
    for (const Kernels* table : Tables()) {
      simd::SetActiveForTest(table);
      std::string out;
      Status status = LzDecompress(compressed, &out);
      simd::SetActiveForTest(nullptr);
      ASSERT_TRUE(status.ok()) << table->name << ": " << status.ToString();
      EXPECT_EQ(out, raw) << table->name << " trial " << trial;
    }
  }
}

// Depth counting: random sorted lists, random probe paths and intervals,
// diffed against a from-first-principles reference (per-id longest common
// prefix with the path) as well as across tables. Depths above 8 exercise
// the AVX2 tier's scalar fallback.
TEST(SimdKernelTest, CountDepthPrefixesMatchesScalarAndOracle) {
  std::mt19937 rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    PackedIds ids = RandomSortedIds(&rng, 1 + rng() % 300, 1 + rng() % 10,
                                    1u << (1 + rng() % 8), trial % 3 == 0);
    if (ids.empty()) continue;
    const size_t lo = rng() % ids.size();
    const size_t hi = lo + rng() % (ids.size() - lo + 1);
    const uint32_t depth = 1 + rng() % 12;
    std::vector<uint32_t> path(depth);
    if (trial % 2 == 0) {
      // Probe with a real id's components (padded if shorter): hits the
      // equal-prefix branches.
      DeweySpan sample = ids.At(rng() % ids.size());
      for (uint32_t d = 0; d < depth; ++d) {
        path[d] = d < sample.size ? sample.data[d] : rng() % 4;
      }
    } else {
      for (uint32_t& c : path) c = rng() % 8;
    }

    std::vector<uint64_t> reference(depth + 1, 0);
    for (size_t j = lo; j < hi; ++j) {
      DeweySpan id = ids.At(j);
      uint32_t lcp = 0;
      while (lcp < depth && lcp < id.size && id.data[lcp] == path[lcp]) {
        ++lcp;
      }
      for (uint32_t d = 1; d <= lcp; ++d) ++reference[d];
    }

    for (const Kernels* table : Tables()) {
      std::vector<uint64_t> totals(depth + 1, 0);
      table->count_depth_prefixes(ids.raw_components(), ids.raw_offsets(), lo,
                                  hi, path.data(), depth, totals.data());
      EXPECT_EQ(totals, reference)
          << table->name << " trial " << trial << " depth=" << depth;
    }
  }
}

// The dispatch plumbing itself: Scalar() is always level 0, Active()
// honors the test override, and each table counts its own calls.
TEST(SimdKernelTest, DispatchPlumbing) {
  EXPECT_EQ(simd::Scalar().level, simd::Level::kScalar);
  EXPECT_STREQ(simd::Scalar().name, "scalar");
  simd::SetActiveForTest(&simd::Scalar());
  EXPECT_EQ(&simd::Active(), &simd::Scalar());
  simd::SetActiveForTest(nullptr);
  const Kernels& active = simd::Active();
  EXPECT_TRUE(active.level == simd::Level::kScalar ||
              active.level == simd::Level::kAvx2);
  EXPECT_NE(active.decode_calls, nullptr);
  EXPECT_NE(active.gather_calls, nullptr);
  EXPECT_NE(active.lz_calls, nullptr);
  EXPECT_NE(active.depth_calls, nullptr);
  std::string description = simd::DispatchDescription();
  EXPECT_NE(description.find("dispatch="), std::string::npos);
  EXPECT_NE(description.find("GKS_SIMD="), std::string::npos);
}

}  // namespace
}  // namespace gks
