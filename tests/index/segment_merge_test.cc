// Size-tiered merge policy (docs/INDEXING.md § Segment lifecycle): tier
// bucketing and deterministic input selection. The merge itself — the
// tombstone-purging renumber and its id map — is AppendDocuments, pinned
// by the AppendDocuments property suite and RtIndexTest's merge tests.

#include "index/segment_merge.h"

#include <cstdint>
#include <vector>

#include "gtest/gtest.h"

namespace gks {
namespace {

constexpr uint64_t kKiB = 1024;

TEST(SizeTierTest, BucketsGeometrically) {
  // Tier 0 spans (0, 64KiB]; each tier above quadruples the ceiling.
  EXPECT_EQ(SizeTier(0), 0u);
  EXPECT_EQ(SizeTier(1), 0u);
  EXPECT_EQ(SizeTier(64 * kKiB), 0u);
  EXPECT_EQ(SizeTier(64 * kKiB + 1), 1u);
  EXPECT_EQ(SizeTier(256 * kKiB), 1u);
  EXPECT_EQ(SizeTier(256 * kKiB + 1), 2u);
  EXPECT_EQ(SizeTier(1024 * kKiB), 2u);
}

TEST(SizeTierTest, IsMonotonic) {
  size_t previous = 0;
  for (uint64_t bytes = 1; bytes < (1ull << 34); bytes *= 3) {
    size_t tier = SizeTier(bytes);
    EXPECT_GE(tier, previous) << bytes;
    previous = tier;
  }
}

TEST(PickMergeInputsTest, EmptyWhenDisabledOrUnderFull) {
  EXPECT_TRUE(PickMergeInputs({100, 100, 100, 100}, 0).empty());
  EXPECT_TRUE(PickMergeInputs({100, 100, 100, 100}, 1).empty());
  // Three members per tier, fanout 4: no tier is full.
  EXPECT_TRUE(
      PickMergeInputs({100, 100, 100, 500 * kKiB, 500 * kKiB, 500 * kKiB}, 4)
          .empty());
  EXPECT_TRUE(PickMergeInputs({}, 4).empty());
}

TEST(PickMergeInputsTest, PrefersTheSmallestFullTier) {
  // Tier 2 (500KiB) is full at fanout 2, and so is tier 0 (tiny) — the
  // smaller tier must win so merges stay cheap and cascade upward.
  std::vector<uint64_t> bytes = {500 * kKiB, 10, 500 * kKiB, 20};
  std::vector<size_t> picked = PickMergeInputs(bytes, 2);
  EXPECT_EQ(picked, (std::vector<size_t>{1, 3}));
}

TEST(PickMergeInputsTest, PicksTheSmallestMembersOldestFirstOnTies) {
  // Five tier-0 members, fanout 3: the three smallest; the two 10-byte
  // ties resolve oldest-first (stable sort by position).
  std::vector<uint64_t> bytes = {30, 10, 40, 10, 20};
  std::vector<size_t> picked = PickMergeInputs(bytes, 3);
  EXPECT_EQ(picked, (std::vector<size_t>{1, 3, 4}));
  // Deterministic: same input, same answer.
  EXPECT_EQ(PickMergeInputs(bytes, 3), picked);
}

}  // namespace
}  // namespace gks
