#include "index/posting_blocks.h"

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "common/varint.h"
#include "index/posting_cursor.h"
#include "index/posting_list.h"

namespace gks {
namespace {

// Random document-ordered duplicate-free id set; depth and fan-out skewed
// the way real corpora are (shallow trees, hot low components).
PackedIds RandomSortedIds(std::mt19937* rng, size_t n) {
  PostingList list;
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint32_t> comps;
    size_t depth = 1 + (*rng)() % 6;
    comps.push_back(1);
    for (size_t d = 1; d < depth; ++d) {
      // Occasional big ordinals exercise multi-byte varints and deltas.
      uint32_t c = (*rng)() % 16 == 0 ? (*rng)() % 100000 : (*rng)() % 40;
      comps.push_back(c);
    }
    list.Add(DeweyId(comps));
  }
  list.Finalize();
  PackedIds out;
  for (size_t i = 0; i < list.size(); ++i) out.Add(list.At(i));
  return out;
}

std::string EncodeToBlob(const PackedIds& ids) {
  std::string blob;
  EncodeBlockPostings(ids, &blob);
  return blob;
}

// Decodes the blob into a PostingList the way an index load does.
PostingList DecodedList(const std::string& blob) {
  std::string_view in = blob;
  PostingList list;
  Status st = PostingList::DecodeBlocksFrom(&in, &list);
  EXPECT_TRUE(st.ok()) << st.message();
  EXPECT_TRUE(in.empty()) << "blob not fully consumed";
  return list;
}

// A hand-built blob of the single-component ids 0..n-1, cut into blocks of
// the given sizes (the encoder always cuts kPostingBlockSize-id blocks).
// `last_skew` is added to every last id the skip table records.
std::string ConsecutiveIdsBlob(const std::vector<uint32_t>& block_sizes,
                               uint32_t last_skew = 0) {
  uint32_t n = 0;
  for (uint32_t count : block_sizes) n += count;
  std::string blob;
  PutVarint64(&blob, n);
  PutVarint64(&blob, block_sizes.size());
  std::string payloads;
  uint32_t next = 0;
  for (uint32_t count : block_sizes) {
    PutVarint32(&blob, count);
    PutVarint32(&blob, 2 * (count - 1));  // two bytes per delta-coded id
    PutVarint32(&blob, 1);                // first id: one component
    PutVarint32(&blob, next);
    PutVarint32(&blob, 0);  // last id: nothing shared with the first,
    PutVarint32(&blob, 1);  // one fresh component
    PutVarint32(&blob, next + count - 1 + last_skew);
    // Header `shared 0 << 4 | fresh 1`, then the successor's delta - 1.
    for (uint32_t i = 1; i < count; ++i) payloads.append("\x01\x00", 2);
    next += count;
  }
  return blob + payloads;
}

TEST(PostingBlocksTest, EmptyListRoundTrips) {
  PackedIds empty;
  std::string blob = EncodeToBlob(empty);
  std::string_view in = blob;
  PackedIds decoded;
  ASSERT_TRUE(DecodeBlockPostings(&in, &decoded).ok());
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(decoded.size(), 0u);
}

TEST(PostingBlocksTest, RoundTripAcrossSizes) {
  std::mt19937 rng(11);
  // Hit the single-block, exactly-one-boundary and many-block regimes.
  for (size_t n : {1ul, 2ul, 127ul, 128ul, 129ul, 400ul, 5000ul}) {
    PackedIds ids = RandomSortedIds(&rng, n);
    std::string blob = EncodeToBlob(ids);
    std::string_view in = blob;
    PackedIds decoded;
    ASSERT_TRUE(DecodeBlockPostings(&in, &decoded).ok()) << "n=" << n;
    EXPECT_TRUE(in.empty());
    ASSERT_EQ(decoded.size(), ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_EQ(decoded.At(i).Compare(ids.At(i)), 0) << "n=" << n << " i=" << i;
    }
  }
}

// The skip table must agree with the payloads: blocks cut anywhere but at
// fixed kPostingBlockSize boundaries, or a recorded last id the block does
// not decode to, are corrupt.
TEST(PostingBlocksTest, DecodeChecksSkipTableAgainstBlockContents) {
  std::string blob = ConsecutiveIdsBlob({128, 1});
  std::string_view in = blob;
  PackedIds decoded;
  ASSERT_TRUE(DecodeBlockPostings(&in, &decoded).ok());
  ASSERT_EQ(decoded.size(), 129u);
  EXPECT_EQ(decoded.At(128).data[0], 128u);

  auto expect_corrupt = [](const std::string& bad, const std::string& needle) {
    std::string_view bad_in = bad;
    PackedIds out;
    Status st = DecodeBlockPostings(&bad_in, &out);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << needle;
    EXPECT_NE(st.message().find(needle), std::string::npos) << st.message();
  };
  expect_corrupt(ConsecutiveIdsBlob({64, 65}), "fixed blocking");
  expect_corrupt(ConsecutiveIdsBlob({1, 1}), "blocks for 2 ids");
  expect_corrupt(ConsecutiveIdsBlob({128, 1}, 1), "skip-table last id");
}

TEST(PostingBlocksTest, DeltaCodingBeatsV1FrontCodingOnDenseLists) {
  // A dense DBLP-shaped list: one posting per "article", diverging at the
  // article ordinal (values >= 128 -> 2-byte varints raw, 1-byte deltas).
  PackedIds ids;
  for (uint32_t article = 0; article < 20000; ++article) {
    std::vector<uint32_t> comps = {1, 200 + article, 3};
    DeweyId id(comps);
    ids.Add(DeweySpan::Of(id));
  }
  std::string v1;
  ids.EncodeTo(&v1);
  std::string v2 = EncodeToBlob(ids);
  EXPECT_LT(v2.size() * 3, v1.size() * 2)
      << "blocks " << v2.size() << "B vs v1 " << v1.size() << "B";
}

TEST(PostingBlocksTest, ParseRejectsTruncationEverywhere) {
  std::mt19937 rng(23);
  PackedIds ids = RandomSortedIds(&rng, 300);
  std::string blob = EncodeToBlob(ids);
  for (size_t cut = 0; cut < blob.size(); cut += 7) {
    std::string prefix = blob.substr(0, cut);
    std::string_view in = prefix;
    PackedIds decoded;
    EXPECT_FALSE(DecodeBlockPostings(&in, &decoded).ok()) << "cut " << cut;
  }
}

TEST(PostingBlocksTest, CursorSequentialScanMatchesOracle) {
  std::mt19937 rng(37);
  PackedIds ids = RandomSortedIds(&rng, 900);
  PostingList list = DecodedList(EncodeToBlob(ids));
  PostingCursor cursor(list);
  ASSERT_EQ(cursor.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_FALSE(cursor.AtEnd());
    ASSERT_EQ(cursor.position(), i);
    ASSERT_EQ(cursor.Head().Compare(ids.At(i)), 0) << i;
    cursor.Next();
  }
  EXPECT_TRUE(cursor.AtEnd());
}

TEST(PostingBlocksTest, CursorEmitAllMatchesOracle) {
  std::mt19937 rng(41);
  for (size_t n : {1ul, 128ul, 129ul, 777ul}) {
    PackedIds ids = RandomSortedIds(&rng, n);
    PostingList list = DecodedList(EncodeToBlob(ids));
    PostingCursor cursor(list);
    PackedIds emitted;
    cursor.EmitAll(&emitted);
    ASSERT_EQ(emitted.size(), ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_EQ(emitted.At(i).Compare(ids.At(i)), 0);
    }
    EXPECT_TRUE(cursor.AtEnd());
    // Emitting from a mid-list seek point must yield the suffix.
    PostingCursor tail(list);
    tail.SeekLowerBound(ids.At(ids.size() / 2));
    size_t start = tail.position();
    PackedIds suffix;
    tail.EmitAll(&suffix);
    ASSERT_EQ(suffix.size(), ids.size() - start);
    for (size_t i = 0; i < suffix.size(); ++i) {
      ASSERT_EQ(suffix.At(i).Compare(ids.At(start + i)), 0);
    }
  }
}

// Forward seeks against a linear-scan oracle over the same ids.
TEST(PostingBlocksTest, CursorSeeksMatchOracle) {
  std::mt19937 rng(43);
  for (int trial = 0; trial < 10; ++trial) {
    PackedIds ids = RandomSortedIds(&rng, 600);
    PostingList list = DecodedList(EncodeToBlob(ids));
    PostingCursor cursor(list);
    size_t want = 0;  // the oracle's position
    std::mt19937 ops(trial);
    while (!cursor.AtEnd() && want < ids.size()) {
      ASSERT_EQ(cursor.position(), want);
      ASSERT_EQ(cursor.Head().Compare(ids.At(want)), 0);
      // Random existing id at-or-after the current position (cursors are
      // forward-only).
      const size_t target = want + ops() % (ids.size() - want);
      switch (ops() % 3) {
        case 0:
          cursor.Next();
          ++want;
          break;
        case 1: {
          DeweyId id = ids.IdAt(target);
          cursor.SeekLowerBound(DeweySpan::Of(id));
          while (ids.At(want).Compare(DeweySpan::Of(id)) < 0) ++want;
          break;
        }
        case 2: {
          // Seek to the subtree of a prefix of a real id: position and
          // membership verdict must match the oracle.
          DeweySpan full = ids.At(target);
          uint32_t len = 1 + ops() % full.size;
          DeweySpan prefix{full.data, len};
          const bool inside = cursor.SeekToSubtree(prefix);
          while (want < ids.size() &&
                 ids.At(want).CompareToSubtree(prefix) < 0) {
            ++want;
          }
          ASSERT_EQ(inside, want < ids.size() &&
                                ids.At(want).CompareToSubtree(prefix) == 0);
          break;
        }
      }
    }
    EXPECT_EQ(cursor.AtEnd(), want >= ids.size());
  }
}

// ---- block addressing / top-k skip primitives -------------------------

// Multi-document id set: leading component is the document ordinal, so
// EmitWhileDocBelow and the top-k segment windows have real boundaries.
PackedIds MultiDocIds(std::mt19937* rng, size_t docs, size_t per_doc) {
  PostingList list;
  for (uint32_t doc = 0; doc < docs; ++doc) {
    for (size_t i = 0; i < per_doc; ++i) {
      std::vector<uint32_t> comps = {doc};
      size_t depth = 1 + (*rng)() % 4;
      for (size_t d = 0; d < depth; ++d) comps.push_back((*rng)() % 50);
      list.Add(DeweyId(comps));
    }
  }
  list.Finalize();
  PackedIds out;
  for (size_t i = 0; i < list.size(); ++i) out.Add(list.At(i));
  return out;
}

TEST(PostingBlocksTest, CursorBlockAddressingMatchesOracle) {
  std::mt19937 rng(53);
  for (size_t n : {1ul, 128ul, 129ul, 700ul}) {
    PackedIds ids = RandomSortedIds(&rng, n);
    PostingList list = DecodedList(EncodeToBlob(ids));

    const size_t want_blocks =
        (ids.size() + kPostingBlockSize - 1) / kPostingBlockSize;
    PostingCursor cursor(list);
    ASSERT_EQ(cursor.block_count(), want_blocks) << "n=" << n;
    for (size_t b = 0; b < want_blocks; ++b) {
      const size_t first = b * kPostingBlockSize;
      const size_t last = std::min(first + kPostingBlockSize, ids.size()) - 1;
      EXPECT_EQ(cursor.BlockFirst(b).Compare(ids.At(first)), 0) << b;
      EXPECT_EQ(cursor.BlockLast(b).Compare(ids.At(last)), 0) << b;
    }
    // block_index tracks the scan position.
    for (size_t i = 0; i < ids.size(); i += 37) {
      while (cursor.position() < i) cursor.Next();
      EXPECT_EQ(cursor.block_index(), i / kPostingBlockSize) << i;
    }
  }
}

TEST(PostingBlocksTest, CursorSeekPastBlockJumpsToNextBlockFirst) {
  std::mt19937 rng(59);
  PackedIds ids = RandomSortedIds(&rng, 1000);  // 8 blocks
  PostingList list = DecodedList(EncodeToBlob(ids));

  {
    PostingCursor cursor(list);
    // Jump block to block: each landing must be the next block's first id.
    while (!cursor.AtEnd()) {
      const size_t b = cursor.block_index();
      cursor.SeekPastBlock(b);
      if ((b + 1) * kPostingBlockSize >= ids.size()) {
        EXPECT_TRUE(cursor.AtEnd());
      } else {
        ASSERT_FALSE(cursor.AtEnd());
        EXPECT_EQ(cursor.position(), (b + 1) * kPostingBlockSize);
        EXPECT_EQ(cursor.Head().Compare(ids.At(cursor.position())), 0);
      }
    }
  }

  // A seek issued right after a block jump must continue from the landing
  // point, never rewind into the skipped region.
  PostingCursor cursor(list);
  cursor.SeekPastBlock(1);  // lands at ids[256]
  ASSERT_EQ(cursor.position(), 2 * kPostingBlockSize);
  cursor.SeekLowerBound(ids.At(10));  // target far behind: must not move
  EXPECT_EQ(cursor.position(), 2 * kPostingBlockSize);
  cursor.SeekLowerBound(ids.At(2 * kPostingBlockSize + 50));
  EXPECT_EQ(cursor.position(), 2 * kPostingBlockSize + 50);
  EXPECT_EQ(cursor.Head().Compare(ids.At(cursor.position())), 0);
}

TEST(PostingBlocksTest, CursorEmitWhileDocBelowMatchesOracle) {
  std::mt19937 rng(61);
  PackedIds ids = MultiDocIds(&rng, 10, 60);
  PostingList list = DecodedList(EncodeToBlob(ids));

  for (uint32_t doc_end = 0; doc_end <= 11; ++doc_end) {
    {
      PostingCursor cursor(list);
      PackedIds emitted;
      cursor.EmitWhileDocBelow(doc_end, &emitted);
      size_t want = 0;
      while (want < ids.size() && ids.At(want).data[0] < doc_end) ++want;
      ASSERT_EQ(emitted.size(), want) << "doc_end=" << doc_end;
      for (size_t i = 0; i < want; ++i) {
        ASSERT_EQ(emitted.At(i).Compare(ids.At(i)), 0);
      }
      if (want < ids.size()) {
        ASSERT_FALSE(cursor.AtEnd());
        EXPECT_EQ(cursor.position(), want);
      } else {
        EXPECT_TRUE(cursor.AtEnd());
      }
      // A second call with a later bound resumes where the first stopped.
      PackedIds more;
      cursor.EmitWhileDocBelow(doc_end + 3, &more);
      size_t want2 = want;
      while (want2 < ids.size() && ids.At(want2).data[0] < doc_end + 3) {
        ++want2;
      }
      ASSERT_EQ(more.size(), want2 - want);
    }
  }
}

// Flipped payload bytes (the tail of the blob) must either be rejected
// with a Corruption status or decode into a list the cursor reads end to
// end; never a crash.
TEST(PostingBlocksTest, CursorSurvivesCorruptPayload) {
  std::mt19937 rng(47);
  PackedIds ids = RandomSortedIds(&rng, 500);
  std::string blob = EncodeToBlob(ids);
  size_t rejected = 0;
  for (int trial = 0; trial < 50; ++trial) {
    std::string mutated = blob;
    size_t payload_zone = mutated.size() / 2;
    mutated[payload_zone + rng() % (mutated.size() - payload_zone)] ^=
        static_cast<char>(1 + rng() % 255);
    std::string_view in = mutated;
    PostingList list;
    Status st = PostingList::DecodeBlocksFrom(&in, &list);
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.message();
      ++rejected;
      continue;
    }
    PostingCursor cursor(list);
    PackedIds sink;
    cursor.EmitAll(&sink);
    EXPECT_EQ(sink.size(), list.size());
    EXPECT_TRUE(cursor.AtEnd());
  }
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace gks
