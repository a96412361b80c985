#include "common/varint.h"

#include <cstdint>
#include <random>
#include <vector>

#include "gtest/gtest.h"

namespace gks {
namespace {

TEST(VarintTest, SmallValuesAreOneByte) {
  for (uint32_t v : {0u, 1u, 63u, 127u}) {
    std::string buf;
    PutVarint32(&buf, v);
    EXPECT_EQ(buf.size(), 1u) << v;
  }
}

TEST(VarintTest, RoundTrip32) {
  std::vector<uint32_t> values = {0, 1, 127, 128, 300, 16383, 16384,
                                  1u << 20, UINT32_MAX};
  std::string buf;
  for (uint32_t v : values) PutVarint32(&buf, v);
  std::string_view view = buf;
  for (uint32_t expected : values) {
    uint32_t got = 0;
    ASSERT_TRUE(GetVarint32(&view, &got).ok());
    EXPECT_EQ(got, expected);
  }
  EXPECT_TRUE(view.empty());
}

TEST(VarintTest, RoundTrip64) {
  std::vector<uint64_t> values = {0, 1, 1ull << 32, 1ull << 56, UINT64_MAX};
  std::string buf;
  for (uint64_t v : values) PutVarint64(&buf, v);
  std::string_view view = buf;
  for (uint64_t expected : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(&view, &got).ok());
    EXPECT_EQ(got, expected);
  }
}

TEST(VarintTest, OneByteFastPathAndItsNeighbours) {
  // 0x7f: the largest value the inline one-byte path decodes.
  for (const bool wide : {false, true}) {
    SCOPED_TRACE(wide ? "GetVarint64" : "GetVarint32");
    auto decode = [wide](std::string_view* view, uint64_t* got) {
      if (wide) return GetVarint64(view, got);
      uint32_t narrow = 0;
      Status status = GetVarint32(view, &narrow);
      *got = narrow;
      return status;
    };
    std::string_view view("\x7f\x05", 2);
    uint64_t got = 0;
    ASSERT_TRUE(decode(&view, &got).ok());
    EXPECT_EQ(got, 0x7fu);
    EXPECT_EQ(view.size(), 1u);  // exactly one byte consumed
    // 0x80 0x01: the smallest two-byte value takes the general path.
    view = std::string_view("\x80\x01", 2);
    ASSERT_TRUE(decode(&view, &got).ok());
    EXPECT_EQ(got, 0x80u);
    EXPECT_TRUE(view.empty());
    // 0x80 0x00: an overlong zero stays Corruption.
    view = std::string_view("\x80\x00", 2);
    Status st = decode(&view, &got);
    EXPECT_EQ(st.code(), StatusCode::kCorruption);
    EXPECT_NE(st.message().find("overlong"), std::string::npos)
        << st.message();
    // Empty input is truncated, not a zero.
    view = std::string_view();
    st = decode(&view, &got);
    EXPECT_EQ(st.code(), StatusCode::kCorruption);
    EXPECT_NE(st.message().find("truncated varint after byte 0"),
              std::string::npos)
        << st.message();
  }
}

TEST(VarintTest, TruncatedInputIsCorruption) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf.resize(buf.size() - 1);
  std::string_view view = buf;
  uint64_t got = 0;
  EXPECT_EQ(GetVarint64(&view, &got).code(), StatusCode::kCorruption);
}

TEST(VarintTest, Overlong32IsCorruption) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  std::string_view view = buf;
  uint32_t got = 0;
  EXPECT_EQ(GetVarint32(&view, &got).code(), StatusCode::kCorruption);
}

TEST(VarintTest, BoundaryValuesRoundTrip) {
  // Every 7-bit length boundary: 2^(7k) - 1 encodes in k bytes, 2^(7k)
  // needs k + 1. Both sides of each fence must round-trip exactly.
  for (int k = 1; k <= 9; ++k) {
    uint64_t fence = 1ull << (7 * k);
    for (uint64_t v : {fence - 1, fence, fence + 1}) {
      std::string buf;
      PutVarint64(&buf, v);
      EXPECT_EQ(buf.size(), static_cast<size_t>(v < fence ? k : k + 1)) << v;
      std::string_view view = buf;
      uint64_t got = 0;
      ASSERT_TRUE(GetVarint64(&view, &got).ok()) << v;
      EXPECT_EQ(got, v);
      EXPECT_TRUE(view.empty());
    }
  }
}

TEST(VarintTest, OverlongEncodingsRejected) {
  // 0x80 0x00 is a two-byte encoding of 0; canonical is the single byte
  // 0x00. All such padded forms must be rejected, not silently accepted.
  for (const std::string& raw :
       {std::string("\x80\x00", 2), std::string("\xff\x00", 2),
        std::string("\x80\x80\x00", 3),
        std::string("\x80\x80\x80\x80\x80\x80\x80\x80\x80\x00", 10)}) {
    std::string_view view = raw;
    uint64_t got = 0;
    Status st = GetVarint64(&view, &got);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << raw.size() << " bytes";
    EXPECT_NE(st.message().find("overlong"), std::string::npos)
        << st.message();
  }
  // The single byte 0x00 is the canonical zero and stays valid.
  std::string_view zero("\x00", 1);
  uint64_t got = 1;
  ASSERT_TRUE(GetVarint64(&zero, &got).ok());
  EXPECT_EQ(got, 0u);
}

TEST(VarintTest, TenthByteOverflowRejected) {
  // 10 bytes can carry 70 payload bits; the final byte may only be 0x01
  // (bit 63). 0x02 would shift past the top of uint64.
  std::string max_ok(9, '\x80');
  max_ok[0] = '\xff';  // low bits set so the value is not overlong-zero
  max_ok.push_back('\x01');
  std::string_view view = max_ok;
  uint64_t got = 0;
  ASSERT_TRUE(GetVarint64(&view, &got).ok());

  std::string overflow(9, '\x80');
  overflow.push_back('\x02');
  view = overflow;
  Status st = GetVarint64(&view, &got);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_NE(st.message().find("overflows 64 bits"), std::string::npos)
      << st.message();
}

TEST(VarintTest, PutGetMaxUint64IsCanonical) {
  std::string buf;
  PutVarint64(&buf, UINT64_MAX);
  EXPECT_EQ(buf.size(), 10u);
  EXPECT_EQ(static_cast<uint8_t>(buf.back()), 0x01);
  std::string_view view = buf;
  uint64_t got = 0;
  ASSERT_TRUE(GetVarint64(&view, &got).ok());
  EXPECT_EQ(got, UINT64_MAX);
}

TEST(VarintTest, ErrorsCarryByteOffsets) {
  // Truncated mid-continuation: the message names how far the decoder got.
  std::string buf("\x80\x80", 2);
  std::string_view view = buf;
  uint64_t got = 0;
  Status st = GetVarint64(&view, &got);
  ASSERT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_NE(st.message().find("after byte 2"), std::string::npos)
      << st.message();
}

TEST(VarintTest, FuzzRoundTripRandomValues) {
  std::mt19937_64 rng(42);
  std::string buf;
  std::vector<uint64_t> values;
  for (int i = 0; i < 5000; ++i) {
    // Bias toward small magnitudes (the on-disk common case) but cover the
    // full 64-bit range: pick a random bit width, then a value within it.
    int bits = 1 + static_cast<int>(rng() % 64);
    uint64_t v = rng() & (bits == 64 ? ~0ull : (1ull << bits) - 1);
    values.push_back(v);
    PutVarint64(&buf, v);
  }
  std::string_view view = buf;
  for (uint64_t expected : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(&view, &got).ok());
    ASSERT_EQ(got, expected);
  }
  EXPECT_TRUE(view.empty());
}

TEST(VarintTest, FuzzTruncatedMidListNeverCrashes) {
  // Encode a list, then decode from every truncation point: decode must
  // consume cleanly up to the cut and fail with Corruption exactly there.
  std::mt19937_64 rng(7);
  std::string buf;
  for (int i = 0; i < 64; ++i) PutVarint64(&buf, rng() >> (rng() % 64));
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    std::string_view view(buf.data(), cut);
    uint64_t got = 0;
    Status st = Status::OK();
    while (!view.empty() && (st = GetVarint64(&view, &got)).ok()) {
    }
    EXPECT_TRUE(view.empty()) << "decoder stalled at cut " << cut;
    // A clean cut between varints decodes fully; otherwise Corruption.
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kCorruption);
    }
  }
}

TEST(VarintTest, FuzzRandomBytesNeverCrash) {
  std::mt19937_64 rng(123);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string raw;
    size_t len = rng() % 16;
    for (size_t i = 0; i < len; ++i)
      raw.push_back(static_cast<char>(rng()));
    std::string_view view = raw;
    uint64_t g64 = 0;
    (void)GetVarint64(&view, &g64);
    view = raw;
    uint32_t g32 = 0;
    (void)GetVarint32(&view, &g32);
  }
}

TEST(VarintTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'x'));
  std::string_view view = buf;
  std::string a, b, c;
  ASSERT_TRUE(GetLengthPrefixed(&view, &a).ok());
  ASSERT_TRUE(GetLengthPrefixed(&view, &b).ok());
  ASSERT_TRUE(GetLengthPrefixed(&view, &c).ok());
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c, std::string(1000, 'x'));
  EXPECT_TRUE(view.empty());
}

TEST(VarintTest, LengthPrefixedTruncatedBody) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  buf.resize(3);
  std::string_view view = buf;
  std::string out;
  EXPECT_EQ(GetLengthPrefixed(&view, &out).code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace gks
