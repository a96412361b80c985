#include "common/lz.h"

#include <cstdint>
#include <random>
#include <string>

#include "common/varint.h"
#include "gtest/gtest.h"

namespace gks {
namespace {

std::string RoundTripOrDie(const std::string& input) {
  std::string compressed;
  LzCompress(input, &compressed);
  size_t declared = 0;
  EXPECT_TRUE(LzUncompressedSize(compressed, &declared).ok());
  EXPECT_EQ(declared, input.size());
  std::string out;
  Status st = LzDecompress(compressed, &out);
  EXPECT_TRUE(st.ok()) << st.message();
  return out;
}

TEST(LzTest, EmptyInput) {
  std::string compressed;
  LzCompress("", &compressed);
  EXPECT_EQ(compressed, std::string(1, '\0'));  // just the size varint
  std::string out;
  ASSERT_TRUE(LzDecompress(compressed, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(LzTest, ShortInputsBelowMinMatch) {
  for (const std::string& s : {std::string("a"), std::string("ab"),
                               std::string("abc"), std::string("\0\0\0", 3)}) {
    EXPECT_EQ(RoundTripOrDie(s), s);
  }
}

TEST(LzTest, RepetitiveInputCompresses) {
  std::string input;
  for (int i = 0; i < 500; ++i) input += "article|title|author|year|";
  std::string compressed;
  LzCompress(input, &compressed);
  EXPECT_LT(compressed.size(), input.size() / 4) << "repetition should shrink";
  std::string out;
  ASSERT_TRUE(LzDecompress(compressed, &out).ok());
  EXPECT_EQ(out, input);
}

TEST(LzTest, RunLengthOverlapCase) {
  // dist < len back-references are the RLE encoding; the decoder must copy
  // byte-by-byte to reproduce the run.
  std::string input(10000, 'x');
  EXPECT_EQ(RoundTripOrDie(input), input);
  input = "ab";
  for (int i = 0; i < 12; ++i) input += input;  // "abab..." 8192 chars
  EXPECT_EQ(RoundTripOrDie(input), input);
}

TEST(LzTest, MatchesBeyondWindowAreNotUsed) {
  // Two identical 1KiB chunks separated by > 64KiB of incompressible noise:
  // the second chunk cannot reference the first, but round-trip must hold.
  std::mt19937 rng(7);
  std::string chunk;
  for (int i = 0; i < 1024; ++i) chunk.push_back(char('a' + i % 26));
  std::string noise;
  for (int i = 0; i < (1 << 16) + 4096; ++i)
    noise.push_back(static_cast<char>(rng()));
  std::string input = chunk + noise + chunk;
  EXPECT_EQ(RoundTripOrDie(input), input);
}

TEST(LzTest, RandomBinaryRoundTrip) {
  std::mt19937 rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    size_t len = rng() % 50000;
    std::string input;
    input.reserve(len);
    // Mix random bytes with runs so both token kinds are exercised.
    while (input.size() < len) {
      if (rng() % 3 == 0) {
        input.append(rng() % 200, static_cast<char>(rng()));
      } else {
        input.push_back(static_cast<char>(rng()));
      }
    }
    EXPECT_EQ(RoundTripOrDie(input), input) << "trial " << trial;
  }
}

TEST(LzTest, DecompressAppendsToExistingOutput) {
  std::string compressed;
  LzCompress("hello", &compressed);
  std::string out = "prefix-";
  ASSERT_TRUE(LzDecompress(compressed, &out).ok());
  EXPECT_EQ(out, "prefix-hello");
}

TEST(LzTest, DeterministicOutput) {
  std::string input;
  for (int i = 0; i < 1000; ++i) input += "node" + std::to_string(i % 37);
  std::string a, b;
  LzCompress(input, &a);
  LzCompress(input, &b);
  EXPECT_EQ(a, b);
}

TEST(LzTest, TruncatedStreamsFailWithOffset) {
  std::string input;
  for (int i = 0; i < 300; ++i) input += "pattern-pattern-";
  std::string compressed;
  LzCompress(input, &compressed);
  // Every strict prefix must fail cleanly (never crash, never succeed).
  for (size_t cut = 0; cut < compressed.size(); ++cut) {
    std::string out;
    Status st = LzDecompress(compressed.substr(0, cut), &out);
    EXPECT_FALSE(st.ok()) << "prefix of " << cut << " bytes decoded";
  }
  std::string out;
  Status st = LzDecompress(compressed.substr(0, compressed.size() / 2), &out);
  EXPECT_NE(st.message().find("byte"), std::string::npos)
      << "error should carry an offset: " << st.message();
}

TEST(LzTest, RejectsBadBackReference) {
  // Hand-built stream: size=4, then a match token before any literals.
  std::string stream;
  stream.push_back(4);                 // uncompressed size
  stream.push_back((0 << 1) | 1);      // match, len = kMinMatch
  stream.push_back(1);                 // dist = 1, but nothing produced yet
  std::string out;
  Status st = LzDecompress(stream, &out);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("back-reference"), std::string::npos)
      << st.message();
}

TEST(LzTest, RejectsOutputLongerThanDeclared) {
  std::string stream;
  stream.push_back(2);       // declares 2 bytes
  stream.push_back(3 << 1);  // literal run of 3
  stream += "abc";
  std::string out;
  EXPECT_FALSE(LzDecompress(stream, &out).ok());
}

TEST(LzTest, RejectsOutputShorterThanDeclared) {
  std::string stream;
  stream.push_back(9);       // declares 9 bytes
  stream.push_back(1 << 1);  // literal run of 1
  stream += "a";
  std::string out;
  Status st = LzDecompress(stream, &out);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("short of declared"), std::string::npos)
      << st.message();
}

// The declared size comes from the file. A hostile header must be
// rejected before anything is sized from it, not die in the allocator.
TEST(LzTest, RejectsDeclaredSizeTheTokensCannotProduce) {
  std::string stream;
  PutVarint64(&stream, 1ull << 62);
  stream.push_back(5 << 1);  // literal run of 5
  stream += "hello";
  std::string out;
  Status st = LzDecompress(stream, &out);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_NE(st.message().find("declared size"), std::string::npos)
      << st.message();
}

TEST(LzTest, RejectsHugeMatchUnderHugeHeader) {
  std::string stream;
  PutVarint64(&stream, 1ull << 62);
  stream.push_back(4 << 1);  // literal run of 4
  stream += "abcd";
  PutVarint64(&stream, (((1ull << 40) - 4) << 1) | 1);  // 2^40-byte match
  PutVarint64(&stream, 4);
  std::string out;
  EXPECT_EQ(LzDecompress(stream, &out).code(), StatusCode::kCorruption);
}

// A match longer than any writer emits, under a header it would fill
// exactly: rejected by its length alone.
TEST(LzTest, RejectsMatchLongerThanTheWriterEmits) {
  const uint64_t len = 40000;
  std::string stream;
  PutVarint64(&stream, 4 + len);
  stream.push_back(4 << 1);  // literal run of 4
  stream += "abcd";
  PutVarint64(&stream, ((len - 4) << 1) | 1);
  PutVarint64(&stream, 4);
  std::string out;
  Status st = LzDecompress(stream, &out);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_NE(st.message().find("match longer"), std::string::npos)
      << st.message();
}

TEST(LzTest, FuzzMutatedStreamsNeverCrash) {
  std::string input;
  for (int i = 0; i < 200; ++i) input += "abcabcabc" + std::to_string(i);
  std::string compressed;
  LzCompress(input, &compressed);
  std::mt19937 rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = compressed;
    size_t flips = 1 + rng() % 4;
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng() % mutated.size()] ^= static_cast<char>(1 << (rng() % 8));
    }
    std::string out;
    Status st = LzDecompress(mutated, &out);  // ok either way; no crash/UB
    if (st.ok() && out == input) continue;    // mutation hit a don't-care bit
  }
}

}  // namespace
}  // namespace gks
