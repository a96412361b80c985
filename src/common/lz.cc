#include "common/lz.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/varint.h"

namespace gks {
namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 0x7fff;      // longest match; decoders reject more
constexpr size_t kWindow = 1u << 16;      // back-reference reach
constexpr size_t kHashBits = 15;
constexpr size_t kHashSize = 1u << kHashBits;

inline uint32_t Hash4(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return (v * 2654435761u) >> (32 - kHashBits);
}

inline void EmitLiterals(std::string_view src, size_t begin, size_t end,
                         std::string* dst) {
  while (begin < end) {
    // Cap literal runs so the run-length varint stays small and the
    // decoder can sanity-check against the remaining input.
    size_t n = std::min<size_t>(end - begin, 1u << 20);
    PutVarint64(dst, static_cast<uint64_t>(n) << 1);
    dst->append(src.data() + begin, n);
    begin += n;
  }
}

}  // namespace

void LzCompress(std::string_view src, std::string* dst) {
  PutVarint64(dst, src.size());
  if (src.empty()) return;
  const uint8_t* base = reinterpret_cast<const uint8_t*>(src.data());
  const size_t n = src.size();

  // Chained hash matcher: head[h] = most recent position whose 4-byte hash
  // is h, prev[pos] = the previous position with the same hash. Walking
  // the chain (bounded by kMaxChain) finds the longest nearby match
  // instead of settling for the most recent one; most-recent-first order
  // means ties resolve to the shortest distance, i.e. the smallest varint.
  constexpr size_t kMaxChain = 64;
  std::vector<uint32_t> head(kHashSize, UINT32_MAX);
  std::vector<uint32_t> prev(n, UINT32_MAX);

  size_t literal_start = 0;
  size_t i = 0;
  while (i + kMinMatch <= n) {
    const uint32_t h = Hash4(base + i);
    const size_t limit = std::min(n - i, kMaxMatch);
    size_t best_len = 0;
    size_t best_pos = 0;
    uint32_t candidate = head[h];
    for (size_t depth = 0;
         candidate != UINT32_MAX && i - candidate <= kWindow &&
         depth < kMaxChain;
         candidate = prev[candidate], ++depth) {
      // A longer match must agree at best_len; checking that byte first
      // rejects most shorter candidates in one probe.
      if (best_len > 0 && (best_len >= limit ||
                           base[candidate + best_len] != base[i + best_len])) {
        continue;
      }
      if (std::memcmp(base + candidate, base + i, kMinMatch) != 0) continue;
      size_t len = kMinMatch;
      while (len < limit && base[candidate + len] == base[i + len]) ++len;
      if (len > best_len) {
        best_len = len;
        best_pos = candidate;
        if (len >= limit) break;
      }
    }
    prev[i] = head[h];
    head[h] = static_cast<uint32_t>(i);
    if (best_len >= kMinMatch) {
      EmitLiterals(src, literal_start, i, dst);
      PutVarint64(dst,
                  (static_cast<uint64_t>(best_len - kMinMatch) << 1) | 1);
      PutVarint64(dst, i - best_pos);
      // Thread every matched position into the chains so later matches can
      // land inside this region.
      size_t match_end = i + best_len;
      for (++i; i + kMinMatch <= match_end; ++i) {
        uint32_t mh = Hash4(base + i);
        prev[i] = head[mh];
        head[mh] = static_cast<uint32_t>(i);
      }
      i = match_end;
      literal_start = i;
    } else {
      ++i;
    }
  }
  EmitLiterals(src, literal_start, n, dst);
}

Status LzDecompress(std::string_view src, std::string* out) {
  const size_t total = src.size();
  auto offset = [&](std::string_view rest) { return total - rest.size(); };

  uint64_t raw_size = 0;
  GKS_RETURN_IF_ERROR(GetVarint64(&src, &raw_size));
  // Each byte of the token stream yields at most kMaxMatch bytes (a
  // literal byte yields one; a match, at most kMaxMatch bytes, takes at
  // least two), so a larger declared size is corrupt.
  if (raw_size / kMaxMatch > src.size()) {
    return Status::Corruption("lz declared size " + std::to_string(raw_size) +
                              " exceeds what " + std::to_string(src.size()) +
                              " bytes of tokens can produce");
  }
  // The header is untrusted until the tokens fill it, so the output is
  // pre-sized to at most a few times the stream, which is already in
  // memory (index sections decode to under three times their size).
  const size_t out_base = out->size();
  out->reserve(out_base + std::min<uint64_t>(raw_size, 4 * src.size()));
  while (!src.empty()) {
    uint64_t token = 0;
    GKS_RETURN_IF_ERROR(GetVarint64(&src, &token));
    if ((token & 1) == 0) {
      uint64_t len = token >> 1;
      if (len > src.size()) {
        return Status::Corruption("lz literal run truncated at byte " +
                                  std::to_string(offset(src)));
      }
      out->append(src.data(), len);
      src.remove_prefix(len);
    } else {
      // No writer emits a match longer than kMaxMatch.
      if ((token >> 1) > kMaxMatch - kMinMatch) {
        return Status::Corruption("lz match longer than " +
                                  std::to_string(kMaxMatch) +
                                  " bytes at byte " +
                                  std::to_string(offset(src)));
      }
      const size_t len = (token >> 1) + kMinMatch;
      uint64_t dist = 0;
      GKS_RETURN_IF_ERROR(GetVarint64(&src, &dist));
      const size_t produced = out->size() - out_base;
      if (dist == 0 || dist > produced) {
        return Status::Corruption("lz back-reference out of range at byte " +
                                  std::to_string(offset(src)));
      }
      // A match past the declared size fails before it is copied.
      if (len > raw_size - produced) {
        return Status::Corruption(
            "lz output exceeds declared size at byte " +
            std::to_string(offset(src)));
      }
      // Byte by byte: with dist < len the copy reads bytes it has just
      // written, which is how runs are encoded.
      const size_t to = out->size();
      out->resize(to + len);
      char* bytes = out->data();
      for (size_t j = 0; j < len; ++j) bytes[to + j] = bytes[to - dist + j];
    }
    if (out->size() - out_base > raw_size) {
      return Status::Corruption(
          "lz output exceeds declared size at byte " +
          std::to_string(offset(src)));
    }
  }
  if (out->size() - out_base != raw_size) {
    return Status::Corruption(
        "lz stream ended short of declared size (" +
        std::to_string(out->size() - out_base) + " of " +
        std::to_string(raw_size) + " bytes)");
  }
  return Status::OK();
}

Status LzUncompressedSize(std::string_view src, size_t* size) {
  uint64_t raw_size = 0;
  GKS_RETURN_IF_ERROR(GetVarint64(&src, &raw_size));
  *size = raw_size;
  return Status::OK();
}

}  // namespace gks
