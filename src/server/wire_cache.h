#ifndef GKS_SERVER_WIRE_CACHE_H_
#define GKS_SERVER_WIRE_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/hash.h"

namespace gks {

/// Byte-budgeted LRU of fully serialized shard-mode response lines,
/// keyed by the raw request line plus the serving snapshot's epoch.
///
/// Why a second cache above `QueryResultCache`: a shard partial ships
/// *every* matching node with its lossless `rank_bits` and keyword mask
/// plus the dictionary-coded DI contributions, so the coordinator can
/// reproduce the single-index answer bit-for-bit (docs/DISTRIBUTED.md);
/// describe text travels only on the partial's first `top` nodes. For a
/// busy query that still runs past a hundred kilobytes, and re-deriving
/// the DI contributions plus re-serializing the JSON costs more than
/// the (cached) search itself. The coordinator builds its downstream
/// line canonically and without an `id`, so the raw line is a complete
/// key and the stored bytes are reusable verbatim.
///
/// Only `ok` responses are stored, and callers must skip requests that
/// carry an `id` (the echo would be wrong for the next caller) or
/// `explain` (stage timings are per-run diagnostics). `elapsed_ms`
/// inside a cached line is frozen at build time; shard partials
/// document that field as diagnostic only and the coordinator discards
/// it when parsing.
///
/// Epoch-based invalidation as in QueryResultCache: a reload or RT
/// commit bumps the epoch, which changes every key; stale entries age
/// out of the LRU rather than being purged eagerly.
///
/// Thread safety: one mutex — hits are a map probe plus a splice, and
/// the payload copy-out happens under the lock only because entries
/// can be evicted by concurrent writers.
class WireResponseCache {
 public:
  /// `max_bytes` bounds the sum of stored key + line bytes; inserts
  /// evict least-recently-used entries until the new one fits. A line
  /// larger than the whole budget is simply not cached.
  explicit WireResponseCache(size_t max_bytes);

  WireResponseCache(const WireResponseCache&) = delete;
  WireResponseCache& operator=(const WireResponseCache&) = delete;

  static std::string MakeKey(std::string_view request_line, uint64_t epoch);

  /// Copies the cached response line into `*out` and refreshes its LRU
  /// slot. False when absent.
  bool Get(const std::string& key, std::string* out);

  /// Inserts or refreshes `line` under `key`.
  void Put(const std::string& key, const std::string& line);

  size_t bytes() const;
  size_t size() const;

 private:
  struct Entry {
    std::string key;
    std::string line;
  };

  mutable std::mutex mu_;
  size_t max_bytes_;
  size_t bytes_ = 0;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator,
                     TransparentStringHash, std::equal_to<>>
      map_;
};

}  // namespace gks

#endif  // GKS_SERVER_WIRE_CACHE_H_
