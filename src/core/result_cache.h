#ifndef GKS_CORE_RESULT_CACHE_H_
#define GKS_CORE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "core/searcher.h"

namespace gks {

/// Sharded LRU cache of full search responses, keyed by the *normalized*
/// query text (the analyzed atom terms + tag constraints, so "XML  Data"
/// and "xml data" share an entry), the complete SearchOptions, and the
/// index epoch.
///
/// Epoch-based invalidation: every load of an index file, real-time
/// snapshot and schema reconciliation stamps a new `XmlIndex::epoch`,
/// which changes every key derived from that index — stale entries are
/// never *served*; they age out of the LRU instead of being eagerly
/// purged, which keeps invalidation O(1) and lock-free for writers.
///
/// Thread safety: each shard is guarded by its own mutex; Get/Put from any
/// number of threads is safe (SearchBatch workers share one cache).
/// Hits/misses/evictions feed `gks.search.cache.{hits,misses,evictions}_total`
/// (docs/OBSERVABILITY.md).
class QueryResultCache {
 public:
  /// `capacity` bounds the total number of cached responses across all
  /// shards (rounded up to a multiple of the shard count; at least one
  /// entry per shard). `shards` must be > 0.
  explicit QueryResultCache(size_t capacity, size_t shards = 8);

  QueryResultCache(const QueryResultCache&) = delete;
  QueryResultCache& operator=(const QueryResultCache&) = delete;

  /// Composes the cache key fingerprint for a normalized query against an
  /// index epoch under `options`.
  static std::string MakeKey(const std::string& normalized_query,
                             const SearchOptions& options, uint64_t epoch);

  /// Copies the cached response into `*out` and refreshes its LRU slot.
  /// False (and a miss count) when absent.
  bool Get(const std::string& key, SearchResponse* out);

  /// Inserts or refreshes `response` under `key`, evicting the shard's
  /// least-recently-used entry when full.
  void Put(const std::string& key, const SearchResponse& response);

  /// Drops every entry (tests and operational reset).
  void Clear();

  size_t capacity() const { return shards_.size() * per_shard_capacity_; }
  size_t size() const;

 private:
  struct Entry {
    std::string key;
    SearchResponse response;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator,
                       TransparentStringHash, std::equal_to<>>
        map;
  };

  Shard& ShardFor(const std::string& key);

  size_t per_shard_capacity_;
  std::vector<Shard> shards_;
};

}  // namespace gks

#endif  // GKS_CORE_RESULT_CACHE_H_
