#ifndef GKS_SERVER_WIRE_CACHE_H_
#define GKS_SERVER_WIRE_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/hash.h"
#include "core/query.h"
#include "server/protocol.h"

namespace gks {

/// The server's one response cache: a byte-budgeted LRU of serialized
/// query answers (docs/PERFORMANCE.md "Response cache"). Plain, RT and
/// shard-worker servers consult it for every query request except
/// `explain`, whose stage timings are per-run diagnostics; a coordinator
/// keeps none. Caching lives here, not in the engine: the searchers are
/// pure functions of snapshot, query and options.
///
/// An answer is the response line without the request's `id`
/// (WireResponseBuilder::Query); each reply, hit or miss, gets its own
/// id from WireResponseBuilder::WithId. Only `ok` answers are stored. A
/// cached answer keeps the `elapsed_ms` measured when it was built.
///
/// Epoch-based invalidation: a reload or RT commit publishes a snapshot
/// with a new epoch, which changes every key; stale entries age out of
/// the LRU rather than being purged eagerly.
///
/// Thread safety: one mutex — hits are a map probe plus a splice, and
/// the payload copy-out happens under the lock only because entries
/// can be evicted by concurrent writers.
class WireResponseCache {
 public:
  /// `max_bytes` bounds the sum of stored key + answer bytes; inserts
  /// evict least-recently-used entries until the new one fits. An answer
  /// larger than the whole budget is simply not cached.
  explicit WireResponseCache(size_t max_bytes);

  WireResponseCache(const WireResponseCache&) = delete;
  WireResponseCache& operator=(const WireResponseCache&) = delete;

  /// The key of `request`'s answer on the snapshot at `epoch`: the
  /// normalized text of `query` (the parsed request query, so respellings
  /// share an entry) plus every field that shapes the answer — s, top,
  /// top_k, di, refine, plan, shard and di_contrib. Not the id.
  static std::string MakeKey(const Query& query, const WireRequest& request,
                             uint64_t epoch);

  /// Copies the cached answer into `*out` and refreshes its LRU slot.
  /// False when absent.
  bool Get(const std::string& key, std::string* out);

  /// Inserts or refreshes `answer` under `key`.
  void Put(const std::string& key, const std::string& answer);

  size_t bytes() const;
  size_t size() const;

 private:
  struct Entry {
    std::string key;
    std::string answer;
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
