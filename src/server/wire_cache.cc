#include "server/wire_cache.h"

#include "core/searcher.h"

namespace gks {

WireResponseCache::WireResponseCache(size_t max_bytes)
    : max_bytes_(max_bytes) {}

std::string WireResponseCache::MakeKey(const Query& query,
                                       const WireRequest& request,
                                       uint64_t epoch) {
  const SearchOptions& options = request.options;
  // A shard partial moves `top` from max_results to describe_top, so the
  // pair covers `top` in both modes.
  const uint64_t fields[] = {options.s,
                             options.max_results,
                             request.describe_top,
                             options.top_k,
                             options.di_top_m,
                             options.suggest_refinements,
                             static_cast<uint64_t>(options.plan),
                             request.shard,
                             request.want_di_contrib,
                             epoch};
  std::string key = NormalizedQueryText(query);
  for (uint64_t field : fields) {
    key.push_back('\x1f');  // cannot occur in analyzed query text
    key.append(std::to_string(field));
  }
  return key;
}

bool WireResponseCache::Get(const std::string& key, std::string* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second);
  *out = it->second->answer;
  return true;
}

void WireResponseCache::Put(const std::string& key,
                            const std::string& answer) {
  size_t cost = key.size() + answer.size();
  if (cost > max_bytes_) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    bytes_ -= it->second->key.size() + it->second->answer.size();
    bytes_ += cost;
    it->second->answer = answer;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, answer});
    map_[key] = lru_.begin();
    bytes_ += cost;
  }
  while (bytes_ > max_bytes_ && !lru_.empty()) {
    Entry& victim = lru_.back();
    bytes_ -= victim.key.size() + victim.answer.size();
    map_.erase(victim.key);
    lru_.pop_back();
  }
}

size_t WireResponseCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

size_t WireResponseCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace gks
