#include "core/shard_merge.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace gks {

std::string EncodeDoubleBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)bits);
  return buf;
}

bool DecodeDoubleBits(const std::string& hex, double* value) {
  uint64_t bits = 0;
  if (!DecodeMaskBits(hex, &bits)) return false;
  std::memcpy(value, &bits, sizeof(bits));
  return true;
}

std::string EncodeMaskBits(uint64_t mask) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llx", (unsigned long long)mask);
  return buf;
}

bool DecodeMaskBits(const std::string& hex, uint64_t* mask) {
  if (hex.empty() || hex.size() > 16) return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long parsed = std::strtoull(hex.c_str(), &end, 16);
  if (errno != 0 || end != hex.c_str() + hex.size()) return false;
  *mask = parsed;
  return true;
}

MergedShardResult MergeShardResults(const Query& query,
                                    const SearchOptions& options,
                                    std::vector<ShardPartialResult> shards) {
  MergedShardResult merged;
  std::vector<Partial> partials(shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    ShardPartialResult& shard = shards[i];
    partials[i].nodes.reserve(shard.nodes.size());
    for (ShardResultNode& node : shard.nodes) {
      partials[i].nodes.push_back(std::move(node.node));
    }
    partials[i].merged_list_size = shard.merged_list_size;
    partials[i].candidate_count = shard.candidate_count;
    partials[i].plan.strategy = shard.plan;
    merged.epoch = std::max(merged.epoch, shard.epoch);
  }

  // A node's DI is the contribution list its shard resolved for it.
  MergedPartials result = MergePartials(
      query, options, std::move(partials),
      [&](NodeOrigin origin, const GksNode& node, DiAccumulator* acc) {
        const ShardResultNode& from =
            shards[origin.partial].nodes[origin.position];
        for (const DiContribution& contribution : from.di) {
          acc->Add(contribution.tag, contribution.value, node.rank,
                   [&] { return contribution.path; });
        }
      });
  merged.response = std::move(result.response);
  merged.doc_names.reserve(result.origins.size());
  merged.describes.reserve(result.origins.size());
  for (NodeOrigin origin : result.origins) {
    ShardResultNode& from = shards[origin.partial].nodes[origin.position];
    merged.doc_names.push_back(std::move(from.doc_name));
    merged.describes.push_back(std::move(from.describe));
  }
  return merged;
}

}  // namespace gks
