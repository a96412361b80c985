#include "core/shard_merge.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <utility>

namespace gks {

namespace {

/// Lowercase hex of `value`, left-padded with zeros to `min_digits`.
std::string Hex(uint64_t value, size_t min_digits) {
  static constexpr char kDigits[] = "0123456789abcdef";
  char buf[16];
  size_t begin = sizeof(buf);
  do {
    buf[--begin] = kDigits[value & 15];
    value >>= 4;
  } while (value != 0 || sizeof(buf) - begin < min_digits);
  return std::string(buf + begin, sizeof(buf) - begin);
}

}  // namespace

std::string EncodeDoubleBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return Hex(bits, 16);
}

bool DecodeDoubleBits(std::string_view hex, double* value) {
  uint64_t bits = 0;
  if (!DecodeMaskBits(hex, &bits)) return false;
  std::memcpy(value, &bits, sizeof(bits));
  return true;
}

std::string EncodeMaskBits(uint64_t mask) { return Hex(mask, 1); }

bool DecodeMaskBits(std::string_view hex, uint64_t* mask) {
  // 1-16 hex digits and nothing else: no sign, no "0x", no whitespace.
  if (hex.empty() || hex.size() > 16) return false;
  const char* end = hex.data() + hex.size();
  uint64_t parsed = 0;
  auto [ptr, ec] = std::from_chars(hex.data(), end, parsed, 16);
  if (ec != std::errc() || ptr != end) return false;
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
