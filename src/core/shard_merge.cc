#include "core/shard_merge.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <utility>

#include "core/refinement.h"

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

bool RanksBefore(const GksNode& a, const GksNode& b) {
  if (a.rank != b.rank) return a.rank > b.rank;
  if (a.keyword_count != b.keyword_count) {
    return a.keyword_count > b.keyword_count;
  }
  return a.id < b.id;
}

MergedShardResult MergeShardResults(const Query& query,
                                    const SearchOptions& options,
                                    std::vector<ShardPartialResult> partials) {
  MergedShardResult merged;
  SearchResponse& response = merged.response;
  response.effective_s =
      std::min<uint32_t>(options.s == 0 ? static_cast<uint32_t>(query.size())
                                        : options.s,
                         static_cast<uint32_t>(query.size()));

  std::vector<ShardResultNode> nodes;
  size_t dominant_size = 0;
  bool have_plan = false;
  for (ShardPartialResult& partial : partials) {
    for (ShardResultNode& node : partial.nodes) {
      nodes.push_back(std::move(node));
    }
    response.merged_list_size += partial.merged_list_size;
    response.candidate_count += partial.candidate_count;
    if (!have_plan || partial.merged_list_size > dominant_size) {
      // Dominant-partial rule, as in SegmentSearcher: the shard whose
      // posting statistics dwarf the others stands for the query's plan.
      response.plan.strategy = partial.plan;
      dominant_size = partial.merged_list_size;
      have_plan = true;
    }
    merged.epoch = std::max(merged.epoch, partial.epoch);
  }

  // The searcher's exact rank order, re-established globally. Dewey ids
  // are globally unique (document-range sharding), so the comparator is
  // a total order and the result is independent of shard arrival order.
  std::sort(nodes.begin(), nodes.end(),
            [](const ShardResultNode& a, const ShardResultNode& b) {
              return RanksBefore(a.node, b.node);
            });
  if (options.top_k > 0 && nodes.size() > options.top_k) {
    nodes.resize(options.top_k);
  }

  for (const ShardResultNode& node : nodes) {
    response.nodes.push_back(node.node);
    if (node.node.is_lce) ++response.lce_count;
  }

  if (options.discover_di) {
    // Replay of DiscoverDi's accumulation over the wire contributions:
    // merged rank order, first contributor defines the path, weight sums
    // the exact (bit-pattern) ranks — identical float addition order and
    // operands to the single-index run.
    std::map<std::pair<std::string, std::string>, DiKeyword> accumulated;
    for (const ShardResultNode& node : nodes) {
      for (const DiContribution& contribution : node.di) {
        DiKeyword& di = accumulated[{contribution.tag, contribution.value}];
        if (di.support == 0) {
          di.value = contribution.value;
          di.path = contribution.path;
        }
        di.weight += node.node.rank;
        ++di.support;
      }
    }
    response.insights.reserve(accumulated.size());
    for (auto& [key, di] : accumulated) {
      (void)key;
      response.insights.push_back(std::move(di));
    }
    // Same total order as DiscoverDi: the path leg breaks (weight, value)
    // ties deterministically across keying schemes.
    std::sort(response.insights.begin(), response.insights.end(),
              [](const DiKeyword& a, const DiKeyword& b) {
                if (a.weight != b.weight) return a.weight > b.weight;
                if (a.value != b.value) return a.value < b.value;
                return a.path < b.path;
              });
    if (response.insights.size() > options.di_top_m) {
      response.insights.resize(options.di_top_m);
    }
  }
  if (options.suggest_refinements) {
    response.refinements =
        SuggestRefinements(query, response.nodes, response.insights);
  }
  if (options.max_results > 0 && nodes.size() > options.max_results) {
    nodes.resize(options.max_results);
    response.nodes.resize(options.max_results);
  }

  merged.doc_names.reserve(nodes.size());
  merged.describes.reserve(nodes.size());
  for (ShardResultNode& node : nodes) {
    merged.doc_names.push_back(std::move(node.doc_name));
    merged.describes.push_back(std::move(node.describe));
  }
  return merged;
}

}  // namespace gks
