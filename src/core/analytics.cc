#include "core/analytics.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>

#include "core/di.h"

namespace gks {
namespace {

// Calls f(node, tag_id, value_id) for every attribute value owned by an
// LCE node of the response (same ownership rule as DI: the value's lowest
// entity ancestor is the node). At most kMaxValuedRowsPerNode valued rows
// are scanned per node, owned or not.
template <typename F>
void ForEachOwnedValue(const XmlIndex& index,
                       const std::vector<GksNode>& nodes, F f) {
  for (const GksNode& node : nodes) {
    if (!node.is_lce) continue;
    size_t scanned = 0;
    index.nodes.ForEachValuedRow(
        DeweySpan::Of(node.id), [&](size_t row, bool owned) {
          if (scanned++ == kMaxValuedRowsPerNode) return false;
          const NodeInfo& info = index.nodes.InfoAt(row);
          if (owned) f(node, info.tag_id, info.value_id);
          return true;
        });
  }
}

bool ParseNumber(const std::string& text, double* value) {
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return end != text.c_str() && end != nullptr && *end == '\0';
}

}  // namespace

std::vector<Facet> ComputeFacets(const XmlIndex& index,
                                 const std::vector<GksNode>& nodes,
                                 const FacetOptions& options) {
  // tag -> value -> bucket
  std::map<uint32_t, std::map<uint32_t, FacetBucket>> grouped;
  ForEachOwnedValue(index, nodes,
                    [&](const GksNode& node, uint32_t tag, uint32_t value) {
                      FacetBucket& bucket = grouped[tag][value];
                      if (bucket.count == 0) {
                        bucket.value = index.nodes.Value(value);
                      }
                      ++bucket.count;
                      bucket.rank_mass += node.rank;
                    });

  std::vector<Facet> facets;
  for (auto& [tag, buckets] : grouped) {
    Facet facet;
    facet.tag = index.nodes.TagName(tag);
    for (auto& [value_id, bucket] : buckets) {
      (void)value_id;
      facet.buckets.push_back(std::move(bucket));
    }
    std::sort(facet.buckets.begin(), facet.buckets.end(),
              [](const FacetBucket& a, const FacetBucket& b) {
                if (a.count != b.count) return a.count > b.count;
                return a.value < b.value;
              });
    if (facet.buckets.size() > options.max_buckets_per_facet) {
      facet.buckets.resize(options.max_buckets_per_facet);
    }
    facets.push_back(std::move(facet));
  }
  // Most informative facets (highest total count) first.
  std::sort(facets.begin(), facets.end(), [](const Facet& a, const Facet& b) {
    uint64_t ta = 0, tb = 0;
    for (const FacetBucket& bucket : a.buckets) ta += bucket.count;
    for (const FacetBucket& bucket : b.buckets) tb += bucket.count;
    if (ta != tb) return ta > tb;
    return a.tag < b.tag;
  });
  if (facets.size() > options.max_facets) facets.resize(options.max_facets);
  return facets;
}

namespace {

// Collects the parsed numeric values of `tag` across the response.
Result<std::vector<double>> NumericValues(const XmlIndex& index,
                                          const std::vector<GksNode>& nodes,
                                          std::string_view tag,
                                          uint64_t* skipped) {
  uint32_t tag_id = 0;
  if (!index.nodes.FindTag(tag, &tag_id)) {
    return Status::NotFound("unknown attribute tag: " + std::string(tag));
  }
  std::vector<double> values;
  *skipped = 0;
  ForEachOwnedValue(index, nodes,
                    [&](const GksNode&, uint32_t t, uint32_t value_id) {
                      if (t != tag_id) return;
                      double value = 0;
                      if (ParseNumber(index.nodes.Value(value_id), &value)) {
                        values.push_back(value);
                      } else {
                        ++*skipped;
                      }
                    });
  if (values.empty() && *skipped == 0) {
    return Status::NotFound("attribute '" + std::string(tag) +
                            "' does not occur in the response");
  }
  return values;
}

}  // namespace

Result<NumericSummary> AggregateNumeric(const XmlIndex& index,
                                        const std::vector<GksNode>& nodes,
                                        std::string_view tag) {
  NumericSummary summary;
  GKS_ASSIGN_OR_RETURN(std::vector<double> values,
                       NumericValues(index, nodes, tag, &summary.skipped));
  summary.count = values.size();
  if (!values.empty()) {
    summary.min = std::numeric_limits<double>::infinity();
    summary.max = -std::numeric_limits<double>::infinity();
    for (double value : values) {
      summary.min = std::min(summary.min, value);
      summary.max = std::max(summary.max, value);
      summary.sum += value;
    }
    summary.mean = summary.sum / static_cast<double>(values.size());
  }
  return summary;
}

Result<std::vector<HistogramBucket>> NumericHistogram(
    const XmlIndex& index, const std::vector<GksNode>& nodes,
    std::string_view tag, size_t buckets) {
  if (buckets == 0) {
    return Status::InvalidArgument("histogram needs at least one bucket");
  }
  uint64_t skipped = 0;
  GKS_ASSIGN_OR_RETURN(std::vector<double> values,
                       NumericValues(index, nodes, tag, &skipped));
  if (values.empty()) {
    return Status::NotFound("no numeric values for histogram");
  }
  double lo = *std::min_element(values.begin(), values.end());
  double hi = *std::max_element(values.begin(), values.end());
  double width = (hi - lo) / static_cast<double>(buckets);
  if (width <= 0) width = 1.0;

  std::vector<HistogramBucket> histogram(buckets);
  for (size_t i = 0; i < buckets; ++i) {
    histogram[i].lo = lo + width * static_cast<double>(i);
    histogram[i].hi = histogram[i].lo + width;
  }
  for (double value : values) {
    size_t slot = static_cast<size_t>((value - lo) / width);
    if (slot >= buckets) slot = buckets - 1;  // hi boundary inclusive
    ++histogram[slot].count;
  }
  return histogram;
}

}  // namespace gks
