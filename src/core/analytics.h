#ifndef GKS_CORE_ANALYTICS_H_
#define GKS_CORE_ANALYTICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/lce.h"
#include "index/xml_index.h"

namespace gks {

/// Faceted / aggregate analytics over a GKS query response — the paper's
/// concluding research direction ("extend GKS to enable analytics over raw
/// XML data"). All computations are driven by the same attribute directory
/// DI uses: the values owned by the response's LCE nodes.

/// One value of a facet, with how many response nodes expose it and the
/// summed rank of those nodes.
struct FacetBucket {
  std::string value;
  uint32_t count = 0;
  double rank_mass = 0.0;
};

/// All buckets for one attribute tag (e.g. facet "year" over a DBLP
/// response: {"2001": 12, "1998": 9, ...}).
struct Facet {
  std::string tag;
  std::vector<FacetBucket> buckets;  // sorted by count desc
};

struct FacetOptions {
  size_t max_facets = 8;
  size_t max_buckets_per_facet = 10;
};

/// Groups the attribute values owned by the response's LCE nodes by tag.
std::vector<Facet> ComputeFacets(const XmlIndex& index,
                                 const std::vector<GksNode>& nodes,
                                 const FacetOptions& options = {});

/// Aggregate statistics over the numeric values of one attribute tag among
/// the response's LCE nodes (e.g. AVG(year) of the matching articles).
struct NumericSummary {
  uint64_t count = 0;   // values that parsed as numbers
  uint64_t skipped = 0; // values that did not
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double sum = 0.0;
};

/// Fails with NotFound if `tag` names no attribute in the response.
Result<NumericSummary> AggregateNumeric(const XmlIndex& index,
                                        const std::vector<GksNode>& nodes,
                                        std::string_view tag);

/// Equi-width histogram over a numeric attribute of the response.
struct HistogramBucket {
  double lo = 0.0;
  double hi = 0.0;
  uint64_t count = 0;
};

Result<std::vector<HistogramBucket>> NumericHistogram(
    const XmlIndex& index, const std::vector<GksNode>& nodes,
    std::string_view tag, size_t buckets);

}  // namespace gks

#endif  // GKS_CORE_ANALYTICS_H_
