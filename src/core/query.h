#ifndef GKS_CORE_QUERY_H_
#define GKS_CORE_QUERY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace gks {

/// One query keyword. A keyword is either a single term or a quoted phrase
/// ("Peter Buneman") whose analyzed tokens must all occur at the same XML
/// node — the paper treats an author name as one keyword (Example 2).
///
/// A keyword may carry a tag constraint, written `tag:keyword` or
/// `tag:"multi word"`: the occurrence then only counts when its directly
/// containing element has that tag. This resolves the ambiguity the paper
/// highlights ("in a different context, 2001 could be a street number"):
/// `year:2001` matches only <year> elements.
struct QueryAtom {
  std::string raw;                  // as typed, quotes removed
  std::vector<std::string> terms;   // analyzed tokens (non-empty)
  std::string tag_constraint;       // analyzed tag, empty if unconstrained
};

/// A parsed keyword query Q = {k1, ..., kn}. At most 64 atoms are allowed
/// so subtree keyword sets fit in a uint64_t mask.
class Query {
 public:
  /// Parses `text`: whitespace-separated keywords; double quotes group a
  /// phrase. Keywords whose every token is a stop word are dropped.
  /// Fails if no keyword survives or more than 64 do.
  static Result<Query> Parse(std::string_view text);

  /// Builds a query from pre-split keywords (each may be a phrase).
  static Result<Query> FromKeywords(const std::vector<std::string>& keywords);

  const std::vector<QueryAtom>& atoms() const { return atoms_; }
  size_t size() const { return atoms_.size(); }

  /// Mask with one bit per atom, all set.
  uint64_t full_mask() const {
    return atoms_.size() >= 64 ? ~0ull : (1ull << atoms_.size()) - 1;
  }

  /// Human-readable form: keywords space-separated, phrases quoted.
  std::string ToString() const;

 private:
  std::vector<QueryAtom> atoms_;
};

}  // namespace gks

#endif  // GKS_CORE_QUERY_H_
