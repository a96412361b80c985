#include "core/di.h"

#include <algorithm>

namespace gks {
namespace {

/// The owned-attribute walk: calls `fn(tag_name, value, attr_row)` for
/// each valued row in `node`'s subtree, in document order, whose deepest
/// self-or-ancestor entity is `node` and whose value `filter` keeps. At
/// most kMaxValuedRowsPerNode valued rows are scanned, owned or not.
template <typename Fn>
void ForEachOwnedAttribute(const XmlIndex& index, const GksNode& node,
                           const DiTermFilter& filter, Fn&& fn) {
  DeweySpan entity = DeweySpan::Of(node.id);
  const uint32_t row = index.nodes.RowOf(entity);
  if (entity.size == 0 || row == NodeInfoTable::kNoRow ||
      !index.nodes.InfoAt(row).is_entity()) {
    return;
  }
  size_t scanned = 0;
  index.nodes.ForEachValuedRowUnder(row, [&](size_t attr_row, bool owned) {
    if (scanned++ == kMaxValuedRowsPerNode) return false;
    if (!owned) return true;
    const NodeInfo& attr = index.nodes.InfoAt(attr_row);
    if (filter.Drops(attr.value_id)) return true;
    fn(index.nodes.TagName(attr.tag_id), index.nodes.Value(attr.value_id),
       static_cast<uint32_t>(attr_row));
    return true;
  });
}

/// Tag names from the entity (`entity_size` components deep) down to the
/// attribute of row `attr_row`, found by parent rows; a level without a
/// row reads "?".
std::vector<std::string> AttributePath(const XmlIndex& index,
                                       uint32_t entity_size,
                                       uint32_t attr_row) {
  const NodeInfoTable& nodes = index.nodes;
  std::vector<std::string> path(nodes.IdAt(attr_row).size - entity_size + 1,
                                "?");
  for (uint32_t row = attr_row; row != NodeInfoTable::kNoRow;
       row = nodes.ParentRow(row)) {
    const uint32_t depth = nodes.IdAt(row).size;
    if (depth < entity_size) break;
    path[depth - entity_size] = nodes.TagName(nodes.InfoAt(row).tag_id);
  }
  return path;
}

}  // namespace

DiTermFilter::DiTermFilter(const NodeInfoTable& nodes, const Query& query)
    : nodes_(&nodes) {
  for (const QueryAtom& atom : query.atoms()) {
    for (const std::string& term : atom.terms) {
      const uint32_t id = nodes.FindValueTerm(term);
      if (id != NodeInfoTable::kNoTerm) query_terms_.push_back(id);
    }
  }
}

std::string DiKeyword::ToString() const {
  std::string out = "<";
  if (!path.empty()) {
    // Use the attribute node's tag as the semantic label, prefixed with
    // the LCE tag when the path is deeper than one hop.
    if (path.size() > 2) {
      for (size_t i = 0; i + 1 < path.size(); ++i) {
        out += path[i];
        out += ": ";
      }
    } else {
      out += path.back();
      out += ": ";
    }
  }
  out += value;
  out += ">";
  return out;
}

std::vector<DiKeyword> DiAccumulator::Take(size_t top_m) && {
  std::vector<DiKeyword> out;
  out.reserve(keywords_.size());
  for (auto& [key, di] : keywords_) {
    (void)key;
    out.push_back(std::move(di));
  }
  std::sort(out.begin(), out.end(), [](const DiKeyword& a, const DiKeyword& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    if (a.value != b.value) return a.value < b.value;
    return a.path < b.path;
  });
  if (out.size() > top_m) out.resize(top_m);
  return out;
}

void AccumulateDi(const XmlIndex& index, const GksNode& node,
                  const DiTermFilter& filter, DiAccumulator* acc) {
  const uint32_t entity_size = DeweySpan::Of(node.id).size;
  ForEachOwnedAttribute(
      index, node, filter,
      [&](std::string_view tag, std::string_view value, uint32_t attr_row) {
        acc->Add(tag, value, node.rank,
                 [&] { return AttributePath(index, entity_size, attr_row); });
      });
}

std::vector<DiContribution> NodeDiContributions(const XmlIndex& index,
                                                const GksNode& node,
                                                const DiTermFilter& filter) {
  const uint32_t entity_size = DeweySpan::Of(node.id).size;
  std::vector<DiContribution> out;
  ForEachOwnedAttribute(
      index, node, filter,
      [&](std::string_view tag, std::string_view value, uint32_t attr_row) {
        out.push_back({std::string(tag), std::string(value),
                       AttributePath(index, entity_size, attr_row)});
      });
  return out;
}

std::vector<DiKeyword> DiscoverDi(const XmlIndex& index,
                                  const std::vector<GksNode>& nodes,
                                  const Query& query,
                                  const DiOptions& options) {
  const DiTermFilter filter(index.nodes, query);
  DiAccumulator acc;
  for (const GksNode& node : nodes) {
    if (GivesDi(node)) AccumulateDi(index, node, filter, &acc);
  }
  return std::move(acc).Take(options.top_m);
}

std::vector<std::vector<DiContribution>> ComputeDiContributions(
    const XmlIndex& index, const std::vector<GksNode>& nodes,
    const Query& query, const DiOptions&) {
  const DiTermFilter filter(index.nodes, query);
  std::vector<std::vector<DiContribution>> out(nodes.size());
  for (size_t n = 0; n < nodes.size(); ++n) {
    if (GivesDi(nodes[n])) {
      out[n] = NodeDiContributions(index, nodes[n], filter);
    }
  }
  return out;
}

}  // namespace gks
