#include "core/di.h"

#include <algorithm>

#include "text/analyzer.h"

namespace gks {
namespace {

/// The owned-attribute walk: calls `fn(tag_name, value, attr_id)` for each
/// valued row in `node`'s subtree, in document order, whose deepest
/// self-or-ancestor entity is `node` and whose value repeats no query
/// term. At most `max_attrs_per_node` valued rows are scanned, owned or
/// not.
template <typename Fn>
void ForEachOwnedAttribute(const XmlIndex& index, const GksNode& node,
                           const Query& query, const DiOptions& options,
                           Fn&& fn) {
  DeweySpan entity = DeweySpan::Of(node.id);
  const NodeInfo* info = index.nodes.Find(entity);
  if (entity.size == 0 || info == nullptr || !info->is_entity()) return;
  size_t scanned = 0;
  index.nodes.ForEachValuedRow(entity, [&](size_t row, bool owned) {
    if (scanned++ == options.max_attrs_per_node) return false;
    if (!owned) return true;
    const NodeInfo& attr = index.nodes.InfoAt(row);
    const std::string& value = index.nodes.Value(attr.value_id);
    for (const std::string& term : text::Analyze(value)) {
      if (query.ContainsTerm(term)) return true;
    }
    fn(index.nodes.TagName(attr.tag_id), value, index.nodes.IdAt(row));
    return true;
  });
}

/// Tag names from the entity (a prefix of `attr_id` of `entity_size`
/// components) down to the attribute.
std::vector<std::string> AttributePath(const XmlIndex& index,
                                       uint32_t entity_size,
                                       DeweySpan attr_id) {
  std::vector<std::string> path;
  for (uint32_t len = entity_size; len <= attr_id.size; ++len) {
    const NodeInfo* info = index.nodes.Find(DeweySpan{attr_id.data, len});
    path.push_back(info != nullptr ? index.nodes.TagName(info->tag_id) : "?");
  }
  return path;
}

}  // namespace

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
                  const Query& query, const DiOptions& options,
                  DiAccumulator* acc) {
  const uint32_t entity_size = DeweySpan::Of(node.id).size;
  ForEachOwnedAttribute(
      index, node, query, options,
      [&](std::string_view tag, std::string_view value, DeweySpan attr_id) {
        acc->Add(tag, value, node.rank,
                 [&] { return AttributePath(index, entity_size, attr_id); });
      });
}

std::vector<DiContribution> NodeDiContributions(const XmlIndex& index,
                                                const GksNode& node,
                                                const Query& query,
                                                const DiOptions& options) {
  const uint32_t entity_size = DeweySpan::Of(node.id).size;
  std::vector<DiContribution> out;
  ForEachOwnedAttribute(
      index, node, query, options,
      [&](std::string_view tag, std::string_view value, DeweySpan attr_id) {
        out.push_back({std::string(tag), std::string(value),
                       AttributePath(index, entity_size, attr_id)});
      });
  return out;
}

std::vector<DiKeyword> DiscoverDi(const XmlIndex& index,
                                  const std::vector<GksNode>& nodes,
                                  const Query& query,
                                  const DiOptions& options) {
  DiAccumulator acc;
  for (const GksNode& node : nodes) {
    if (GivesDi(node)) AccumulateDi(index, node, query, options, &acc);
  }
  return std::move(acc).Take(options.top_m);
}

std::vector<std::vector<DiContribution>> ComputeDiContributions(
    const XmlIndex& index, const std::vector<GksNode>& nodes,
    const Query& query, const DiOptions& options) {
  std::vector<std::vector<DiContribution>> out(nodes.size());
  for (size_t n = 0; n < nodes.size(); ++n) {
    if (GivesDi(nodes[n])) {
      out[n] = NodeDiContributions(index, nodes[n], query, options);
    }
  }
  return out;
}

}  // namespace gks
