#include "core/chunk.h"

#include <algorithm>
#include <map>
#include <vector>

namespace gks {
namespace {

using ComponentVec = std::vector<uint32_t>;

// Leaves to build: sorted unique Dewey ids within the chunk root.
std::vector<ComponentVec> CollectLeafIds(const XmlIndex& index,
                                         const MergedList& sl,
                                         DeweySpan root, size_t max_leaves) {
  std::vector<ComponentVec> leaves;

  // Matched keyword occurrences inside the subtree.
  auto [begin, end] = sl.SubtreeRange(root);
  for (size_t i = begin; i < end && leaves.size() < max_leaves; ++i) {
    DeweySpan id = sl.IdAt(i);
    leaves.emplace_back(id.data, id.data + id.size);
  }

  // Attribute leaves owned by the node (no deeper entity on the path) —
  // the context Figure 2(b) shows (course names etc.).
  auto [abegin, aend] = index.attributes.SubtreeRange(root);
  for (size_t i = abegin; i < aend && leaves.size() < max_leaves; ++i) {
    DeweySpan id = index.attributes.IdAt(i);
    bool intercepted = false;
    for (uint32_t len = id.size; len > root.size; --len) {
      const NodeInfo* info = index.nodes.Find(DeweySpan{id.data, len});
      if (info != nullptr && info->is_entity()) {
        intercepted = true;
        break;
      }
    }
    if (!intercepted) leaves.emplace_back(id.data, id.data + id.size);
  }

  std::sort(leaves.begin(), leaves.end());
  leaves.erase(std::unique(leaves.begin(), leaves.end()), leaves.end());
  return leaves;
}

}  // namespace

xml::DomDocument ChunkBuilder::Build(const GksNode& node,
                                     const Options& options) const {
  DeweySpan root_span = DeweySpan::Of(node.id);
  const NodeInfo* root_info = index_.nodes.Find(root_span);
  auto root = xml::DomNode::Element(
      root_info != nullptr ? index_.nodes.TagName(root_info->tag_id) : "node");

  std::vector<ComponentVec> leaves =
      CollectLeafIds(index_, sl_, root_span, options.max_leaves);

  // Materialize each leaf, creating intermediate elements lazily; `made`
  // maps a Dewey prefix to its DomNode.
  std::map<ComponentVec, xml::DomNode*> made;
  ComponentVec root_components(root_span.data,
                               root_span.data + root_span.size);
  made[root_components] = root.get();

  for (const ComponentVec& leaf : leaves) {
    xml::DomNode* parent = root.get();
    ComponentVec prefix = root_components;
    for (size_t depth = root_components.size(); depth <= leaf.size();
         ++depth) {
      if (depth > root_components.size()) {
        prefix.push_back(leaf[depth - 1]);
      }
      auto it = made.find(prefix);
      if (it != made.end()) {
        parent = it->second;
        continue;
      }
      const NodeInfo* info = index_.nodes.Find(
          DeweySpan{prefix.data(), static_cast<uint32_t>(prefix.size())});
      if (info == nullptr) break;  // text-position component: stop
      xml::DomNode* element =
          parent->AddChildElement(index_.nodes.TagName(info->tag_id));
      if (info->value_id != kNoValue) {
        element->AddTextChild(index_.nodes.Value(info->value_id));
      }
      made[prefix] = element;
      parent = element;
    }
  }
  return xml::DomDocument(std::move(root));
}

}  // namespace gks
