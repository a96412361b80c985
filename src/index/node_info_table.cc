#include "index/node_info_table.h"

#include <algorithm>

#include "common/varint.h"
#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace gks {

bool NodeInfoTable::AddFlags(DeweySpan id, uint8_t flags) {
  const uint32_t row = RowOf(id);
  if (row == kNoRow) return false;
  NodeInfo& info = infos_[row];
  uint8_t before = info.flags;
  info.flags |= flags;
  if ((flags & (kFlagAttribute | kFlagRepeating | kFlagEntity)) != 0 &&
      (info.flags & kFlagConnecting) != 0) {
    info.flags = static_cast<uint8_t>(info.flags & ~kFlagConnecting);
  }
  // Keep the Table 5 tallies in sync with the flag changes.
  if (!(before & kFlagAttribute) && (info.flags & kFlagAttribute)) {
    ++counts_.attribute;
  }
  if (!(before & kFlagRepeating) && (info.flags & kFlagRepeating)) {
    ++counts_.repeating;
  }
  if (!(before & kFlagEntity) && (info.flags & kFlagEntity)) {
    ++counts_.entity;
  }
  if ((before & kFlagConnecting) && !(info.flags & kFlagConnecting)) {
    --counts_.connecting;
  }
  return true;
}

uint32_t NodeInfoTable::InternTag(std::string_view tag) {
  auto it = tag_ids_.find(tag);
  if (it != tag_ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(tags_.size());
  tags_.emplace_back(tag);
  tag_ids_.emplace(std::string(tag), id);
  return id;
}

bool NodeInfoTable::FindTag(std::string_view tag, uint32_t* tag_id) const {
  auto it = tag_ids_.find(tag);
  if (it == tag_ids_.end()) return false;
  *tag_id = it->second;
  return true;
}

uint32_t NodeInfoTable::AddValue(std::string value) {
  // text::Analyze, with its per-token steps memoized: tokenize, drop stop
  // words, PorterStem.
  text::ForEachToken(value, [this](std::string& token) {
    auto it = token_terms_.find(token);
    if (it == token_terms_.end()) {
      uint32_t term = kNoTerm;
      if (!text::IsStopWord(token)) {
        std::string stem = text::PorterStem(token);
        auto [at, inserted] = term_ids_.try_emplace(
            stem, static_cast<uint32_t>(term_names_.size()));
        if (inserted) term_names_.push_back(std::move(stem));
        term = at->second;
      }
      it = token_terms_.emplace(std::move(token), term).first;
    }
    if (it->second != kNoTerm) value_terms_.push_back(it->second);
  });
  value_term_offsets_.push_back(static_cast<uint32_t>(value_terms_.size()));
  values_.push_back(std::move(value));
  return static_cast<uint32_t>(values_.size() - 1);
}

uint32_t NodeInfoTable::InternValue(std::string_view value) {
  if (value_ids_.size() != values_.size()) {
    // First use after construction/deserialization: build the reverse map.
    value_ids_.clear();
    for (size_t i = 0; i < values_.size(); ++i) {
      value_ids_.emplace(values_[i], static_cast<uint32_t>(i));
    }
  }
  auto it = value_ids_.find(value);
  if (it != value_ids_.end()) return it->second;
  uint32_t id = AddValue(std::string(value));
  value_ids_.emplace(values_.back(), id);
  return id;
}

void NodeInfoTable::Put(DeweySpan id, const NodeInfo& info) {
  if (in_order_ && size() > 0 && ids_.At(size() - 1).Compare(id) >= 0) {
    in_order_ = false;  // Finalize sorts and links every row
  }
  parents_.push_back(in_order_ ? NearestPrefixRow(id, size()) : kNoRow);
  ids_.Add(id);
  infos_.push_back(info);
  ++counts_.total;
  if (info.is_attribute()) ++counts_.attribute;
  if (info.is_repeating()) ++counts_.repeating;
  if (info.is_entity()) ++counts_.entity;
  if (info.is_connecting()) ++counts_.connecting;
}

void NodeInfoTable::Finalize() {
  if (in_order_) return;
  std::vector<uint32_t> perm = ids_.SortPermutation();
  std::vector<NodeInfo> infos;
  infos.reserve(perm.size());
  for (uint32_t row : perm) infos.push_back(infos_[row]);
  ids_.ApplyPermutation(perm);
  infos_ = std::move(infos);
  for (size_t row = 0; row < size(); ++row) {
    parents_[row] = NearestPrefixRow(ids_.At(row), row);
  }
  in_order_ = true;
}

uint32_t NodeInfoTable::NearestPrefixRow(DeweySpan id, size_t limit) const {
  // Every row that prefixes `id` sorts between itself and `id`, so it
  // prefixes row limit - 1 as well: it lies on that row's parent chain.
  // A row left behind here prefixes no later id, so each row is passed
  // over at most once per sorted pass.
  uint32_t row = limit == 0 ? kNoRow : static_cast<uint32_t>(limit - 1);
  while (row != kNoRow) {
    const DeweySpan candidate = ids_.At(row);
    if (candidate.size > 0 && candidate.size < id.size &&
        candidate.IsPrefixOf(id)) {
      break;
    }
    row = parents_[row];
  }
  return row;
}

uint32_t NodeInfoTable::SelfOrAncestorRowAt(DeweySpan id, size_t pos) const {
  if (id.size == 0) return kNoRow;
  if (pos < size() && ids_.At(pos) == id) return static_cast<uint32_t>(pos);
  return NearestPrefixRow(id, pos);
}

uint32_t NodeInfoTable::RowOf(DeweySpan id) const {
  // An id sorts first in its own subtree.
  const size_t row = ids_.SubtreeBegin(id);
  return row < size() && ids_.At(row) == id ? static_cast<uint32_t>(row)
                                            : kNoRow;
}

const NodeInfo* NodeInfoTable::Find(DeweySpan id) const {
  const uint32_t row = RowOf(id);
  return row == kNoRow ? nullptr : &infos_[row];
}

uint32_t NodeInfoTable::IsEntity(DeweySpan id) const {
  const NodeInfo* info = Find(id);
  return (info != nullptr && info->is_entity()) ? info->child_count : 0;
}

uint32_t NodeInfoTable::IsElement(DeweySpan id) const {
  const NodeInfo* info = Find(id);
  if (info == nullptr) return 0;
  return (info->is_repeating() || info->is_connecting()) ? info->child_count
                                                         : 0;
}

size_t NodeInfoTable::ValuedRowCount() const {
  return static_cast<size_t>(
      std::count_if(infos_.begin(), infos_.end(), [](const NodeInfo& info) {
        return info.value_id != kNoValue;
      }));
}

size_t NodeInfoTable::MemoryUsage() const {
  size_t bytes = ids_.MemoryUsage() + infos_.capacity() * sizeof(NodeInfo) +
                 parents_.capacity() * sizeof(uint32_t);
  for (const auto& tag : tags_) bytes += tag.capacity() + sizeof(tag);
  for (const auto& value : values_) bytes += value.capacity() + sizeof(value);
  // The value-term table: the flat ids and offsets, the term names, and a
  // hash node (key, id, link) plus a bucket per map entry.
  bytes += (value_terms_.capacity() + value_term_offsets_.capacity()) *
           sizeof(uint32_t);
  constexpr size_t kMapEntry =
      sizeof(std::string) + sizeof(uint32_t) + 2 * sizeof(void*);
  for (const auto& term : term_names_) {
    bytes += sizeof(term) + 2 * term.capacity() + kMapEntry;  // name, key
  }
  for (const auto& [token, term] : token_terms_) {
    bytes += token.capacity() + kMapEntry;
  }
  return bytes;
}

void NodeInfoTable::EncodeTo(std::string* dst) const {
  PutVarint64(dst, tags_.size());
  for (const std::string& tag : tags_) PutLengthPrefixed(dst, tag);
  PutVarint64(dst, values_.size());
  for (const std::string& value : values_) PutLengthPrefixed(dst, value);
  PutVarint64(dst, size());
  DeweySpan previous;
  for (size_t row = 0; row < size(); ++row) {
    PutFrontCoded(dst, previous, ids_.At(row));
    previous = ids_.At(row);
    const NodeInfo& info = infos_[row];
    dst->push_back(static_cast<char>(info.flags));
    PutVarint32(dst, info.child_count);
    PutVarint32(dst, info.tag_id);
    PutVarint32(dst, info.value_id == kNoValue ? 0 : info.value_id + 1);
  }
}

Status NodeInfoTable::DecodeFrom(std::string_view* input, NodeInfoTable* out) {
  *out = NodeInfoTable();
  uint64_t tag_count = 0;
  GKS_RETURN_IF_ERROR(GetVarint64(input, &tag_count));
  for (uint64_t i = 0; i < tag_count; ++i) {
    std::string tag;
    GKS_RETURN_IF_ERROR(GetLengthPrefixed(input, &tag));
    out->tags_.push_back(tag);
    out->tag_ids_.emplace(std::move(tag), static_cast<uint32_t>(i));
  }
  uint64_t value_count = 0;
  GKS_RETURN_IF_ERROR(GetVarint64(input, &value_count));
  for (uint64_t i = 0; i < value_count; ++i) {
    std::string value;
    GKS_RETURN_IF_ERROR(GetLengthPrefixed(input, &value));
    out->AddValue(std::move(value));
  }
  uint64_t node_count = 0;
  GKS_RETURN_IF_ERROR(GetVarint64(input, &node_count));
  std::vector<uint32_t> id;
  for (uint64_t i = 0; i < node_count; ++i) {
    GKS_RETURN_IF_ERROR(GetFrontCoded(input, &id));
    const DeweySpan span{id.data(), static_cast<uint32_t>(id.size())};
    if (i > 0 && out->ids_.At(i - 1).Compare(span) >= 0) {
      return Status::Corruption("node keys not in strictly ascending order");
    }
    if (input->size() < 1) return Status::Corruption("truncated node info");
    NodeInfo info;
    info.flags = static_cast<uint8_t>(input->front());
    input->remove_prefix(1);
    GKS_RETURN_IF_ERROR(GetVarint32(input, &info.child_count));
    GKS_RETURN_IF_ERROR(GetVarint32(input, &info.tag_id));
    uint32_t value_plus_one = 0;
    GKS_RETURN_IF_ERROR(GetVarint32(input, &value_plus_one));
    info.value_id = value_plus_one == 0 ? kNoValue : value_plus_one - 1;
    if (info.tag_id >= out->tags_.size()) {
      return Status::Corruption("node tag id out of range");
    }
    if (info.value_id != kNoValue && info.value_id >= out->values_.size()) {
      return Status::Corruption("node value id out of range");
    }
    out->Put(span, info);
  }
  return Status::OK();
}

void NodeInfoTable::EncodeAttributesTo(std::string* dst) const {
  std::vector<size_t> valued;
  for (size_t row = 0; row < size(); ++row) {
    if (infos_[row].value_id != kNoValue) valued.push_back(row);
  }
  PutVarint64(dst, valued.size());
  DeweySpan previous;
  for (size_t row : valued) {
    PutFrontCoded(dst, previous, ids_.At(row));
    previous = ids_.At(row);
  }
  PutVarint64(dst, valued.size());
  for (size_t row : valued) PutVarint32(dst, infos_[row].tag_id);
  for (size_t row : valued) PutVarint32(dst, infos_[row].value_id);
}

Status NodeInfoTable::CheckAttributes(std::string_view* input) const {
  std::string expected;
  EncodeAttributesTo(&expected);
  if (!input->starts_with(expected)) {
    return Status::Corruption(
        "attributes section does not match the valued node rows");
  }
  input->remove_prefix(expected.size());
  return Status::OK();
}

}  // namespace gks
