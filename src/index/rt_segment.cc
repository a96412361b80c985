#include "index/rt_segment.h"

#include <algorithm>

#include "index/index_builder.h"

namespace gks {

Result<XmlIndex> BuildSegmentIndex(const std::vector<RtDocument>& docs) {
  if (docs.empty()) {
    return Status::InvalidArgument("segment build needs at least one doc");
  }
  IndexBuilderOptions options;
  options.first_doc_id = docs.front().doc_id;
  IndexBuilder builder(options);
  uint32_t expected = docs.front().doc_id;
  for (const RtDocument& doc : docs) {
    if (doc.doc_id != expected) {
      return Status::InvalidArgument(
          "segment docs must be contiguous: expected id " +
          std::to_string(expected) + ", got " + std::to_string(doc.doc_id));
    }
    GKS_RETURN_IF_ERROR(builder.AddDocument(doc.xml, doc.name));
    ++expected;
  }
  return std::move(builder).Finalize();
}

bool SegmentSetSnapshot::IsDeleted(uint32_t doc_id) const {
  if (deleted == nullptr) return false;
  return std::binary_search(deleted->begin(), deleted->end(), doc_id);
}

const SegmentView* SegmentSetSnapshot::SegmentFor(uint32_t doc_id) const {
  // Segments are sorted by doc_base with disjoint ranges: find the last
  // segment starting at or before doc_id and check its extent.
  auto it = std::upper_bound(
      segments.begin(), segments.end(), doc_id,
      [](uint32_t id, const SegmentView& view) { return id < view.doc_base; });
  if (it == segments.begin()) return nullptr;
  --it;
  if (doc_id < it->doc_base + it->doc_count) return &*it;
  return nullptr;
}

const Catalog::DocumentInfo* SegmentSetSnapshot::Document(
    uint32_t doc_id) const {
  const SegmentView* view = SegmentFor(doc_id);
  return view != nullptr ? view->index->Document(doc_id) : nullptr;
}

uint64_t SegmentSetSnapshot::TotalDocuments() const {
  uint64_t total = 0;
  for (const SegmentView& view : segments) total += view.doc_count;
  return total;
}

uint64_t SegmentSetSnapshot::LiveDocuments() const {
  uint64_t total = TotalDocuments();
  uint64_t dead = deleted == nullptr ? 0 : deleted->size();
  return total >= dead ? total - dead : 0;
}

std::shared_ptr<const SegmentSetSnapshot> OneSegmentSnapshot(
    std::shared_ptr<const XmlIndex> index) {
  auto snapshot = std::make_shared<SegmentSetSnapshot>();
  const uint32_t doc_base = index->DocBase();
  const auto doc_count =
      static_cast<uint32_t>(index->catalog.document_count());
  snapshot->epoch = index->epoch;
  snapshot->segments.push_back(
      {std::move(index), doc_base, doc_count, "index"});
  return snapshot;
}

}  // namespace gks
