#include "index/rt_segment.h"

#include <algorithm>

#include "common/file_io.h"
#include "common/lz.h"
#include "common/varint.h"
#include "index/index_builder.h"

namespace gks {
namespace {

constexpr std::string_view kDocstoreMagic = "GKSDOC01";

}  // namespace

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

Status WriteDocstore(const std::string& path,
                     const std::vector<RtDocument>& docs) {
  std::string payload;
  PutVarint64(&payload, docs.size());
  for (const RtDocument& doc : docs) {
    PutVarint32(&payload, doc.doc_id);
    PutLengthPrefixed(&payload, doc.name);
    PutLengthPrefixed(&payload, doc.xml);
  }
  std::string file(kDocstoreMagic);
  LzCompress(payload, &file);
  return WriteStringToFile(path, file);
}

Result<std::vector<RtDocument>> ReadDocstore(const std::string& path) {
  std::string contents;
  GKS_RETURN_IF_ERROR(ReadFileToString(path, &contents));
  std::string_view input(contents);
  if (input.size() < kDocstoreMagic.size() ||
      input.substr(0, kDocstoreMagic.size()) != kDocstoreMagic) {
    return Status::Corruption("'" + path + "' is not a GKSDOC01 docstore");
  }
  input.remove_prefix(kDocstoreMagic.size());
  std::string payload;
  GKS_RETURN_IF_ERROR(LzDecompress(input, &payload));
  std::string_view cursor(payload);
  uint64_t count = 0;
  GKS_RETURN_IF_ERROR(GetVarint64(&cursor, &count));
  std::vector<RtDocument> docs;
  docs.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    RtDocument doc;
    GKS_RETURN_IF_ERROR(GetVarint32(&cursor, &doc.doc_id));
    GKS_RETURN_IF_ERROR(GetLengthPrefixed(&cursor, &doc.name));
    GKS_RETURN_IF_ERROR(GetLengthPrefixed(&cursor, &doc.xml));
    docs.push_back(std::move(doc));
  }
  if (!cursor.empty()) {
    return Status::Corruption("docstore '" + path + "' has trailing bytes");
  }
  return docs;
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
