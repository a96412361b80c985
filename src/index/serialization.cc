#include "index/serialization.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "common/file_io.h"
#include "common/lz.h"
#include "common/metrics.h"
#include "common/timer.h"

namespace gks {
namespace {

constexpr std::string_view kMagicV1 = "GKSIDX01";
constexpr std::string_view kMagicV2 = "GKSIDX02";

// v2 section ids, in on-disk order.
enum SectionId : uint32_t {
  kSectionCatalog = 1,
  kSectionNodes = 2,
  kSectionAttributes = 3,
  kSectionInverted = 4,
  kSectionRankBounds = 5,
};

constexpr uint32_t kFlagLz = 1u << 0;

const char* SectionName(uint32_t id) {
  switch (id) {
    case kSectionCatalog:
      return "catalog";
    case kSectionNodes:
      return "nodes";
    case kSectionAttributes:
      return "attributes";
    case kSectionInverted:
      return "inverted";
    case kSectionRankBounds:
      return "rank_bounds";
    default:
      return "unknown";
  }
}

void PutFixed32(std::string* dst, uint32_t v) {
  for (int i = 0; i < 4; ++i) dst->push_back(static_cast<char>(v >> (8 * i)));
}

void PutFixed64(std::string* dst, uint64_t v) {
  for (int i = 0; i < 8; ++i) dst->push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t GetFixed32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t GetFixed64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

struct SectionEntry {
  uint32_t id = 0;
  uint32_t flags = 0;
  uint64_t offset = 0;
  uint64_t length = 0;

  bool lz() const { return (flags & kFlagLz) != 0; }
  std::string_view PayloadIn(std::string_view file) const {
    return file.substr(offset, length);
  }
};

constexpr size_t kSectionEntryBytes = 24;  // u32 id + u32 flags + u64 + u64

// Parses and validates the v2 section table. `file` is the whole file
// including the magic.
Status ParseV2SectionTable(std::string_view file,
                           std::vector<SectionEntry>* out) {
  size_t pos = kMagicV2.size();
  if (file.size() < pos + 4) {
    return Status::Corruption("v2 index truncated in section count");
  }
  uint32_t count = GetFixed32(file.data() + pos);
  pos += 4;
  if (count > 1024) {
    return Status::Corruption("implausible v2 section count");
  }
  if (file.size() < pos + count * kSectionEntryBytes) {
    return Status::Corruption("v2 index truncated in section table");
  }
  const size_t header_end = pos + count * kSectionEntryBytes;
  out->clear();
  out->reserve(count);
  uint64_t covered_end = header_end;
  for (uint32_t i = 0; i < count; ++i) {
    const char* p = file.data() + pos + i * kSectionEntryBytes;
    SectionEntry entry;
    entry.id = GetFixed32(p);
    entry.flags = GetFixed32(p + 4);
    entry.offset = GetFixed64(p + 8);
    entry.length = GetFixed64(p + 16);
    if (entry.offset < header_end || entry.offset > file.size() ||
        entry.length > file.size() - entry.offset) {
      return Status::Corruption("v2 section '" +
                                std::string(SectionName(entry.id)) +
                                "' extends past end of file");
    }
    covered_end = std::max(covered_end, entry.offset + entry.length);
    out->push_back(entry);
  }
  if (covered_end != file.size()) {
    return Status::Corruption("trailing bytes after index payload");
  }
  return Status::OK();
}

// Finds section `id` in the table, or nullptr when absent. For sections
// that are optional by design (rank_bounds: pre-PR 7 v2 files lack it).
const SectionEntry* FindOptionalSection(const std::vector<SectionEntry>& table,
                                        uint32_t id) {
  for (const SectionEntry& entry : table) {
    if (entry.id == id) return &entry;
  }
  return nullptr;
}

// Finds the (required) section `id` in the table.
Status FindSection(const std::vector<SectionEntry>& table, uint32_t id,
                   SectionEntry* out) {
  for (const SectionEntry& entry : table) {
    if (entry.id == id) {
      *out = entry;
      return Status::OK();
    }
  }
  return Status::Corruption("v2 index missing section '" +
                            std::string(SectionName(id)) + "'");
}

// Unwraps an LZ-flagged payload into `*storage` (left untouched for raw
// sections) and points `*payload` at the decodable bytes.
Status UnwrapSection(std::string_view raw, bool lz, std::string* storage,
                     std::string_view* payload) {
  if (!lz) {
    *payload = raw;
    return Status::OK();
  }
  storage->clear();
  GKS_RETURN_IF_ERROR(LzDecompress(raw, storage));
  *payload = *storage;
  return Status::OK();
}

std::string SerializeIndexV2(const XmlIndex& index) {
  // Encode each payload first, then lay the file out as
  // magic | count | table | payloads.
  std::string catalog;
  index.catalog.EncodeTo(&catalog);

  std::string nodes_raw;
  index.nodes.EncodeTo(&nodes_raw);
  std::string nodes;
  LzCompress(nodes_raw, &nodes);

  std::string attrs_raw;
  index.nodes.EncodeAttributesTo(&attrs_raw);
  std::string attrs;
  LzCompress(attrs_raw, &attrs);

  std::string inverted;
  index.inverted.EncodeToBlocks(&inverted);

  // Raw like the inverted section: the varint triples are already dense.
  std::string rank_bounds;
  index.inverted.EncodeRankBoundsTo(index.nodes, &rank_bounds);

  struct Pending {
    uint32_t id;
    uint32_t flags;
    const std::string* payload;
  };
  const Pending sections[] = {
      {kSectionCatalog, 0, &catalog},
      {kSectionNodes, kFlagLz, &nodes},
      {kSectionAttributes, kFlagLz, &attrs},
      {kSectionInverted, 0, &inverted},
      {kSectionRankBounds, 0, &rank_bounds},
  };
  const size_t section_count = std::size(sections);

  std::string out;
  out.append(kMagicV2);
  PutFixed32(&out, static_cast<uint32_t>(section_count));
  uint64_t offset =
      kMagicV2.size() + 4 + section_count * kSectionEntryBytes;
  for (const Pending& section : sections) {
    PutFixed32(&out, section.id);
    PutFixed32(&out, section.flags);
    PutFixed64(&out, offset);
    PutFixed64(&out, section.payload->size());
    offset += section.payload->size();
  }
  for (const Pending& section : sections) out.append(*section.payload);
  return out;
}

Result<XmlIndex> DeserializeIndexV1(std::string_view bytes) {
  bytes.remove_prefix(kMagicV1.size());
  XmlIndex index;
  GKS_RETURN_IF_ERROR(Catalog::DecodeFrom(&bytes, &index.catalog));
  GKS_RETURN_IF_ERROR(NodeInfoTable::DecodeFrom(&bytes, &index.nodes));
  GKS_RETURN_IF_ERROR(index.nodes.CheckAttributes(&bytes));
  GKS_RETURN_IF_ERROR(InvertedIndex::DecodeFrom(&bytes, &index.inverted));
  if (!bytes.empty()) {
    return Status::Corruption("trailing bytes after index payload");
  }
  index.epoch = NextIndexEpoch();
  return index;
}

// Every v2 section fully decoded before returning, so the result owns all
// of its memory and `bytes` may go away.
Result<XmlIndex> DeserializeIndexV2(std::string_view bytes) {
  std::vector<SectionEntry> table;
  GKS_RETURN_IF_ERROR(ParseV2SectionTable(bytes, &table));
  XmlIndex index;
  std::string storage;
  std::string_view payload;

  SectionEntry entry;
  GKS_RETURN_IF_ERROR(FindSection(table, kSectionCatalog, &entry));
  GKS_RETURN_IF_ERROR(
      UnwrapSection(entry.PayloadIn(bytes), entry.lz(), &storage, &payload));
  GKS_RETURN_IF_ERROR(Catalog::DecodeFrom(&payload, &index.catalog));
  if (!payload.empty()) {
    return Status::Corruption("trailing bytes after catalog section");
  }

  GKS_RETURN_IF_ERROR(FindSection(table, kSectionNodes, &entry));
  GKS_RETURN_IF_ERROR(
      UnwrapSection(entry.PayloadIn(bytes), entry.lz(), &storage, &payload));
  GKS_RETURN_IF_ERROR(NodeInfoTable::DecodeFrom(&payload, &index.nodes));
  if (!payload.empty()) {
    return Status::Corruption("trailing bytes after node table section");
  }

  GKS_RETURN_IF_ERROR(FindSection(table, kSectionAttributes, &entry));
  GKS_RETURN_IF_ERROR(
      UnwrapSection(entry.PayloadIn(bytes), entry.lz(), &storage, &payload));
  GKS_RETURN_IF_ERROR(index.nodes.CheckAttributes(&payload));
  if (!payload.empty()) {
    return Status::Corruption("trailing bytes after attributes section");
  }

  GKS_RETURN_IF_ERROR(FindSection(table, kSectionInverted, &entry));
  GKS_RETURN_IF_ERROR(
      UnwrapSection(entry.PayloadIn(bytes), entry.lz(), &storage, &payload));
  GKS_RETURN_IF_ERROR(
      InvertedIndex::DecodeFromBlocks(&payload, &index.inverted));
  if (!payload.empty()) {
    return Status::Corruption("trailing bytes after inverted index section");
  }

  // Optional since PR 7: older v2 files simply lack the section, which
  // leaves every list without bounds (treated as +inf by the evaluator).
  if (const SectionEntry* bounds =
          FindOptionalSection(table, kSectionRankBounds)) {
    GKS_RETURN_IF_ERROR(UnwrapSection(bounds->PayloadIn(bytes), bounds->lz(),
                                      &storage, &payload));
    GKS_RETURN_IF_ERROR(index.inverted.ApplyRankBounds(payload));
  }

  index.epoch = NextIndexEpoch();
  return index;
}

}  // namespace

std::string SerializeIndex(const XmlIndex& index) {
  WallTimer timer;
  std::string out = SerializeIndexV2(index);
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("gks.index.serialize.bytes_total")->Add(out.size());
  registry.GetHistogram("gks.index.serialize.latency_ms")
      ->Observe(timer.ElapsedMillis());
  return out;
}

Result<XmlIndex> DeserializeIndex(std::string_view bytes) {
  WallTimer timer;
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("gks.index.deserialize.bytes_total")
      ->Add(bytes.size());
  if (bytes.size() < kMagicV1.size()) {
    return Status::Corruption("not a GKS index file (too short)");
  }
  Result<XmlIndex> result = Status::OK();
  if (bytes.substr(0, kMagicV1.size()) == kMagicV1) {
    result = DeserializeIndexV1(bytes);
  } else if (bytes.substr(0, kMagicV2.size()) == kMagicV2) {
    result = DeserializeIndexV2(bytes);
  } else {
    return Status::Corruption("not a GKS index file (bad magic)");
  }
  GKS_RETURN_IF_ERROR(result.status());
  registry.GetHistogram("gks.index.deserialize.latency_ms")
      ->Observe(timer.ElapsedMillis());
  return result;
}

Status SaveIndex(const XmlIndex& index, const std::string& path) {
  return WriteStringToFile(path, SerializeIndex(index));
}

Result<XmlIndex> LoadIndex(const std::string& path) {
  std::string bytes;
  GKS_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
  return DeserializeIndex(bytes);
}

Result<IndexFileInfo> InspectIndexFile(const std::string& path) {
  std::string bytes;
  GKS_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
  std::string_view view = bytes;
  IndexFileInfo info;
  info.file_bytes = bytes.size();

  if (view.size() >= kMagicV2.size() &&
      view.substr(0, kMagicV2.size()) == kMagicV2) {
    info.version = 2;
    std::vector<SectionEntry> table;
    GKS_RETURN_IF_ERROR(ParseV2SectionTable(view, &table));
    for (const SectionEntry& entry : table) {
      info.sections.push_back(
          {SectionName(entry.id), entry.length, entry.lz()});
    }
    return info;
  }

  if (view.size() < kMagicV1.size() ||
      view.substr(0, kMagicV1.size()) != kMagicV1) {
    return Status::Corruption("not a GKS index file (bad magic)");
  }
  // v1 has no table: decode progressively and charge each section the
  // bytes its decoder consumed.
  info.version = 1;
  view.remove_prefix(kMagicV1.size());
  size_t before = view.size();

  Catalog catalog;
  GKS_RETURN_IF_ERROR(Catalog::DecodeFrom(&view, &catalog));
  info.sections.push_back({"catalog", before - view.size(), false});
  before = view.size();

  NodeInfoTable nodes;
  GKS_RETURN_IF_ERROR(NodeInfoTable::DecodeFrom(&view, &nodes));
  info.sections.push_back({"nodes", before - view.size(), false});
  before = view.size();

  GKS_RETURN_IF_ERROR(nodes.CheckAttributes(&view));
  info.sections.push_back({"attributes", before - view.size(), false});
  before = view.size();

  InvertedIndex inverted;
  GKS_RETURN_IF_ERROR(InvertedIndex::DecodeFrom(&view, &inverted));
  info.sections.push_back({"inverted", before - view.size(), false});

  if (!view.empty()) {
    return Status::Corruption("trailing bytes after index payload");
  }
  return info;
}

}  // namespace gks
