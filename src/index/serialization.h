#ifndef GKS_INDEX_SERIALIZATION_H_
#define GKS_INDEX_SERIALIZATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "index/xml_index.h"

namespace gks {

/// On-disk index formats. Index preparation is "a onetime activity"
/// (Sec. 7.1.1); these functions let deployments reuse it across processes.
/// The writer emits v2 with rank bounds only; the readers also accept the
/// legacy byte streams below, which older builds wrote.
///
///   v1 ("GKSIDX01", read only): magic, then the catalog, node table,
///     attribute directory and inverted index sections back to back, each
///     varint-encoded. No section table — the file must be decoded front
///     to back, eagerly.
///
///   v2 ("GKSIDX02"): magic, a fixed-width little-endian section table
///     (u32 count, then per section: u32 id, u32 flags, u64 offset,
///     u64 length — offsets from the file start), then the payloads. The
///     table makes the file position-independent: any section is reachable
///     without touching the others. Flags bit 0 marks an LZ-wrapped payload
///     (common/lz.h). The node table and attribute directory are
///     LZ-wrapped v1 payloads; the inverted index uses the block-postings
///     encoding (posting_blocks.h) and stays uncompressed, since the block
///     codec already compresses it; the catalog is raw (too small to
///     benefit). The
///     writer also emits a rank_bounds section (per-block rank upper
///     bounds, block_max.h) that powers top-k early termination; the
///     section is OPTIONAL on read — a v2 file without it, as older
///     writers produced, loads and serves with the bounds treated as +inf
///     (weight 1.0).

/// Serializes `index` as format v2. SaveIndex replaces `path` through the
/// atomic writer (common/file_io.h), so a concurrent load reads either the
/// old file or the new one, never a mix.
Status SaveIndex(const XmlIndex& index, const std::string& path);
std::string SerializeIndex(const XmlIndex& index);

/// Readers sniff the magic, so either format loads. Every section is
/// decoded and validated before the call returns; the returned index owns
/// all of its memory and never changes afterwards. The loaded index is
/// stamped with a fresh epoch (see XmlIndex::epoch).
Result<XmlIndex> LoadIndex(const std::string& path);
Result<XmlIndex> DeserializeIndex(std::string_view bytes);

/// The same load as LoadIndex, under the name of the former lazy loader
/// that existing callers still use.
inline Result<XmlIndex> LoadIndexMapped(const std::string& path) {
  return LoadIndex(path);
}

/// Per-section byte accounting for `gks stats` and the size benches.
struct IndexSectionInfo {
  std::string name;  // "catalog" | "nodes" | "attributes" | "inverted" |
                     // "rank_bounds"
  uint64_t bytes = 0;    // on-disk payload bytes (after compression)
  bool compressed = false;  // LZ-wrapped on disk
};
struct IndexFileInfo {
  int version = 0;  // 1 or 2
  uint64_t file_bytes = 0;
  std::vector<IndexSectionInfo> sections;
};

/// Reads just enough of the file to attribute bytes to sections: v2 files
/// answer from the section table; v1 files are progressively decoded to
/// find the section boundaries (costs a full parse).
Result<IndexFileInfo> InspectIndexFile(const std::string& path);

}  // namespace gks

#endif  // GKS_INDEX_SERIALIZATION_H_
