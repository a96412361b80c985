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
///     without touching the others, which is what LoadIndexMapped builds
///     on. Flags bit 0 marks an LZ-wrapped payload (common/lz.h). The node
///     table and attribute directory are LZ-wrapped v1 payloads; the
///     inverted index uses the block-postings encoding (posting_blocks.h)
///     and stays uncompressed so individual blocks decode straight from
///     the mapped bytes; the catalog is raw (too small to benefit). The
///     writer also emits a rank_bounds section (per-block rank upper
///     bounds, block_max.h) that powers top-k early termination; the
///     section is OPTIONAL on read — a v2 file without it, as older
///     writers produced, loads and serves with the bounds treated as +inf
///     (weight 1.0).

/// Serializes `index` as format v2. SaveIndex replaces `path` through the
/// atomic writer (common/file_io.h), so a server that has the old file
/// mapped keeps serving the old bytes until it reloads.
Status SaveIndex(const XmlIndex& index, const std::string& path);
std::string SerializeIndex(const XmlIndex& index);

/// Readers sniff the magic, so either format loads through either path.
/// LoadIndex/DeserializeIndex decode everything eagerly; the returned
/// index owns all of its memory. The loaded index is stamped with a fresh
/// epoch (see XmlIndex::epoch).
Result<XmlIndex> LoadIndex(const std::string& path);
Result<XmlIndex> DeserializeIndex(std::string_view bytes);

/// Zero-copy load: maps the file read-only and attaches the still-encoded
/// v2 sections to the index, so the call itself is O(section table) — the
/// node table and attribute directory decode on first touch, and posting
/// lists decode block-at-a-time as cursors reach them. The index keeps the
/// mapping alive for as long as any section needs it. A v1 file degrades
/// to the eager path (same result, no laziness). The loaded index is
/// stamped with a fresh epoch.
Result<XmlIndex> LoadIndexMapped(const std::string& path);

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
