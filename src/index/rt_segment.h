#ifndef GKS_INDEX_RT_SEGMENT_H_
#define GKS_INDEX_RT_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "index/xml_index.h"

namespace gks {

/// Real-time segment building blocks (docs/INDEXING.md).
///
/// A "segment" is an ordinary immutable XmlIndex covering a contiguous
/// range of global Dewey document ids: the segment's catalog is local
/// (dense from 0) while its Dewey ids carry the global offset, so node
/// ids from different segments never collide and the searcher can merge
/// ranked results across segments by plain id comparison.

/// One document as the RT engine stores it: the global Dewey doc id it
/// was assigned at commit, its catalog name, and the raw XML. The raw
/// text is the unit of durability (WAL) and of deterministic rebuilds
/// (compaction, flush, merge) — index bytes are always derived state.
struct RtDocument {
  uint32_t doc_id = 0;
  std::string name;
  std::string xml;

  bool operator==(const RtDocument& other) const {
    return doc_id == other.doc_id && name == other.name && xml == other.xml;
  }
};

/// Builds an immutable segment index over `docs`. The documents must be
/// sorted by doc_id and contiguous (IndexBuilder assigns consecutive ids
/// from `first_doc_id`); deleted documents are included — tombstones mask
/// them at search time, and only a merge renumbers them away. The build
/// is deterministic: the same documents always produce byte-identical
/// serialized segments, which is what the replay-then-flush crash test
/// pins (docs/INDEXING.md § Crash recovery).
Result<XmlIndex> BuildSegmentIndex(const std::vector<RtDocument>& docs);

/// Sidecar docstore file ("GKSDOC01"): magic, then an LZ-wrapped payload
/// of varint doc_count followed by per-document (varint doc_id,
/// length-prefixed name, length-prefixed xml). Each flushed segment keeps
/// one next to its index file so merges can rebuild surviving documents
/// from source — index sections alone cannot reproduce the original XML
/// (tokenized, stemmed, stop-worded).
Status WriteDocstore(const std::string& path,
                     const std::vector<RtDocument>& docs);
Result<std::vector<RtDocument>> ReadDocstore(const std::string& path);

/// One member of a published segment set.
struct SegmentView {
  std::shared_ptr<const XmlIndex> index;
  uint32_t doc_base = 0;   // global Dewey id of the segment's document 0
  uint32_t doc_count = 0;  // catalog size (includes tombstoned docs)
  std::string label;       // "base" | "ram" | "ram-accum" | segment file
};

/// An immutable snapshot of the whole searchable state: the segment set,
/// the tombstone set, and the epoch the response cache keys on. Published
/// behind a shared_ptr — queries copy the pointer once at admission and
/// the retired snapshot stays alive until its last query finishes,
/// exactly like the single-index reload path (src/server/index_state.h).
struct SegmentSetSnapshot {
  std::vector<SegmentView> segments;  // sorted by doc_base, ranges disjoint
  /// Sorted global doc ids masked from every search. Shared across
  /// snapshots untouched by deletes, so publishing an insert is O(1).
  std::shared_ptr<const std::vector<uint32_t>> deleted;
  uint64_t epoch = 0;

  bool IsDeleted(uint32_t doc_id) const;
  /// The segment whose id range contains `doc_id`; nullptr when none.
  const SegmentView* SegmentFor(uint32_t doc_id) const;
  /// Catalog entry for a global doc id (XmlIndex::Document of its
  /// segment); nullptr when no segment holds it.
  const Catalog::DocumentInfo* Document(uint32_t doc_id) const;

  uint64_t TotalDocuments() const;  // catalog entries incl. tombstones
  uint64_t LiveDocuments() const;
};

/// A set of one segment over `index` — how a static or shard index file
/// is searched and served. Its document range is the index's own
/// (XmlIndex::DocBase), its epoch the index's epoch, and it has no
/// tombstones.
std::shared_ptr<const SegmentSetSnapshot> OneSegmentSnapshot(
    std::shared_ptr<const XmlIndex> index);

}  // namespace gks

#endif  // GKS_INDEX_RT_SEGMENT_H_
