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

/// One document as the RT engine receives it: the global Dewey doc id it
/// was assigned at commit, its catalog name, and the raw XML. The raw
/// text is the unit of durability: it lives in the WAL until a flush
/// retires it. It is parsed once, into the insert's single-document index;
/// compaction, flush and merge combine indexes (AppendDocuments).
struct RtDocument {
  uint32_t doc_id = 0;
  std::string name;
  std::string xml;
};

/// Builds an immutable segment index over `docs`. The documents must be
/// sorted by doc_id and contiguous (IndexBuilder assigns consecutive ids
/// from `first_doc_id`). Each insert's single-document index comes from
/// here, and every segment file the RT path writes equals it over the
/// file's documents byte for byte (the tests' oracle; docs/INDEXING.md
/// § Crash recovery).
Result<XmlIndex> BuildSegmentIndex(const std::vector<RtDocument>& docs);

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
