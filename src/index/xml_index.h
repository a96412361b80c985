#ifndef GKS_INDEX_XML_INDEX_H_
#define GKS_INDEX_XML_INDEX_H_

#include <cstdint>

#include "index/catalog.h"
#include "index/inverted_index.h"
#include "index/node_info_table.h"

namespace gks {

/// Everything the GKS search/analysis engines need at query time, produced
/// by one pass of the IndexBuilder over the XML repository (Sec. 2.4):
/// the keyword inverted index, the node store (the paper's two category
/// hash tables as one document-ordered table, whose valued rows are the
/// attribute directory DI reads), and the document catalog.
struct XmlIndex {
  InvertedIndex inverted;
  NodeInfoTable nodes;
  Catalog catalog;

  /// Mutation epoch: stamped from NextIndexEpoch() by every load and
  /// bumped by the one in-place mutation (schema reconciliation) so
  /// epoch-keyed consumers — the server's response cache above all —
  /// never serve results computed against an older state.
  /// Process-globally unique: reloading an index file yields a fresh
  /// epoch, so cache entries keyed to the previous incarnation can never
  /// collide with the new one. A runtime-only concept, never serialized.
  /// Mutators already require external exclusion against concurrent
  /// readers, so a plain integer suffices.
  uint64_t epoch = 0;

  /// The global document ids this index holds are [DocBase(), DocBase() +
  /// catalog.document_count()): the catalog is dense from 0, while Dewey
  /// ids carry IndexBuilderOptions::first_doc_id onwards (shards, RT
  /// segments). Read from the file itself — the document component of
  /// the first node row, since rows are in document order and every
  /// document has its root row — and 0 for an index without rows.
  uint32_t DocBase() const;

  /// Catalog entry of global document `doc_id`; nullptr outside
  /// [DocBase(), DocBase() + catalog.document_count()).
  const Catalog::DocumentInfo* Document(uint32_t doc_id) const;

  /// Approximate in-memory footprint — the paper's "Index Size" column.
  size_t MemoryUsage() const {
    return inverted.MemoryUsage() + nodes.MemoryUsage();
  }
};

/// Process-global monotonically increasing epoch source (never returns 0).
/// Every index load and every mutation draws from the same sequence, which
/// is what makes epochs collision-free across index incarnations within a
/// process.
uint64_t NextIndexEpoch();

}  // namespace gks

#endif  // GKS_INDEX_XML_INDEX_H_
