#ifndef GKS_INDEX_XML_INDEX_H_
#define GKS_INDEX_XML_INDEX_H_

#include <cstdint>

#include "index/catalog.h"
#include "index/inverted_index.h"
#include "index/node_info_table.h"

namespace gks {

/// Everything the GKS search/analysis engines need at query time, produced
/// by one pass of the IndexBuilder over the XML repository (Sec. 2.4):
/// the keyword inverted index, the node-category hash tables, the
/// attribute-node directory for DI, and the document catalog.
struct XmlIndex {
  InvertedIndex inverted;
  NodeInfoTable nodes;
  AttrDirectory attributes;
  Catalog catalog;

  /// Mutation epoch: stamped from NextIndexEpoch() by every load and
  /// bumped by the one in-place mutation (schema reconciliation) so
  /// epoch-keyed consumers — the QueryResultCache above all — never serve
  /// results computed against an older state. Process-globally unique:
  /// reloading an index file yields a fresh epoch, so cache entries keyed
  /// to the previous incarnation can never collide with the new one. A
  /// runtime-only concept, never serialized. Mutators already require
  /// external exclusion against concurrent readers, so a plain integer
  /// suffices.
  uint64_t epoch = 0;

  /// Approximate in-memory footprint — the paper's "Index Size" column.
  size_t MemoryUsage() const {
    return inverted.MemoryUsage() + nodes.MemoryUsage() +
           attributes.MemoryUsage();
  }
};

/// Process-global monotonically increasing epoch source (never returns 0).
/// Every index load and every mutation draws from the same sequence, which
/// is what makes epochs collision-free across index incarnations within a
/// process.
uint64_t NextIndexEpoch();

}  // namespace gks

#endif  // GKS_INDEX_XML_INDEX_H_
