#include "index/xml_index.h"

#include <atomic>

namespace gks {

uint32_t XmlIndex::DocBase() const {
  if (nodes.size() == 0) return 0;
  const DeweySpan first = nodes.IdAt(0);
  return first.size == 0 ? 0 : first.data[0];
}

const Catalog::DocumentInfo* XmlIndex::Document(uint32_t doc_id) const {
  const uint32_t base = DocBase();
  if (doc_id < base || doc_id - base >= catalog.document_count()) {
    return nullptr;
  }
  return &catalog.document(doc_id - base);
}

uint64_t NextIndexEpoch() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace gks
