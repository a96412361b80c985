#ifndef GKS_INDEX_INDEX_BUILDER_H_
#define GKS_INDEX_INDEX_BUILDER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "index/xml_index.h"

namespace gks {

struct IndexBuilderOptions {
  /// Dewey document ids start here — used by the parallel build, RT
  /// segments and shards to build indexes whose ids sort after the
  /// documents before them.
  uint32_t first_doc_id = 0;
};

/// Builds the complete GKS index (inverted index, node-category hash
/// tables, attribute directory, catalog) in a single streaming pass per
/// document, exactly as Sec. 2.4 prescribes ("the hash tables and the
/// inverted index are created in a single pass over XML data").
///
/// Usage:
///   IndexBuilder builder;
///   builder.AddDocument(xml_text, "dblp.xml");
///   Result<XmlIndex> index = std::move(builder).Finalize();
class IndexBuilder {
 public:
  explicit IndexBuilder(IndexBuilderOptions options = {});
  ~IndexBuilder();

  IndexBuilder(const IndexBuilder&) = delete;
  IndexBuilder& operator=(const IndexBuilder&) = delete;

  /// Parses and indexes one document; `name` labels it in the catalog.
  /// Documents receive consecutive ids starting at 0.
  Status AddDocument(std::string_view xml, std::string name);

  /// Reads and indexes the file at `path` (catalog name = path).
  Status AddFile(const std::string& path);

  /// Completes the index. The builder is consumed. With a pool, the
  /// per-keyword posting sorts fan out across its workers (the result is
  /// identical to the sequential finalize).
  Result<XmlIndex> Finalize() &&;
  Result<XmlIndex> Finalize(ThreadPool* pool) &&;

 private:
  class Handler;

  IndexBuilderOptions options_;
  std::unique_ptr<XmlIndex> index_;
  std::unique_ptr<Handler> handler_;
};

/// Appends the documents of the finished index `src` to `out`: the one way
/// indexes are combined (the parallel build; RT compaction, flush and
/// merge). Documents whose global ids are in the sorted `dropped` are left
/// out; the rest keep their order, are numbered from `*next_id` (which
/// moves past them), and land in `id_map` as (old id, new id) when given.
/// `out` must be empty or end just before `*next_id`, else InvalidArgument;
/// after an error `out` is unspecified. The result serializes byte for byte
/// like an IndexBuilder over the kept documents, because the builder's
/// orders are replayed: catalog entries, node rows and each document's run
/// of every posting list are copied (runs in one block), the first Dewey
/// component rewritten; tags are interned in row order, the order elements
/// open; values in the order the streaming categorizer reports elements, a
/// parent's children when the parent closes and the root last — for
/// <a><b>x</b><c><d>y</d></c></a> that is y, then x. The AppendDocuments
/// property suite binds these orders to the builder's.
Status AppendDocuments(
    XmlIndex* out, const XmlIndex& src, std::span<const uint32_t> dropped,
    uint32_t* next_id,
    std::vector<std::pair<uint32_t, uint32_t>>* id_map = nullptr);

}  // namespace gks

#endif  // GKS_INDEX_INDEX_BUILDER_H_
