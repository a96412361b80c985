#ifndef GKS_INDEX_INDEX_BUILDER_H_
#define GKS_INDEX_INDEX_BUILDER_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "index/xml_index.h"

namespace gks {

struct IndexBuilderOptions {
  /// Treat XML attributes (name="value") as child elements so they
  /// participate in search and categorization exactly like the paper's
  /// element-structured examples.
  bool attributes_as_elements = true;
  /// Leaf-text values longer than this are not stored in the DI value pool
  /// (they still get indexed as keywords).
  size_t max_stored_value_bytes = 256;
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

}  // namespace gks

#endif  // GKS_INDEX_INDEX_BUILDER_H_
