#ifndef GKS_INDEX_PARALLEL_BUILD_H_
#define GKS_INDEX_PARALLEL_BUILD_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "index/index_builder.h"
#include "index/xml_index.h"

namespace gks {

/// One (catalog name, XML text) input document for a parallel build.
using NamedDocument = std::pair<std::string, std::string>;

/// Builds the full GKS index over `documents`, SAX-parsing the documents
/// concurrently on `pool` and then merging the per-document partial
/// indexes deterministically in document order.
///
/// Each document is parsed into a standalone delta index whose Dewey ids
/// already carry the final document id (`options.first_doc_id + position`);
/// the sequential merge appends the deltas in document order with
/// AppendDocuments (index_builder.h), which makes the result
/// **byte-identical** (SerializeIndex) to a sequential IndexBuilder over
/// the same documents in the same order; the ParallelDeterminism
/// integration test pins this.
///
/// Unlike IndexBuilder::AddDocument (which records a catalog entry even
/// for a failed parse), a parse failure aborts the whole build and returns
/// the first failing document's status (by document order).
///
/// `pool == nullptr` parses sequentially but still exercises the same
/// delta-merge path. `PostingList::Finalize` sorting inside each delta
/// rides the same pool via IndexBuilder::Finalize(pool).
Result<XmlIndex> BuildIndexParallel(const std::vector<NamedDocument>& documents,
                                    const IndexBuilderOptions& options,
                                    ThreadPool* pool);

}  // namespace gks

#endif  // GKS_INDEX_PARALLEL_BUILD_H_
