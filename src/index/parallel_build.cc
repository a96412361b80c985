#include "index/parallel_build.h"

#include <optional>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"

namespace gks {

Result<XmlIndex> BuildIndexParallel(const std::vector<NamedDocument>& documents,
                                    const IndexBuilderOptions& options,
                                    ThreadPool* pool) {
  MetricsRegistry::Global()
      .GetCounter("gks.index.parallel.builds_total")
      ->Increment();

  // Phase 1: every document becomes a standalone finalized delta index on
  // the pool. first_doc_id pins the final Dewey document id up front, so
  // deltas are position-independent and the merge is order-preserving.
  std::vector<std::optional<Result<XmlIndex>>> deltas(documents.size());
  {
    ScopedSpan span("build.parse_shards");
    span.AddItems(documents.size());
    ParallelFor(pool, documents.size(), [&](size_t i) {
      IndexBuilderOptions delta_options = options;
      delta_options.first_doc_id =
          options.first_doc_id + static_cast<uint32_t>(i);
      IndexBuilder builder(delta_options);
      Status status =
          builder.AddDocument(documents[i].second, documents[i].first);
      if (!status.ok()) {
        deltas[i].emplace(std::move(status));
        return;
      }
      deltas[i].emplace(std::move(builder).Finalize(pool));
    });
  }
  for (std::optional<Result<XmlIndex>>& delta : deltas) {
    if (!delta->ok()) return delta->status();  // first failure in doc order
  }

  // Phase 2: deterministic sequential merge in document order.
  // AppendDocuments replays the builder's interning orders and therefore
  // reproduces the sequential build byte for byte.
  XmlIndex out;
  {
    ScopedSpan span("build.merge_deltas");
    span.AddItems(deltas.size());
    uint32_t next_id = options.first_doc_id;
    for (std::optional<Result<XmlIndex>>& delta : deltas) {
      GKS_RETURN_IF_ERROR(AppendDocuments(&out, **delta, {}, &next_id));
      delta.reset();  // free each delta as the merged index grows
    }
  }
  return out;
}

}  // namespace gks
