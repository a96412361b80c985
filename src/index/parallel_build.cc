#include "index/parallel_build.h"

#include <optional>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"

namespace gks {
namespace {

/// Merges a finalized single-document delta index (whose Dewey ids already
/// carry a document id larger than every document in `index`) into
/// `index`: catalog entry, remapped dictionaries, node rows and posting
/// lists, all appended.
Status MergeDeltaIndex(XmlIndex* index, XmlIndex&& delta) {
  // Catalog: the delta holds exactly one document.
  uint32_t new_id =
      index->catalog.AddDocument(delta.catalog.document(0).name);
  *index->catalog.mutable_document(new_id) = delta.catalog.document(0);

  // Dictionaries: remap the delta's dense tag/value ids into the target's.
  // Iterating in dense-id order interns exactly in the delta's encounter
  // order, which is what keeps a delta-merged build byte-identical to a
  // sequential one.
  std::vector<uint32_t> tag_map(delta.nodes.tag_count());
  for (uint32_t tag = 0; tag < delta.nodes.tag_count(); ++tag) {
    tag_map[tag] = index->nodes.InternTag(delta.nodes.TagName(tag));
  }
  std::vector<uint32_t> value_map(delta.nodes.value_count());
  for (uint32_t value = 0; value < delta.nodes.value_count(); ++value) {
    value_map[value] = index->nodes.InternValue(delta.nodes.Value(value));
  }

  // Node rows: every delta row, with remapped dictionary ids. Delta ids
  // all carry the new (largest) document id, so appending in the delta's
  // document order keeps the store sorted.
  delta.nodes.ForEach([&](DeweySpan id, const NodeInfo& info) {
    NodeInfo remapped = info;
    remapped.tag_id = tag_map[info.tag_id];
    if (info.value_id != kNoValue) {
      remapped.value_id = value_map[info.value_id];
    }
    index->nodes.Put(id, remapped);
  });

  // Posting lists: same argument — each delta list extends the existing
  // one by concatenation.
  Status merge_status = Status::OK();
  delta.inverted.ForEach([&](const std::string& term,
                             const PostingList& list) {
    if (!merge_status.ok()) return;
    merge_status = index->inverted.MutableList(term)->ExtendWith(list);
  });
  return merge_status;
}

}  // namespace

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

  // Phase 2: deterministic sequential merge in document order. The merge
  // interns dictionaries in encounter order and therefore reproduces the
  // sequential build byte for byte.
  XmlIndex out;
  {
    ScopedSpan span("build.merge_deltas");
    span.AddItems(deltas.size());
    for (std::optional<Result<XmlIndex>>& delta : deltas) {
      Status status = MergeDeltaIndex(&out, std::move(*delta).value());
      if (!status.ok()) return status;
    }
  }
  return out;
}

}  // namespace gks
