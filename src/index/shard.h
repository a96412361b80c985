#ifndef GKS_INDEX_SHARD_H_
#define GKS_INDEX_SHARD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace gks {

/// Repository sharding (docs/DISTRIBUTED.md): a repository of XML
/// documents is split into N contiguous *document ranges*, each built
/// into an ordinary v2 index whose Dewey document ids carry the global
/// offset (IndexBuilderOptions::first_doc_id — the same mechanism the
/// real-time segments use). Dewey order is document-major, so every
/// invariant the single-index engine relies on (sorted posting lists,
/// subtree ranges, id comparisons) holds per shard, and ranked partial
/// results from different shards merge by plain comparison: ranks are
/// potential-flow scores of a node's own subtree, directly comparable
/// across independently built indexes.

/// One shard of a split repository, as recorded in the manifest.
struct ShardSpec {
  std::string file;        // index file name, relative to the manifest
  uint32_t doc_base = 0;   // global Dewey id of the shard's document 0
  uint32_t doc_count = 0;  // documents in the shard
};

/// The manifest written next to the shard index files
/// (`MANIFEST.json`): how a coordinator — or an operator wiring worker
/// processes by hand — learns the document-range topology.
struct ShardManifest {
  std::vector<ShardSpec> shards;

  uint32_t total_documents() const {
    uint32_t total = 0;
    for (const ShardSpec& shard : shards) total += shard.doc_count;
    return total;
  }
};

/// Splits `xml_files` (one document per file, global doc ids assigned in
/// argument order — exactly the ids a single `gks index` over the same
/// list would assign) into `shard_count` contiguous ranges balanced by
/// file bytes, builds each range into `out_dir/shard_NN.gksidx`, and
/// writes `out_dir/MANIFEST.json`, plain JSON:
///   {"version":1,"shards":[{"file":"shard_00.gksidx",
///                           "doc_base":0,"doc_count":12}, ...]}
/// Every file goes through the atomic writer (common/file_io.h). With a
/// pool, per-shard finalize sorts fan out (deterministic).
/// InvalidArgument when there are fewer files than shards.
Result<ShardManifest> SplitIntoShards(const std::vector<std::string>& xml_files,
                                      size_t shard_count,
                                      const std::string& out_dir,
                                      ThreadPool* pool = nullptr);

}  // namespace gks

#endif  // GKS_INDEX_SHARD_H_
