#include "index/shard.h"

#include <sys/stat.h>

#include <cstdio>
#include <utility>

#include "common/file_io.h"
#include "common/json_writer.h"
#include "index/index_builder.h"
#include "index/serialization.h"

namespace gks {
namespace {

std::string ShardFileName(size_t shard) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard_%02zu.gksidx", shard);
  return name;
}

/// Contiguous partition of `sizes` into `shard_count` non-empty runs,
/// greedily balanced by bytes. Returns the first file index of each
/// shard plus a terminating sizes.size().
std::vector<size_t> PartitionByBytes(const std::vector<uint64_t>& sizes,
                                     size_t shard_count) {
  std::vector<size_t> bounds;
  bounds.push_back(0);
  uint64_t remaining_bytes = 0;
  for (uint64_t size : sizes) remaining_bytes += size;
  size_t next = 0;
  for (size_t shard = 0; shard < shard_count; ++shard) {
    size_t shards_left = shard_count - shard;
    uint64_t target = remaining_bytes / shards_left;
    uint64_t taken = 0;
    size_t files_left = sizes.size() - next;
    size_t count = 0;
    // Every shard takes at least one file and must leave one per
    // remaining shard; within that, stop once the byte target is met.
    while (count < files_left - (shards_left - 1) &&
           (count == 0 || taken < target)) {
      taken += sizes[next + count];
      ++count;
    }
    next += count;
    remaining_bytes -= taken;
    bounds.push_back(next);
  }
  return bounds;
}

Status WriteShardManifest(const ShardManifest& manifest,
                          const std::string& path) {
  JsonWriter json;
  json.BeginObject();
  json.Key("version").UInt(1);
  json.Key("shards").BeginArray();
  for (const ShardSpec& shard : manifest.shards) {
    json.BeginObject();
    json.Key("file").String(shard.file);
    json.Key("doc_base").UInt(shard.doc_base);
    json.Key("doc_count").UInt(shard.doc_count);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return WriteStringToFile(path, json.str() + "\n");
}

}  // namespace

Result<ShardManifest> SplitIntoShards(const std::vector<std::string>& xml_files,
                                      size_t shard_count,
                                      const std::string& out_dir,
                                      ThreadPool* pool) {
  if (shard_count == 0) {
    return Status::InvalidArgument("shard count must be >= 1");
  }
  if (xml_files.size() < shard_count) {
    return Status::InvalidArgument(
        "cannot split " + std::to_string(xml_files.size()) + " documents into " +
        std::to_string(shard_count) + " shards (need >= 1 document each)");
  }
  ::mkdir(out_dir.c_str(), 0777);  // EEXIST is fine; open errors surface below

  std::vector<uint64_t> sizes;
  sizes.reserve(xml_files.size());
  for (const std::string& path : xml_files) {
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0) {
      return Status::IOError("cannot stat " + path);
    }
    sizes.push_back(static_cast<uint64_t>(st.st_size));
  }
  std::vector<size_t> bounds = PartitionByBytes(sizes, shard_count);

  ShardManifest manifest;
  for (size_t shard = 0; shard < shard_count; ++shard) {
    size_t begin = bounds[shard];
    size_t end = bounds[shard + 1];
    IndexBuilderOptions options;
    // Global Dewey ids: document j of this shard gets id doc_base + j,
    // exactly the id a single-index build over the full list assigns.
    options.first_doc_id = static_cast<uint32_t>(begin);
    IndexBuilder builder(options);
    for (size_t i = begin; i < end; ++i) {
      GKS_RETURN_IF_ERROR(builder.AddFile(xml_files[i]));
    }
    GKS_ASSIGN_OR_RETURN(XmlIndex index, std::move(builder).Finalize(pool));
    ShardSpec spec;
    spec.file = ShardFileName(shard);
    spec.doc_base = static_cast<uint32_t>(begin);
    spec.doc_count = static_cast<uint32_t>(end - begin);
    GKS_RETURN_IF_ERROR(SaveIndex(index, out_dir + "/" + spec.file));
    manifest.shards.push_back(std::move(spec));
  }
  GKS_RETURN_IF_ERROR(
      WriteShardManifest(manifest, out_dir + "/MANIFEST.json"));
  return manifest;
}

}  // namespace gks
