#ifndef GKS_INDEX_RT_INDEX_H_
#define GKS_INDEX_RT_INDEX_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "index/rt_segment.h"
#include "index/wal.h"

namespace gks {

class Counter;
class Gauge;

/// Tunables for the real-time index; each maps onto a `gks serve --rt-*`
/// flag (docs/INDEXING.md § Tuning).
struct RtOptions {
  /// Home directory: MANIFEST, wal-*.log, seg-*.gksidx + seg-*.docs.
  std::string dir;
  /// Optional immutable base index (the offline-built CLI file) serving
  /// global doc ids [0, base_docs). Never merged (it has no docstore).
  std::string base_index_path;
  /// Seal + flush the RAM window once it holds this many documents.
  size_t flush_docs = 512;
  /// ... or this many bytes of raw XML, whichever comes first.
  size_t flush_bytes = 8u << 20;
  /// Size-tiered merge fanout; 0 disables background merging.
  size_t merge_fanout = 4;
  /// Fsync the WAL after every commit (--rt-fsync=always). Off trades the
  /// last few commits for ingest throughput (--rt-fsync=off).
  bool fsync = true;
  /// Run the flusher/merger thread. Tests disable it and drive Flush()
  /// deterministically; the server always enables it.
  bool background = true;
};

/// Point-in-time counters for `stats`.
struct RtStats {
  uint64_t ram_docs = 0;        // window + sealed-but-unflushed documents
  uint64_t ram_bytes = 0;       // raw XML bytes held in RAM
  uint64_t disk_segments = 0;   // flushed/merged segments (excl. base)
  uint64_t tombstones = 0;
  uint64_t live_docs = 0;
  uint64_t next_doc_id = 0;
  uint64_t wal_records = 0;     // appended since open (excl. replay)
  uint64_t replayed_records = 0;
  uint64_t flushes = 0;
  uint64_t merges = 0;
  uint64_t purged_docs = 0;     // tombstones dropped for good by merges
};

/// The real-time index (docs/INDEXING.md): an updatable view over a set
/// of immutable segments.
///
///   - `Insert` builds a single-document micro-segment, logs the raw XML
///     to the WAL, and publishes a new snapshot — the document is
///     searchable when Insert returns, with no rebuild or reload.
///   - Every 16 inserts the window's micro-segments are folded into one
///     accumulated RAM segment (deterministic rebuild from the raw
///     documents), bounding per-query segment count.
///   - The flusher seals the RAM window once it exceeds `flush_docs` /
///     `flush_bytes`, rotates the WAL, rebuilds the sealed run into an
///     immutable v2 on-disk segment (plus a docstore sidecar), swaps it
///     in, and retires the old WAL.
///   - Flushed segments merge size-tiered (`merge_fanout`); merges
///     renumber surviving documents into a fresh contiguous id range,
///     which is what finally purges tombstones.
///   - `Delete` masks a document everywhere via the snapshot's tombstone
///     set; it takes effect on the snapshot published before Delete
///     returns.
///
/// Readers never block writers and vice versa: every mutation publishes a
/// fresh immutable SegmentSetSnapshot (epoch-stamped, so the response cache
/// self-invalidates) and in-flight queries keep the snapshot they
/// admitted with. Crash recovery replays the WAL over the manifest's
/// segment set and reproduces the pre-crash state exactly — including
/// byte-identical segment files on the next flush, because segment builds
/// are deterministic functions of the raw documents.
class RtIndex {
 public:
  static Result<std::unique_ptr<RtIndex>> Open(RtOptions options);
  ~RtIndex();  // stops background work; durable state is already on disk

  RtIndex(const RtIndex&) = delete;
  RtIndex& operator=(const RtIndex&) = delete;

  /// Commits one document; returns its global doc id. AlreadyExists for a
  /// live duplicate name, InvalidArgument/Corruption for XML that does
  /// not index, IOError when the WAL append fails (state unchanged).
  Result<uint32_t> Insert(std::string name, std::string xml);

  /// Deletes by catalog name. False when no live document has the name
  /// (idempotent — not an error). True: masked from the next snapshot on.
  Result<bool> Delete(const std::string& name);

  /// Seals and flushes everything RAM-resident to disk segments, then
  /// retires the WAL it covered. Serialized with background flush/merge;
  /// returns when the new segment set is durable. No-op when RAM is empty.
  Status Flush();

  /// Runs one size-tiered merge round if the policy wants one. Exposed
  /// for tests; the background thread calls it after every flush.
  Status MaybeMerge();

  std::shared_ptr<const SegmentSetSnapshot> snapshot() const;
  uint64_t epoch() const;
  RtStats Stats() const;
  const RtOptions& options() const { return options_; }

 private:
  /// A sealed, not-yet-flushed contiguous run of the RAM window: its raw
  /// documents plus the segment views that keep it searchable.
  struct SealedRun {
    std::vector<RtDocument> docs;
    std::vector<SegmentView> views;
  };
  /// One flushed on-disk segment.
  struct DiskSegment {
    uint64_t seq = 0;
    std::string file;      // seg-NNNNNN.gksidx (relative to dir)
    std::string docstore;  // seg-NNNNNN.docs
    uint32_t doc_base = 0;
    uint32_t doc_count = 0;
    uint64_t bytes = 0;    // index file size (merge-policy input)
    std::shared_ptr<const XmlIndex> index;
  };

  RtIndex(RtOptions options);

  Status OpenInternal();
  Status Recover();
  Status ApplyReplayRecord(const WalRecord& record);
  Status ApplyInsertLocked(RtDocument doc, bool replay);
  Status CompactWindowLocked();
  void SealWindowLocked(bool rotate_wal);
  Status RotateWalLocked();
  /// Builds `docs` (contiguous ids from docs.front().doc_id) into the
  /// next numbered segment: writes its .gksidx and .docs files, records
  /// the index file's size and loads the index back from disk.
  Result<DiskSegment> WriteSegment(const std::vector<RtDocument>& docs);
  Status WriteManifestLocked();
  /// Loads `segment->file` into `segment->index`; Corruption when the
  /// file's document range differs from doc_base / doc_count.
  Status LoadSegmentFile(DiskSegment* segment) const;
  void PublishLocked();
  std::vector<SegmentView> WindowViewsLocked() const;
  void BackgroundLoop();
  void PokeBackground();
  bool FlushDueLocked() const;
  std::string PathIn(const std::string& file) const;
  std::string WalPath(uint64_t seq) const;
  std::string SegmentFileName(uint64_t seq) const;

  const RtOptions options_;

  /// Serializes commits (insert/delete) and snapshot-state mutation.
  mutable std::mutex commit_mu_;
  /// Serializes whole flush/merge operations (their IO runs outside
  /// commit_mu_ so commits keep flowing during a flush).
  std::mutex flush_mu_;

  // --- state below guarded by commit_mu_ ---
  uint32_t next_doc_id_ = 0;
  uint32_t base_docs_ = 0;
  uint64_t manifest_wal_seq_ = 1;  // replay starts at this wal seq
  uint64_t active_wal_seq_ = 1;    // wal file taking new appends
  uint64_t next_segment_seq_ = 1;
  std::optional<WalWriter> wal_;
  std::shared_ptr<const XmlIndex> base_;
  std::vector<RtDocument> ram_docs_;  // current (contiguous) RAM window
  std::vector<std::shared_ptr<const XmlIndex>> ram_micro_;
  std::shared_ptr<const XmlIndex> ram_accum_;
  size_t accum_docs_ = 0;  // prefix of ram_docs_ covered by ram_accum_
  std::vector<SealedRun> sealed_;
  std::vector<DiskSegment> disk_;
  std::shared_ptr<const std::vector<uint32_t>> deleted_;
  std::unordered_map<std::string, uint32_t> live_;  // name -> global id
  uint64_t replayed_records_ = 0;
  uint64_t flushes_ = 0;
  uint64_t merges_ = 0;
  uint64_t purged_docs_ = 0;

  mutable std::mutex snapshot_mu_;  // publication swap only
  std::shared_ptr<const SegmentSetSnapshot> snapshot_;

  std::thread bg_;
  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  bool bg_stop_ = false;
  bool bg_poked_ = false;

  // Cached instruments (gks.rt.*, docs/OBSERVABILITY.md).
  Counter* inserts_total_;
  Counter* deletes_total_;
  Counter* wal_records_total_;
  Counter* wal_bytes_total_;
  Counter* wal_rotations_total_;
  Counter* wal_replayed_total_;
  Counter* flushes_total_;
  Counter* flush_failures_total_;
  Counter* merges_total_;
  Counter* purged_docs_total_;
  Gauge* ram_docs_gauge_;
  Gauge* ram_bytes_gauge_;
  Gauge* disk_segments_gauge_;
  Gauge* tombstones_gauge_;
};

}  // namespace gks

#endif  // GKS_INDEX_RT_INDEX_H_
