#ifndef GKS_SERVER_INDEX_STATE_H_
#define GKS_SERVER_INDEX_STATE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "index/rt_index.h"
#include "index/xml_index.h"

namespace gks {

/// The server's resident index: an atomically swappable segment-set
/// snapshot behind a shared_ptr, in every mode. Queries copy the pointer
/// once at admission and run against that immutable snapshot for their
/// whole lifetime, so a concurrent Reload never invalidates an in-flight
/// query — the retired index stays alive until the last query holding it
/// drops its reference.
///
/// A static or shard index file is served as a set of one segment
/// (OneSegmentSnapshot), its document range read from the file. Epoch
/// discipline: every load stamps a fresh process-unique XmlIndex::epoch,
/// which is the snapshot's epoch, and the server's response cache
/// (server/wire_cache.h) keys on it, so answers built against the retired
/// snapshot can never be served for the new one (and vice versa) — hot
/// reload requires no cache flush at all (docs/SERVER.md).
///
/// The swap itself is a pointer assignment under a mutex (shared_ptr copy
/// in/out); the expensive load happens outside the lock, so readers are
/// never blocked behind disk I/O.
///
/// Real-time mode (docs/INDEXING.md): constructed with RtOptions, the
/// state owns an RtIndex instead of a single XmlIndex. Its snapshots
/// follow the same epoch discipline (every commit publishes a new one);
/// writes go through RtInsert/RtDelete, and Reload closes and reopens the
/// whole RT directory — recovery-from-WAL exercised as a hot path.
class ServerIndexState {
 public:
  explicit ServerIndexState(std::string path) : path_(std::move(path)) {}

  /// Switches to real-time mode before Load: `options.dir` is the RT
  /// home, `options.base_index_path` the optional offline base.
  void EnableRt(RtOptions options) {
    rt_options_ = std::move(options);
    rt_mode_ = true;
    path_ = rt_options_.dir;
  }

  /// True when this state serves a real-time index.
  bool rt() const { return rt_mode_; }

  /// Initial load; the server refuses to start without one good index.
  Status Load();

  /// Classic mode: loads a fresh index from `path_override` (empty = the
  /// current path) and swaps it in; on failure the old snapshot keeps
  /// serving untouched. RT mode: flushes, closes, and reopens the RT
  /// directory (the override must be empty — an RT server is bound to its
  /// directory). Serialized internally — concurrent reloads queue, and RT
  /// writes queue behind a reload.
  Result<uint64_t> Reload(const std::string& path_override = "");

  /// The current snapshot. Never null after a successful Load; in RT
  /// mode it stays valid (possibly one commit stale) during a reload
  /// swap.
  std::shared_ptr<const SegmentSetSnapshot> snapshot() const;

  /// RT writes; RtDisabled-equivalent (NotSupported) in classic mode.
  /// Serialized against Reload, so a write never lands in a closing
  /// index.
  Result<uint32_t> RtInsert(std::string name, std::string xml);
  Result<bool> RtDelete(const std::string& name);
  Status RtFlush();
  Result<RtStats> GetRtStats() const;

  /// Epoch of the current snapshot; 0 before the first Load.
  uint64_t epoch() const;

  /// The path the current snapshot was loaded from (copy: reloads may
  /// retarget it concurrently). RT mode: the RT directory.
  std::string path() const;

 private:
  /// The live RtIndex under mu_ (copy out, use outside the lock).
  std::shared_ptr<RtIndex> rt_index() const;

  std::string path_;
  RtOptions rt_options_;
  bool rt_mode_ = false;
  mutable std::mutex mu_;        // guards snapshot_/rt_/path_ swaps
  std::mutex reload_mu_;         // serializes reloads (and RT writes)
  std::shared_ptr<RtIndex> rt_;
  /// The static index's one-segment set; in RT mode the last snapshot
  /// handed out, which keeps queries served during the brief close-reopen
  /// window of an RT reload.
  mutable std::shared_ptr<const SegmentSetSnapshot> snapshot_;
};

}  // namespace gks

#endif  // GKS_SERVER_INDEX_STATE_H_
