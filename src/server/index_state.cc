#include "server/index_state.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "index/serialization.h"

namespace gks {

Status ServerIndexState::Load() {
  if (rt_mode_) {
    GKS_ASSIGN_OR_RETURN(std::unique_ptr<RtIndex> rt,
                         RtIndex::Open(rt_options_));
    std::lock_guard<std::mutex> lock(mu_);
    rt_ = std::move(rt);
    snapshot_ = rt_->snapshot();
    path_ = rt_options_.dir;
    return Status::OK();
  }
  GKS_ASSIGN_OR_RETURN(XmlIndex index, LoadIndex(path_));
  auto loaded =
      OneSegmentSnapshot(std::make_shared<const XmlIndex>(std::move(index)));
  std::lock_guard<std::mutex> lock(mu_);
  snapshot_ = std::move(loaded);
  return Status::OK();
}

Result<uint64_t> ServerIndexState::Reload(const std::string& path_override) {
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  if (rt_mode_) {
    if (!path_override.empty()) {
      return Status::InvalidArgument(
          "a real-time server is bound to its --rt directory; "
          "reload takes no path");
    }
    // Durable first, then close-and-reopen: the reopen replays whatever
    // the flush did not cover, so this doubles as a live recovery drill.
    std::shared_ptr<RtIndex> old;
    {
      std::lock_guard<std::mutex> lock(mu_);
      old = rt_;
    }
    if (old == nullptr) return Status::InvalidArgument("not loaded");
    GKS_RETURN_IF_ERROR(old->Flush());
    {
      std::lock_guard<std::mutex> lock(mu_);
      rt_.reset();  // queries fall back to snapshot_
    }
    // Wait out transient rt_index() copies (no new ones can appear: rt_
    // is null and writes serialize behind reload_mu_), so the old index —
    // background thread, WAL fd — is fully down before the reopen.
    while (old.use_count() > 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    old.reset();
    GKS_ASSIGN_OR_RETURN(std::unique_ptr<RtIndex> reopened,
                         RtIndex::Open(rt_options_));
    uint64_t epoch = reopened->epoch();
    {
      std::lock_guard<std::mutex> lock(mu_);
      rt_ = std::move(reopened);
      snapshot_ = rt_->snapshot();
    }
    MetricsRegistry::Global().GetCounter("gks.server.reloads_total")
        ->Increment();
    return epoch;
  }
  std::string path = path_override.empty() ? path_ : path_override;
  // The load runs outside mu_: queries keep taking snapshots of the old
  // index while the new one decodes.
  GKS_ASSIGN_OR_RETURN(XmlIndex index, LoadIndex(path));
  auto loaded =
      OneSegmentSnapshot(std::make_shared<const XmlIndex>(std::move(index)));
  uint64_t epoch = loaded->epoch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot_ = std::move(loaded);
    path_ = std::move(path);
  }
  MetricsRegistry::Global().GetCounter("gks.server.reloads_total")
      ->Increment();
  return epoch;
}

std::shared_ptr<RtIndex> ServerIndexState::rt_index() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rt_;
}

std::shared_ptr<const SegmentSetSnapshot> ServerIndexState::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (rt_ != nullptr) snapshot_ = rt_->snapshot();
  return snapshot_;
}

Result<uint32_t> ServerIndexState::RtInsert(std::string name,
                                            std::string xml) {
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  std::shared_ptr<RtIndex> rt = rt_index();
  if (rt == nullptr) {
    return Status::NotSupported("server is not running in real-time mode");
  }
  return rt->Insert(std::move(name), std::move(xml));
}

Result<bool> ServerIndexState::RtDelete(const std::string& name) {
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  std::shared_ptr<RtIndex> rt = rt_index();
  if (rt == nullptr) {
    return Status::NotSupported("server is not running in real-time mode");
  }
  return rt->Delete(name);
}

Status ServerIndexState::RtFlush() {
  // No reload_mu_: Flush is internally serialized against background
  // work, and blocking writes behind a long flush would defeat the
  // point of the RAM delta.
  std::shared_ptr<RtIndex> rt = rt_index();
  if (rt == nullptr) {
    return Status::NotSupported("server is not running in real-time mode");
  }
  Status status = rt->Flush();
  if (!status.ok()) return status;
  return rt->MaybeMerge();
}

Result<RtStats> ServerIndexState::GetRtStats() const {
  std::shared_ptr<RtIndex> rt = rt_index();
  if (rt == nullptr) {
    return Status::NotSupported("server is not running in real-time mode");
  }
  return rt->Stats();
}

uint64_t ServerIndexState::epoch() const {
  std::shared_ptr<const SegmentSetSnapshot> current = snapshot();
  return current != nullptr ? current->epoch : 0;
}

std::string ServerIndexState::path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return path_;
}

}  // namespace gks
