#include "index/rt_index.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <tuple>
#include <utility>

#include "common/file_io.h"
#include "common/json_value.h"
#include "common/json_writer.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "index/index_builder.h"
#include "index/segment_merge.h"
#include "index/serialization.h"

namespace gks {
namespace {

constexpr std::string_view kManifestFile = "MANIFEST";
constexpr int kManifestFormat = 1;
// Append the window's micro-segments to a copy of its accumulated
// segment every this many inserts (bounds the per-query segment count).
constexpr size_t kCompactEvery = 16;

Result<uint64_t> FileBytes(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::IOError("stat '" + path + "': " + std::strerror(errno));
  }
  return static_cast<uint64_t>(st.st_size);
}

std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (struct dirent* entry = ::readdir(d)) {
    std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(std::move(name));
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

/// "wal-000007.log" -> 7; 0 when the name is not a wal file.
uint64_t WalSeqOf(const std::string& name) {
  if (name.rfind("wal-", 0) != 0 || name.size() < 9) return 0;
  size_t dot = name.find(".log");
  if (dot == std::string::npos || dot != name.size() - 4) return 0;
  uint64_t seq = 0;
  for (size_t i = 4; i < dot; ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    seq = seq * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return seq;
}

/// One index over `views` (contiguous, in id order): a copy of the first
/// view's index with the others appended. A published index is never
/// mutated, so readers holding older snapshots are untouched.
Result<XmlIndex> CombineViews(const std::vector<SegmentView>& views) {
  XmlIndex combined = *views.front().index;
  uint32_t next_id = views.front().doc_base + views.front().doc_count;
  for (size_t i = 1; i < views.size(); ++i) {
    GKS_RETURN_IF_ERROR(
        AppendDocuments(&combined, *views[i].index, {}, &next_id));
  }
  return combined;
}

}  // namespace

RtIndex::RtIndex(RtOptions options) : options_(std::move(options)) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  inserts_total_ = registry.GetCounter("gks.rt.inserts_total");
  deletes_total_ = registry.GetCounter("gks.rt.deletes_total");
  wal_records_total_ = registry.GetCounter("gks.rt.wal.records_total");
  wal_bytes_total_ = registry.GetCounter("gks.rt.wal.bytes_total");
  wal_rotations_total_ = registry.GetCounter("gks.rt.wal.rotations_total");
  wal_replayed_total_ =
      registry.GetCounter("gks.rt.wal.replayed_records_total");
  flushes_total_ = registry.GetCounter("gks.rt.flushes_total");
  flush_failures_total_ = registry.GetCounter("gks.rt.flush_failures_total");
  merges_total_ = registry.GetCounter("gks.rt.merges_total");
  purged_docs_total_ = registry.GetCounter("gks.rt.purged_docs_total");
  ram_docs_gauge_ = registry.GetGauge("gks.rt.ram_docs");
  ram_bytes_gauge_ = registry.GetGauge("gks.rt.ram_bytes");
  disk_segments_gauge_ = registry.GetGauge("gks.rt.disk_segments");
  tombstones_gauge_ = registry.GetGauge("gks.rt.tombstones");
}

RtIndex::~RtIndex() {
  if (bg_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(bg_mu_);
      bg_stop_ = true;
    }
    bg_cv_.notify_all();
    bg_.join();
  }
}

std::string RtIndex::PathIn(const std::string& file) const {
  return options_.dir + "/" + file;
}

std::string RtIndex::WalPath(uint64_t seq) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%06llu.log",
                static_cast<unsigned long long>(seq));
  return PathIn(buf);
}

std::string RtIndex::SegmentFileName(uint64_t seq) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg-%06llu.gksidx",
                static_cast<unsigned long long>(seq));
  return buf;
}

Result<std::unique_ptr<RtIndex>> RtIndex::Open(RtOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("RtOptions.dir must be set");
  }
  std::unique_ptr<RtIndex> index(new RtIndex(std::move(options)));
  GKS_RETURN_IF_ERROR(index->OpenInternal());
  if (index->options_.background) {
    index->bg_ = std::thread([raw = index.get()] { raw->BackgroundLoop(); });
  }
  return index;
}

Status RtIndex::LoadSegmentFile(DiskSegment* segment) const {
  Result<XmlIndex> loaded = LoadIndex(PathIn(segment->file));
  if (!loaded.ok()) return loaded.status();
  // The file records which documents it holds; a MANIFEST entry that
  // disagrees would map names and tombstones to the wrong documents.
  const uint32_t base = loaded->DocBase();
  const size_t count = loaded->catalog.document_count();
  if (base != segment->doc_base || count != segment->doc_count) {
    return Status::Corruption(
        "MANIFEST entry for '" + segment->file + "' says doc_base " +
        std::to_string(segment->doc_base) + ", doc_count " +
        std::to_string(segment->doc_count) + ", but the file holds " +
        "doc_base " + std::to_string(base) + ", doc_count " +
        std::to_string(count));
  }
  segment->index = std::make_shared<const XmlIndex>(std::move(*loaded));
  return Status::OK();
}

Status RtIndex::OpenInternal() {
  // Base index: immutable, doc ids [0, base_docs). A shard file holds a
  // later range; RT documents numbered from its count would reuse its ids.
  if (!options_.base_index_path.empty()) {
    Result<XmlIndex> base = LoadIndex(options_.base_index_path);
    if (!base.ok()) return base.status();
    const uint32_t doc_base = base->DocBase();
    const uint64_t docs = base->catalog.document_count();
    if (doc_base != 0) {
      return Status::InvalidArgument(
          "base index '" + options_.base_index_path + "' holds documents [" +
          std::to_string(doc_base) + ", " + std::to_string(doc_base + docs) +
          "); an RT base must start at document 0");
    }
    base_ = std::make_shared<const XmlIndex>(std::move(*base));
    base_docs_ = static_cast<uint32_t>(docs);
  }
  next_doc_id_ = base_docs_;

  if (::mkdir(options_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("mkdir '" + options_.dir + "': " +
                           std::strerror(errno));
  }

  // Manifest: the durable segment-set record.
  std::string manifest_bytes;
  Status manifest_status =
      ReadFileToString(PathIn(std::string(kManifestFile)), &manifest_bytes);
  std::set<std::string> referenced;  // files the manifest keeps alive
  if (manifest_status.ok()) {
    GKS_ASSIGN_OR_RETURN(JsonValue manifest,
                         JsonValue::Parse(manifest_bytes));
    if (!manifest.is_object() ||
        manifest.Find("format") == nullptr ||
        manifest.Find("format")->GetInt() != kManifestFormat) {
      return Status::Corruption("unrecognized MANIFEST format in '" +
                                options_.dir + "'");
    }
    uint64_t manifest_base =
        static_cast<uint64_t>(manifest.Find("base_docs") != nullptr
                                  ? manifest.Find("base_docs")->GetInt()
                                  : 0);
    if (manifest_base != base_docs_) {
      return Status::InvalidArgument(
          "base index has " + std::to_string(base_docs_) +
          " documents but the MANIFEST was written against " +
          std::to_string(manifest_base) +
          " — the base file must not change under an RT directory");
    }
    if (const JsonValue* v = manifest.Find("next_doc_id")) {
      next_doc_id_ = static_cast<uint32_t>(v->GetInt());
    }
    if (const JsonValue* v = manifest.Find("wal_seq")) {
      manifest_wal_seq_ = static_cast<uint64_t>(v->GetInt());
    }
    if (const JsonValue* v = manifest.Find("next_segment_seq")) {
      next_segment_seq_ = static_cast<uint64_t>(v->GetInt());
    }
    if (const JsonValue* v = manifest.Find("deleted"); v && v->is_array()) {
      auto dead = std::make_shared<std::vector<uint32_t>>();
      for (const JsonValue& id : v->items()) {
        dead->push_back(static_cast<uint32_t>(id.GetInt()));
      }
      std::sort(dead->begin(), dead->end());
      dead->erase(std::unique(dead->begin(), dead->end()), dead->end());
      deleted_ = std::move(dead);
    }
    if (const JsonValue* v = manifest.Find("segments"); v && v->is_array()) {
      for (const JsonValue& entry : v->items()) {
        DiskSegment segment;
        segment.file = entry.Find("file") ? entry.Find("file")->GetString()
                                          : "";
        segment.doc_base = static_cast<uint32_t>(
            entry.Find("doc_base") ? entry.Find("doc_base")->GetInt() : 0);
        segment.doc_count = static_cast<uint32_t>(
            entry.Find("doc_count") ? entry.Find("doc_count")->GetInt() : 0);
        segment.seq = static_cast<uint64_t>(
            entry.Find("seq") ? entry.Find("seq")->GetInt() : 0);
        if (segment.file.empty()) {
          return Status::Corruption("MANIFEST segment entry without a file");
        }
        GKS_ASSIGN_OR_RETURN(segment.bytes, FileBytes(PathIn(segment.file)));
        GKS_RETURN_IF_ERROR(LoadSegmentFile(&segment));
        referenced.insert(segment.file);
        disk_.push_back(std::move(segment));
      }
    }
  } else if (manifest_status.code() != StatusCode::kNotFound) {
    return manifest_status;
  }
  if (deleted_ == nullptr) {
    deleted_ = std::make_shared<const std::vector<uint32_t>>();
  }

  // Live-name map over the durable segment set (replay refines it).
  auto register_catalog = [this](const XmlIndex& index, uint32_t doc_base) {
    for (uint32_t i = 0; i < index.catalog.document_count(); ++i) {
      uint32_t id = doc_base + i;
      if (std::binary_search(deleted_->begin(), deleted_->end(), id)) {
        continue;
      }
      live_[index.catalog.document(i).name] = id;
    }
  };
  if (base_ != nullptr) register_catalog(*base_, 0);
  for (const DiskSegment& segment : disk_) {
    register_catalog(*segment.index, segment.doc_base);
  }

  // Cleanup: drop files a crashed flush/merge left behind — segment files
  // the manifest never adopted (and the seg-*.docs files older versions
  // wrote) and WAL files it has already retired.
  for (const std::string& name : ListDir(options_.dir)) {
    if (name.rfind("seg-", 0) == 0 && referenced.count(name) == 0) {
      ::unlink(PathIn(name).c_str());
    } else if (uint64_t seq = WalSeqOf(name);
               seq != 0 && seq < manifest_wal_seq_) {
      ::unlink(PathIn(name).c_str());
    } else if (name.size() > 4 &&
               name.compare(name.size() - 4, 4, ".tmp") == 0) {
      ::unlink(PathIn(name).c_str());
    }
  }

  GKS_RETURN_IF_ERROR(Recover());
  std::lock_guard<std::mutex> lock(commit_mu_);
  GKS_RETURN_IF_ERROR(CheckDocumentRangesLocked());
  PublishLocked();
  return Status::OK();
}

Status RtIndex::CheckDocumentRangesLocked() const {
  // Each document id has one home, below next_doc_id. A MANIFEST that
  // breaks this — a rewound next_doc_id, a repeated segment entry — would
  // hand out ids twice, and a flush would make the damage durable.
  std::string previous;  // the last non-empty range
  uint64_t previous_end = 0;
  for (const SegmentView& view : AllViewsLocked()) {
    if (view.doc_count == 0) continue;
    const uint64_t end = uint64_t{view.doc_base} + view.doc_count;
    const std::string range = view.label + " [" +
                              std::to_string(view.doc_base) + ", " +
                              std::to_string(end) + ")";
    if (view.doc_base < previous_end || end > next_doc_id_) {
      return Status::Corruption(
          "RT directory '" + options_.dir + "': " +
          (view.doc_base < previous_end
               ? previous + " overlaps " + range
               : range + " ends past next_doc_id " +
                     std::to_string(next_doc_id_)));
    }
    previous = range;
    previous_end = end;
  }
  return Status::OK();
}

Status RtIndex::Recover() {
  TraceCollector collector("gks");
  ScopedSpan span("rt.wal.replay");

  // Every WAL at or past the manifest's seq participates, in order: a
  // crash between rotation and the manifest commit legitimately leaves
  // two live logs (docs/INDEXING.md § Crash recovery).
  std::vector<uint64_t> seqs;
  for (const std::string& name : ListDir(options_.dir)) {
    uint64_t seq = WalSeqOf(name);
    if (seq >= manifest_wal_seq_ && seq != 0) seqs.push_back(seq);
  }
  std::sort(seqs.begin(), seqs.end());

  active_wal_seq_ = manifest_wal_seq_;
  int64_t tail_valid_bytes = -1;
  for (size_t i = 0; i < seqs.size(); ++i) {
    Result<WalReplay> replay = ReplayWal(WalPath(seqs[i]));
    if (!replay.ok()) return replay.status();
    for (const WalRecord& record : replay->records) {
      GKS_RETURN_IF_ERROR(ApplyReplayRecord(record));
      ++replayed_records_;
      wal_replayed_total_->Increment();
    }
    span.AddItems(replay->records.size());
    span.AddBytes(replay->valid_bytes);
    active_wal_seq_ = seqs[i];
    if (i + 1 == seqs.size()) {
      tail_valid_bytes = static_cast<int64_t>(replay->valid_bytes);
    } else if (!replay->clean) {
      // A torn record in a non-final log means the rotation that created
      // the next log raced the crash in a way the protocol rules out.
      return Status::Corruption("wal '" + WalPath(seqs[i]) +
                                "' has a torn tail but is not the "
                                "newest log");
    }
  }

  GKS_ASSIGN_OR_RETURN(
      WalWriter writer,
      WalWriter::Open(WalPath(active_wal_seq_), options_.fsync,
                      tail_valid_bytes));
  wal_ = std::move(writer);
  return Status::OK();
}

Status RtIndex::ApplyReplayRecord(const WalRecord& record) {
  std::lock_guard<std::mutex> lock(commit_mu_);
  if (record.type == WalRecordType::kInsert) {
    return ApplyInsertLocked({record.doc_id, record.name, record.xml},
                             /*replay=*/true);
  }
  // Delete, keyed by the authoritative doc id: an idempotent tombstone add
  // that applies only while the document is live under that name. A merge
  // may have purged the document since (ids are never reused), or the
  // MANIFEST may already tombstone it.
  auto live = live_.find(record.name);
  if (live == live_.end() || live->second != record.doc_id) {
    return Status::OK();
  }
  live_.erase(live);
  auto dead = std::make_shared<std::vector<uint32_t>>(*deleted_);
  auto it = std::lower_bound(dead->begin(), dead->end(), record.doc_id);
  if (it == dead->end() || *it != record.doc_id) {
    dead->insert(it, record.doc_id);
    deleted_ = std::move(dead);
  }
  return Status::OK();
}

Status RtIndex::ApplyInsertLocked(RtDocument doc, bool replay) {
  // A replayed stream can hold id gaps where a merge reserved a range or
  // a crashed reservation burned one; the live path breaks the window at
  // the same points (SealWindowLocked), so both walks build identical
  // segment runs — the replay-equals-live invariant the crash tests pin.
  if (window_.docs() > 0 && doc.doc_id != window_.end()) {
    SealWindowLocked(/*rotate_wal=*/!replay);
  }
  Result<XmlIndex> micro = BuildSegmentIndex({doc});
  if (!micro.ok()) return micro.status();
  if (!replay) {
    WalRecord record;
    record.type = WalRecordType::kInsert;
    record.doc_id = doc.doc_id;
    record.name = doc.name;
    record.xml = doc.xml;
    GKS_RETURN_IF_ERROR(wal_->Append(record));
    wal_records_total_->Increment();
    wal_bytes_total_->Add(record.name.size() + record.xml.size());
  }
  // Like the segments' documents at open, a replayed document the MANIFEST
  // already tombstones is not live: Delete must not tombstone it twice.
  if (!std::binary_search(deleted_->begin(), deleted_->end(), doc.doc_id)) {
    live_[doc.name] = doc.doc_id;
  }
  next_doc_id_ = std::max(next_doc_id_, doc.doc_id + 1);
  window_.views.push_back(
      {std::make_shared<const XmlIndex>(std::move(*micro)), doc.doc_id, 1,
       "ram"});
  window_.xml_bytes += doc.xml.size();
  if (window_.docs() % kCompactEvery == 0) {
    GKS_RETURN_IF_ERROR(CompactWindowLocked());
  }
  return Status::OK();
}

Status RtIndex::CompactWindowLocked() {
  GKS_ASSIGN_OR_RETURN(XmlIndex accum, CombineViews(window_.views));
  window_.views = {{std::make_shared<const XmlIndex>(std::move(accum)),
                    window_.views.front().doc_base, window_.docs(),
                    "ram-accum"}};
  return Status::OK();
}

void RtIndex::SealWindowLocked(bool rotate_wal) {
  if (window_.docs() == 0) return;
  sealed_.push_back(std::move(window_));
  window_ = RamRun();
  if (rotate_wal) {
    // Best effort: a rotation failure keeps appending to the current log,
    // which only means recovery replays a little more.
    (void)RotateWalLocked();
  }
}

Status RtIndex::RotateWalLocked() {
  uint64_t next_seq = active_wal_seq_ + 1;
  GKS_ASSIGN_OR_RETURN(WalWriter writer,
                       WalWriter::Open(WalPath(next_seq), options_.fsync));
  wal_ = std::move(writer);
  active_wal_seq_ = next_seq;
  wal_rotations_total_->Increment();
  return Status::OK();
}

std::vector<SegmentView> RtIndex::AllViewsLocked() const {
  std::vector<SegmentView> views;
  if (base_ != nullptr) views.push_back({base_, 0, base_docs_, "base"});
  for (const DiskSegment& segment : disk_) {
    views.push_back(
        {segment.index, segment.doc_base, segment.doc_count, segment.file});
  }
  for (const RamRun& run : sealed_) {
    views.insert(views.end(), run.views.begin(), run.views.end());
  }
  views.insert(views.end(), window_.views.begin(), window_.views.end());
  std::sort(views.begin(), views.end(),
            [](const SegmentView& a, const SegmentView& b) {
              return a.doc_base < b.doc_base;
            });
  return views;
}

std::pair<uint64_t, uint64_t> RtIndex::RamTotalsLocked() const {
  uint64_t docs = window_.docs();
  uint64_t bytes = window_.xml_bytes;
  for (const RamRun& run : sealed_) {
    docs += run.docs();
    bytes += run.xml_bytes;
  }
  return {docs, bytes};
}

void RtIndex::PublishLocked() {
  auto snapshot = std::make_shared<SegmentSetSnapshot>();
  snapshot->segments = AllViewsLocked();
  snapshot->deleted = deleted_;
  snapshot->epoch = NextIndexEpoch();
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(snapshot);
  }
  const auto [ram_docs, ram_bytes] = RamTotalsLocked();
  ram_docs_gauge_->Set(static_cast<int64_t>(ram_docs));
  ram_bytes_gauge_->Set(static_cast<int64_t>(ram_bytes));
  disk_segments_gauge_->Set(static_cast<int64_t>(disk_.size()));
  tombstones_gauge_->Set(static_cast<int64_t>(deleted_->size()));
}

Result<uint32_t> RtIndex::Insert(std::string name, std::string xml) {
  ScopedSpan span("rt.commit");
  span.AddBytes(xml.size());
  std::lock_guard<std::mutex> lock(commit_mu_);
  if (live_.count(name) != 0) {
    return Status::AlreadyExists("document '" + name +
                                 "' already exists; delete it first");
  }
  GKS_RETURN_IF_ERROR(ApplyInsertLocked(
      {next_doc_id_, std::move(name), std::move(xml)}, /*replay=*/false));
  inserts_total_->Increment();
  uint32_t id = next_doc_id_ - 1;
  PublishLocked();
  if (FlushDueLocked()) PokeBackground();
  return id;
}

Result<bool> RtIndex::Delete(const std::string& name) {
  ScopedSpan span("rt.commit");
  std::lock_guard<std::mutex> lock(commit_mu_);
  auto it = live_.find(name);
  if (it == live_.end()) return false;
  uint32_t doc_id = it->second;
  WalRecord record;
  record.type = WalRecordType::kDelete;
  record.doc_id = doc_id;
  record.name = name;
  GKS_RETURN_IF_ERROR(wal_->Append(record));
  wal_records_total_->Increment();
  wal_bytes_total_->Add(record.name.size());
  auto dead = std::make_shared<std::vector<uint32_t>>(*deleted_);
  dead->insert(std::lower_bound(dead->begin(), dead->end(), doc_id), doc_id);
  deleted_ = std::move(dead);
  live_.erase(it);
  deletes_total_->Increment();
  PublishLocked();
  return true;
}

bool RtIndex::FlushDueLocked() const {
  return !sealed_.empty() || window_.docs() >= options_.flush_docs ||
         window_.xml_bytes >= options_.flush_bytes;
}

Result<RtIndex::DiskSegment> RtIndex::WriteSegment(const XmlIndex& index) {
  DiskSegment segment;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    segment.seq = next_segment_seq_++;
  }
  segment.file = SegmentFileName(segment.seq);
  segment.doc_base = index.DocBase();
  segment.doc_count = static_cast<uint32_t>(index.catalog.document_count());
  GKS_RETURN_IF_ERROR(SaveIndex(index, PathIn(segment.file)));
  GKS_ASSIGN_OR_RETURN(segment.bytes, FileBytes(PathIn(segment.file)));
  GKS_RETURN_IF_ERROR(LoadSegmentFile(&segment));
  return segment;
}

Status RtIndex::Flush() {
  std::lock_guard<std::mutex> flush_lock(flush_mu_);
  std::vector<RamRun> runs;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    SealWindowLocked(/*rotate_wal=*/true);
    if (sealed_.empty()) return Status::OK();
    runs = sealed_;  // copy: the sealed runs stay searchable until swap
  }

  TraceCollector collector("gks");
  Status status = [&]() -> Status {
    ScopedSpan span("rt.flush");
    // Combine every sealed run into its own immutable segment. This runs
    // outside commit_mu_, so inserts keep committing meanwhile.
    std::vector<DiskSegment> built;
    for (const RamRun& run : runs) {
      GKS_ASSIGN_OR_RETURN(XmlIndex index, CombineViews(run.views));
      GKS_ASSIGN_OR_RETURN(DiskSegment segment, WriteSegment(index));
      span.AddItems(segment.doc_count);
      span.AddBytes(segment.bytes);
      built.push_back(std::move(segment));
    }

    uint64_t retire_below;
    {
      std::lock_guard<std::mutex> lock(commit_mu_);
      // Adopt the segments, drop the sealed runs they replace, make it
      // durable. New commits since the seal live in the rotated WAL,
      // which is exactly what the manifest now points at.
      sealed_.erase(sealed_.begin(),
                    sealed_.begin() + static_cast<long>(runs.size()));
      for (DiskSegment& segment : built) disk_.push_back(std::move(segment));
      manifest_wal_seq_ = active_wal_seq_;
      GKS_RETURN_IF_ERROR(WriteManifestLocked());
      ++flushes_;
      PublishLocked();
      retire_below = manifest_wal_seq_;
    }
    // Only now is the old WAL redundant.
    for (const std::string& name : ListDir(options_.dir)) {
      uint64_t seq = WalSeqOf(name);
      if (seq != 0 && seq < retire_below) ::unlink(PathIn(name).c_str());
    }
    flushes_total_->Increment();
    return Status::OK();
  }();
  if (!status.ok()) flush_failures_total_->Increment();
  return status;
}

Status RtIndex::MaybeMerge() {
  if (options_.merge_fanout < 2) return Status::OK();
  std::lock_guard<std::mutex> flush_lock(flush_mu_);

  std::vector<DiskSegment> inputs;
  // The inputs' documents tombstoned at pick, sorted: the merge leaves
  // them out, which purges them for good.
  std::vector<uint32_t> purged;
  uint32_t new_base = 0;
  uint32_t survivors = 0;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    std::vector<uint64_t> bytes;
    for (const DiskSegment& segment : disk_) bytes.push_back(segment.bytes);
    std::vector<size_t> picked =
        PickMergeInputs(bytes, options_.merge_fanout);
    if (picked.empty()) return Status::OK();
    for (size_t i : picked) inputs.push_back(disk_[i]);
    for (const DiskSegment& input : inputs) {
      for (uint32_t id = input.doc_base;
           id - input.doc_base < input.doc_count; ++id) {
        if (std::binary_search(deleted_->begin(), deleted_->end(), id)) {
          purged.push_back(id);
        } else {
          ++survivors;
        }
      }
    }
    std::sort(purged.begin(), purged.end());
    // The RAM window must not interleave with the reserved id range, or
    // its doc ids would stop being contiguous — seal it first (cheap: no
    // IO under the lock; the runs flush on the next Flush).
    SealWindowLocked(/*rotate_wal=*/true);
    new_base = next_doc_id_;
    next_doc_id_ += survivors;
  }

  TraceCollector collector("gks");
  ScopedSpan span("rt.merge");

  // The survivors of the inputs' loaded indexes, in input order, numbered
  // from the reserved base into a fresh contiguous id range.
  XmlIndex merged;
  uint32_t next_id = new_base;
  std::vector<std::pair<uint32_t, uint32_t>> id_map_pairs;
  for (const DiskSegment& input : inputs) {
    GKS_RETURN_IF_ERROR(AppendDocuments(&merged, *input.index, purged,
                                        &next_id, &id_map_pairs));
  }
  if (next_id != new_base + survivors) {  // would overlap the next insert
    return Status::Corruption(
        "merge kept " + std::to_string(next_id - new_base) +
        " documents but reserved " + std::to_string(survivors) + " ids");
  }

  DiskSegment output;
  bool has_output = merged.catalog.document_count() > 0;
  if (has_output) {
    GKS_ASSIGN_OR_RETURN(output, WriteSegment(merged));
    span.AddItems(output.doc_count);
    span.AddBytes(output.bytes);
  }

  std::unordered_map<uint32_t, uint32_t> id_map(id_map_pairs.begin(),
                                                id_map_pairs.end());
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    // Retire the inputs, adopt the output.
    std::set<uint64_t> input_seqs;
    for (const DiskSegment& input : inputs) input_seqs.insert(input.seq);
    std::erase_if(disk_, [&](const DiskSegment& segment) {
      return input_seqs.count(segment.seq) != 0;
    });
    if (has_output) disk_.push_back(std::move(output));
    // Translate tombstones: survivors deleted while the merge ran keep
    // their tombstone under the new id; the purged documents leave the set
    // for good. Names map the same way.
    auto dead = std::make_shared<std::vector<uint32_t>>();
    for (uint32_t id : *deleted_) {
      if (auto it = id_map.find(id); it != id_map.end()) {
        dead->push_back(it->second);
      } else if (!std::binary_search(purged.begin(), purged.end(), id)) {
        dead->push_back(id);
      }
    }
    std::sort(dead->begin(), dead->end());
    deleted_ = std::move(dead);
    for (auto& [name, id] : live_) {
      if (auto it = id_map.find(id); it != id_map.end()) id = it->second;
    }
    purged_docs_ += purged.size();
    ++merges_;
    GKS_RETURN_IF_ERROR(WriteManifestLocked());
    PublishLocked();
  }
  for (const DiskSegment& input : inputs) {
    ::unlink(PathIn(input.file).c_str());
  }
  merges_total_->Increment();
  purged_docs_total_->Add(purged.size());
  return Status::OK();
}

Status RtIndex::WriteManifestLocked() {
  JsonWriter json;
  json.BeginObject();
  json.Key("format").Int(kManifestFormat);
  json.Key("base_docs").UInt(base_docs_);
  json.Key("next_doc_id").UInt(next_doc_id_);
  json.Key("wal_seq").UInt(manifest_wal_seq_);
  json.Key("next_segment_seq").UInt(next_segment_seq_);
  json.Key("deleted").BeginArray();
  for (uint32_t id : *deleted_) json.UInt(id);
  json.EndArray();
  json.Key("segments").BeginArray();
  for (const DiskSegment& segment : disk_) {
    json.BeginObject();
    json.Key("seq").UInt(segment.seq);
    json.Key("file").String(segment.file);
    json.Key("doc_base").UInt(segment.doc_base);
    json.Key("doc_count").UInt(segment.doc_count);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return WriteStringToFile(PathIn(std::string(kManifestFile)), json.Take());
}

std::shared_ptr<const SegmentSetSnapshot> RtIndex::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

uint64_t RtIndex::epoch() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_ != nullptr ? snapshot_->epoch : 0;
}

RtStats RtIndex::Stats() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  RtStats stats;
  std::tie(stats.ram_docs, stats.ram_bytes) = RamTotalsLocked();
  stats.disk_segments = disk_.size();
  stats.tombstones = deleted_->size();
  stats.live_docs = live_.size();
  stats.next_doc_id = next_doc_id_;
  stats.wal_records = wal_ ? wal_->records() : 0;
  stats.replayed_records = replayed_records_;
  stats.flushes = flushes_;
  stats.merges = merges_;
  stats.purged_docs = purged_docs_;
  return stats;
}

void RtIndex::PokeBackground() {
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    bg_poked_ = true;
  }
  bg_cv_.notify_one();
}

void RtIndex::BackgroundLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(bg_mu_);
      bg_cv_.wait_for(lock, std::chrono::milliseconds(200),
                      [this] { return bg_stop_ || bg_poked_; });
      if (bg_stop_) return;
      bg_poked_ = false;
    }
    bool due;
    {
      std::lock_guard<std::mutex> lock(commit_mu_);
      due = FlushDueLocked();
    }
    if (due) {
      if (Status status = Flush(); !status.ok()) {
        std::fprintf(stderr, "gks-rt: flush failed: %s\n",
                     status.ToString().c_str());
        continue;
      }
      if (Status status = MaybeMerge(); !status.ok()) {
        std::fprintf(stderr, "gks-rt: merge failed: %s\n",
                     status.ToString().c_str());
      }
    }
  }
}

}  // namespace gks
