// RtIndex lifecycle (docs/INDEXING.md): commit visibility, duplicate
// handling, flush durability, WAL crash recovery (including the
// replay-then-flush byte-equivalence), tombstone purging via merge,
// base-index composition, document-range checks at open, and the
// one-parse rule: flushed and merged segment files equal BuildSegmentIndex
// over their documents, and no step after the insert parses XML.

#include "index/rt_index.h"

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "common/file_io.h"
#include "common/metrics.h"
#include "core/searcher.h"
#include "index/serialization.h"
#include "index/shard.h"
#include "index/wal.h"
#include "tests/test_util.h"

namespace gks {
namespace {

namespace fs = std::filesystem;

/// A fresh (empty) RT home directory for this test.
std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "gks_rt_" + name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir;
}

/// Test defaults: no background thread (flush/merge driven explicitly),
/// no per-commit fsync (the tests exit cleanly; durability is the
/// kernel's problem), tiny thresholds so nothing auto-triggers.
RtOptions TestOptions(std::string dir) {
  RtOptions options;
  options.dir = std::move(dir);
  options.background = false;
  options.fsync = false;
  options.flush_docs = 1u << 20;  // never auto-due in tests
  options.flush_bytes = 1ull << 30;
  options.merge_fanout = 2;
  return options;
}

std::unique_ptr<RtIndex> OpenOrDie(RtOptions options) {
  Result<std::unique_ptr<RtIndex>> rt = RtIndex::Open(std::move(options));
  EXPECT_TRUE(rt.ok()) << rt.status().ToString();
  return std::move(rt).value();
}

uint32_t InsertOrDie(RtIndex& rt, std::string name, std::string xml) {
  Result<uint32_t> id = rt.Insert(std::move(name), std::move(xml));
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  return id.ok() ? *id : 0;
}

std::string BookXml(const std::string& word) {
  return "<book><title>" + word + " story</title><author>smith</author>"
         "</book>";
}

/// Names of every live document in the snapshot, by scanning the global
/// id space (the only external view of the live set).
std::vector<std::string> LiveNames(const RtIndex& rt) {
  std::shared_ptr<const SegmentSetSnapshot> snapshot = rt.snapshot();
  std::vector<std::string> names;
  for (uint32_t id = 0; id < rt.Stats().next_doc_id; ++id) {
    if (snapshot->IsDeleted(id)) continue;
    if (const Catalog::DocumentInfo* info = snapshot->Document(id)) {
      names.push_back(info->name);
    }
  }
  return names;
}

std::string FileContents(const std::string& path) {
  std::string bytes;
  Status status = ReadFileToString(path, &bytes);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return bytes;
}

/// The bytes a fresh build writes for `docs` (name, xml) numbered from
/// `first_id`: what every flushed or merged segment file must equal.
std::string OracleSegmentBytes(
    uint32_t first_id,
    const std::vector<std::pair<std::string, std::string>>& docs) {
  std::vector<RtDocument> numbered;
  for (const auto& [name, xml] : docs) {
    numbered.push_back({first_id++, name, xml});
  }
  Result<XmlIndex> index = BuildSegmentIndex(numbered);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return index.ok() ? SerializeIndex(*index) : std::string();
}

/// Every answer to `query` as "doc name @ node id", in rank order.
std::vector<std::string> Answers(const RtIndex& rt, const std::string& query) {
  std::shared_ptr<const SegmentSetSnapshot> snapshot = rt.snapshot();
  GksSearcher searcher(snapshot);
  Result<SearchResponse> response = searcher.Search(query, SearchOptions());
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  std::vector<std::string> answers;
  if (!response.ok()) return answers;
  for (const GksNode& node : response->nodes) {
    const Catalog::DocumentInfo* doc = snapshot->Document(node.id.doc_id());
    answers.push_back((doc != nullptr ? doc->name : "?") + " @ " +
                      node.id.ToString());
  }
  return answers;
}

/// `text` with its first `from` replaced by `to`.
std::string ReplaceFirst(std::string text, const std::string& from,
                         const std::string& to) {
  const size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from << " is not in " << text;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

/// Rewrites the first occurrence of `from` in the MANIFEST of `dir`.
void RewriteManifest(const std::string& dir, const std::string& from,
                     const std::string& to) {
  const std::string path = dir + "/MANIFEST";
  ASSERT_TRUE(
      WriteStringToFile(path, ReplaceFirst(FileContents(path), from, to))
          .ok());
}

TEST(RtIndexTest, InsertIsVisibleInTheNextSnapshotWithoutFlush) {
  auto rt = OpenOrDie(TestOptions(FreshDir("visible")));
  uint64_t epoch0 = rt->epoch();

  uint32_t a = InsertOrDie(*rt, "a.xml", BookXml("alpha"));
  EXPECT_EQ(a, 0u);
  EXPECT_GT(rt->epoch(), epoch0);  // a new snapshot was published

  std::shared_ptr<const SegmentSetSnapshot> snapshot = rt->snapshot();
  ASSERT_NE(snapshot->Document(a), nullptr);
  EXPECT_EQ(snapshot->Document(a)->name, "a.xml");
  EXPECT_EQ(snapshot->LiveDocuments(), 1u);
  EXPECT_EQ(rt->Stats().ram_docs, 1u);
  EXPECT_EQ(rt->Stats().disk_segments, 0u);  // no flush happened

  // In-flight readers keep their snapshot: the pre-insert epoch0 snapshot
  // object is untouched by the publish (copy-on-publish, never in-place).
  uint32_t b = InsertOrDie(*rt, "b.xml", BookXml("beta"));
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(snapshot->LiveDocuments(), 1u);
  EXPECT_EQ(rt->snapshot()->LiveDocuments(), 2u);
}

TEST(RtIndexTest, DeleteMasksImmediatelyAndIsIdempotent) {
  auto rt = OpenOrDie(TestOptions(FreshDir("delete")));
  uint32_t a = InsertOrDie(*rt, "a.xml", BookXml("alpha"));
  InsertOrDie(*rt, "b.xml", BookXml("beta"));

  Result<bool> found = rt->Delete("a.xml");
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_TRUE(*found);
  EXPECT_TRUE(rt->snapshot()->IsDeleted(a));
  EXPECT_EQ(rt->snapshot()->LiveDocuments(), 1u);
  EXPECT_EQ(rt->Stats().tombstones, 1u);

  // Deleting a name that is not live is not an error — just not found.
  found = rt->Delete("a.xml");
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE(*found);
  found = rt->Delete("never-existed.xml");
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE(*found);
  EXPECT_EQ(rt->Stats().tombstones, 1u);
}

TEST(RtIndexTest, DuplicateNameIsRejectedUntilDeleted) {
  auto rt = OpenOrDie(TestOptions(FreshDir("dup")));
  InsertOrDie(*rt, "a.xml", BookXml("alpha"));

  Result<uint32_t> dup = rt->Insert("a.xml", BookXml("other"));
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);

  ASSERT_TRUE(rt->Delete("a.xml").ok());
  uint32_t again = InsertOrDie(*rt, "a.xml", BookXml("reborn"));
  EXPECT_EQ(again, 1u);  // ids are never reused
  EXPECT_EQ(LiveNames(*rt), std::vector<std::string>{"a.xml"});
}

TEST(RtIndexTest, MalformedXmlLeavesStateUnchanged) {
  auto rt = OpenOrDie(TestOptions(FreshDir("badxml")));
  uint64_t epoch = rt->epoch();
  Result<uint32_t> bad = rt->Insert("bad.xml", "<book><unclosed>");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(rt->epoch(), epoch);
  EXPECT_EQ(rt->Stats().next_doc_id, 0u);
  EXPECT_TRUE(LiveNames(*rt).empty());
}

TEST(RtIndexTest, FlushMakesSegmentsDurableAcrossReopen) {
  std::string dir = FreshDir("flush");
  {
    auto rt = OpenOrDie(TestOptions(dir));
    InsertOrDie(*rt, "a.xml", BookXml("alpha"));
    InsertOrDie(*rt, "b.xml", BookXml("beta"));
    ASSERT_TRUE(rt->Delete("b.xml").ok());
    Status status = rt->Flush();
    ASSERT_TRUE(status.ok()) << status.ToString();
    RtStats stats = rt->Stats();
    EXPECT_EQ(stats.ram_docs, 0u);
    EXPECT_EQ(stats.disk_segments, 1u);
    EXPECT_EQ(stats.flushes, 1u);
  }
  auto rt = OpenOrDie(TestOptions(dir));
  EXPECT_EQ(rt->Stats().disk_segments, 1u);
  EXPECT_EQ(rt->Stats().replayed_records, 0u);  // the WAL was retired
  EXPECT_EQ(LiveNames(*rt), std::vector<std::string>{"a.xml"});
  EXPECT_EQ(rt->Stats().next_doc_id, 2u);  // allocation point survives
}

TEST(RtIndexTest, ManifestDisagreeingWithItsSegmentFileFailsToOpen) {
  // A segment file records which documents it holds; a MANIFEST entry
  // with another doc_base or doc_count would map names and tombstones to
  // the wrong documents, so Open refuses it, naming the file.
  std::string dir = FreshDir("manifest_range");
  {
    auto rt = OpenOrDie(TestOptions(dir));
    InsertOrDie(*rt, "a.xml", BookXml("alpha"));
    InsertOrDie(*rt, "b.xml", BookXml("beta"));
    Status status = rt->Flush();
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  const std::string manifest_path = dir + "/MANIFEST";
  const std::string manifest = FileContents(manifest_path);
  const size_t file_at = manifest.find("seg-");
  ASSERT_NE(file_at, std::string::npos) << manifest;
  const std::string segment_file =
      manifest.substr(file_at, manifest.find('"', file_at) - file_at);
  const std::vector<std::pair<std::string, std::string>> rewrites = {
      {"\"doc_base\":0", "\"doc_base\":1"},
      {"\"doc_count\":2", "\"doc_count\":1"},
  };
  for (const auto& [field, wrong] : rewrites) {
    SCOPED_TRACE(wrong);
    std::string rewritten = manifest;
    const size_t at = rewritten.find(field);
    ASSERT_NE(at, std::string::npos) << manifest;
    rewritten.replace(at, field.size(), wrong);
    ASSERT_TRUE(WriteStringToFile(manifest_path, rewritten).ok());
    Result<std::unique_ptr<RtIndex>> rt = RtIndex::Open(TestOptions(dir));
    ASSERT_FALSE(rt.ok());
    EXPECT_EQ(rt.status().code(), StatusCode::kCorruption);
    EXPECT_NE(rt.status().message().find(segment_file), std::string::npos)
        << rt.status().ToString();
  }
  // The intact MANIFEST still opens, every document where it was.
  ASSERT_TRUE(WriteStringToFile(manifest_path, manifest).ok());
  auto rt = OpenOrDie(TestOptions(dir));
  EXPECT_EQ(LiveNames(*rt), (std::vector<std::string>{"a.xml", "b.xml"}));
}

TEST(RtIndexTest, WalReplayRestoresUnflushedState) {
  std::string dir = FreshDir("replay");
  {
    auto rt = OpenOrDie(TestOptions(dir));
    InsertOrDie(*rt, "a.xml", BookXml("alpha"));
    InsertOrDie(*rt, "b.xml", BookXml("beta"));
    InsertOrDie(*rt, "c.xml", BookXml("gamma"));
    ASSERT_TRUE(rt->Delete("b.xml").ok());
    // No Flush: everything committed lives only in the WAL, exactly the
    // state a kill -9 leaves behind (the destructor never flushes).
  }
  auto rt = OpenOrDie(TestOptions(dir));
  EXPECT_EQ(rt->Stats().replayed_records, 4u);
  EXPECT_EQ(rt->Stats().disk_segments, 0u);
  EXPECT_EQ(LiveNames(*rt),
            (std::vector<std::string>{"a.xml", "c.xml"}));
  EXPECT_EQ(rt->Stats().next_doc_id, 3u);

  // The recovered index keeps working: new ids continue the sequence and
  // the duplicate check still sees the replayed names.
  EXPECT_EQ(rt->Insert("a.xml", BookXml("dup")).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(InsertOrDie(*rt, "d.xml", BookXml("delta")), 3u);
}

TEST(RtIndexTest, TornWalTailIsTruncatedOnRecovery) {
  std::string dir = FreshDir("torn");
  {
    auto rt = OpenOrDie(TestOptions(dir));
    InsertOrDie(*rt, "a.xml", BookXml("alpha"));
    InsertOrDie(*rt, "b.xml", BookXml("beta"));
  }
  // Simulate the torn final write of a crash: garbage after the last
  // committed record of the newest (only) log.
  std::string wal = dir + "/wal-000001.log";
  ASSERT_TRUE(fs::exists(wal));
  {
    std::ofstream out(wal, std::ios::binary | std::ios::app);
    out << "\x01\x02half-a-record";
  }
  auto rt = OpenOrDie(TestOptions(dir));
  EXPECT_EQ(LiveNames(*rt), (std::vector<std::string>{"a.xml", "b.xml"}));

  // The tail was truncated before the first post-recovery append, so the
  // log stays replayable end to end.
  InsertOrDie(*rt, "c.xml", BookXml("gamma"));
  rt.reset();
  Result<WalReplay> replay = ReplayWal(wal);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->clean);
  EXPECT_EQ(replay->records.size(), 3u);
}

TEST(RtIndexTest, ReplayThenFlushMatchesDirectFlushByteForByte) {
  // The crash-recovery acceptance bar: a flush after WAL replay produces
  // the same segment file as the flush the crash interrupted would have,
  // and both equal a fresh build over the documents.
  std::vector<std::pair<std::string, std::string>> docs = {
      {"a.xml", BookXml("alpha")},
      {"b.xml", BookXml("beta")},
      {"c.xml", BookXml("gamma")},
      {"d.xml", BookXml("delta")},
  };

  std::string direct_dir = FreshDir("direct");
  {
    auto rt = OpenOrDie(TestOptions(direct_dir));
    for (const auto& [name, xml] : docs) InsertOrDie(*rt, name, xml);
    ASSERT_TRUE(rt->Flush().ok());
  }

  std::string crashed_dir = FreshDir("crashed");
  {
    auto rt = OpenOrDie(TestOptions(crashed_dir));
    for (const auto& [name, xml] : docs) InsertOrDie(*rt, name, xml);
    // "Crash" before the flush; only the WAL survives.
  }
  {
    auto rt = OpenOrDie(TestOptions(crashed_dir));
    EXPECT_EQ(rt->Stats().replayed_records, docs.size());
    ASSERT_TRUE(rt->Flush().ok());
  }

  const std::string file = "/seg-000001.gksidx";
  ASSERT_TRUE(fs::exists(direct_dir + file));
  ASSERT_TRUE(fs::exists(crashed_dir + file));
  EXPECT_EQ(FileContents(direct_dir + file), FileContents(crashed_dir + file));
  EXPECT_EQ(FileContents(direct_dir + file), OracleSegmentBytes(0, docs));
}

TEST(RtIndexTest, MergePurgesTombstonesAndRenumbersSurvivors) {
  const std::string dir = FreshDir("merge");
  auto rt = OpenOrDie(TestOptions(dir));
  InsertOrDie(*rt, "a.xml", BookXml("alpha"));
  InsertOrDie(*rt, "b.xml", BookXml("beta"));
  ASSERT_TRUE(rt->Flush().ok());
  InsertOrDie(*rt, "c.xml", BookXml("gamma"));
  InsertOrDie(*rt, "d.xml", BookXml("delta"));
  ASSERT_TRUE(rt->Flush().ok());
  ASSERT_TRUE(rt->Delete("b.xml").ok());
  ASSERT_EQ(rt->Stats().disk_segments, 2u);
  ASSERT_EQ(rt->Stats().tombstones, 1u);

  Status status = rt->MaybeMerge();  // fanout 2: both segments merge
  ASSERT_TRUE(status.ok()) << status.ToString();
  RtStats stats = rt->Stats();
  EXPECT_EQ(stats.merges, 1u);
  EXPECT_EQ(stats.disk_segments, 1u);
  EXPECT_EQ(stats.purged_docs, 1u);
  EXPECT_EQ(stats.tombstones, 0u);  // the only tombstone is gone for good
  EXPECT_EQ(stats.live_docs, 3u);
  EXPECT_EQ(LiveNames(*rt),
            (std::vector<std::string>{"a.xml", "c.xml", "d.xml"}));
  // The merged file is a fresh build over the survivors, renumbered from
  // the first free id (4), in input order.
  EXPECT_EQ(FileContents(dir + "/seg-000003.gksidx"),
            OracleSegmentBytes(4, {{"a.xml", BookXml("alpha")},
                                   {"c.xml", BookXml("gamma")},
                                   {"d.xml", BookXml("delta")}}));
  EXPECT_FALSE(fs::exists(dir + "/seg-000001.gksidx"));
  EXPECT_FALSE(fs::exists(dir + "/seg-000002.gksidx"));

  // Renumbered names stay deletable (live_ was remapped to the new ids).
  Result<bool> found = rt->Delete("d.xml");
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_TRUE(*found);
  EXPECT_EQ(LiveNames(*rt), (std::vector<std::string>{"a.xml", "c.xml"}));
}

TEST(RtIndexTest, MergeOfOnlyDeletedDocumentsLeavesNoSegment) {
  const std::string dir = FreshDir("merge_all_dead");
  {
    auto rt = OpenOrDie(TestOptions(dir));
    InsertOrDie(*rt, "a.xml", BookXml("alpha"));
    InsertOrDie(*rt, "b.xml", BookXml("beta"));
    ASSERT_TRUE(rt->Flush().ok());
    InsertOrDie(*rt, "c.xml", BookXml("gamma"));
    ASSERT_TRUE(rt->Flush().ok());
    for (const char* name : {"a.xml", "b.xml", "c.xml"}) {
      ASSERT_TRUE(rt->Delete(name).ok());
    }
    Status status = rt->MaybeMerge();
    ASSERT_TRUE(status.ok()) << status.ToString();
    RtStats stats = rt->Stats();
    EXPECT_EQ(stats.merges, 1u);
    EXPECT_EQ(stats.disk_segments, 0u);
    EXPECT_EQ(stats.tombstones, 0u);
    EXPECT_EQ(stats.purged_docs, 3u);
    EXPECT_EQ(rt->snapshot()->TotalDocuments(), 0u);
  }
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().filename().string().rfind("seg-", 0), 0u)
        << entry.path();
  }
  // The WAL still holds the three deletes; replaying them must not bring
  // back tombstones for documents no segment holds any more.
  auto rt = OpenOrDie(TestOptions(dir));
  EXPECT_EQ(rt->Stats().disk_segments, 0u);
  EXPECT_EQ(rt->Stats().tombstones, 0u);
  EXPECT_TRUE(LiveNames(*rt).empty());
  EXPECT_EQ(InsertOrDie(*rt, "a.xml", BookXml("again")), 3u);
  EXPECT_EQ(rt->snapshot()->LiveDocuments(), 1u);
}

TEST(RtIndexTest, ReplayedDeleteOfATombstonedDocumentKeepsOneTombstone) {
  // x lives only in the WAL, but the merge writes its tombstone into the
  // MANIFEST. Reopening replays x's insert and delete; that must leave one
  // tombstone, and the merge that later purges x must reserve ids for
  // every survivor, or its segment overlaps the next insert.
  const std::string dir = FreshDir("replay_tombstone");
  {
    auto rt = OpenOrDie(TestOptions(dir));
    InsertOrDie(*rt, "a.xml", BookXml("alpha"));
    ASSERT_TRUE(rt->Flush().ok());
    InsertOrDie(*rt, "b.xml", BookXml("beta"));
    ASSERT_TRUE(rt->Flush().ok());
    EXPECT_EQ(InsertOrDie(*rt, "x.xml", BookXml("xray")), 2u);
    ASSERT_TRUE(rt->Delete("x.xml").ok());
    Status status = rt->MaybeMerge();  // a and b become ids 3 and 4
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_EQ(rt->Stats().merges, 1u);
    ASSERT_EQ(rt->Stats().tombstones, 1u);
  }
  {
    auto rt = OpenOrDie(TestOptions(dir));
    EXPECT_EQ(rt->Stats().tombstones, 1u);
    EXPECT_EQ(rt->snapshot()->LiveDocuments(), 2u);
    EXPECT_EQ(LiveNames(*rt), (std::vector<std::string>{"a.xml", "b.xml"}));
    ASSERT_TRUE(rt->Flush().ok());  // x's run: [2, 3), all deleted
    EXPECT_EQ(InsertOrDie(*rt, "y.xml", BookXml("yolk")), 5u);
    ASSERT_TRUE(rt->Flush().ok());
    Status status = rt->MaybeMerge();  // x's and y's one-document segments
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(rt->Stats().merges, 1u);
    EXPECT_EQ(rt->Stats().tombstones, 0u);
    EXPECT_EQ(InsertOrDie(*rt, "z.xml", BookXml("zinc")), 7u);
  }
  Result<std::unique_ptr<RtIndex>> rt = RtIndex::Open(TestOptions(dir));
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  EXPECT_EQ(LiveNames(**rt),
            (std::vector<std::string>{"a.xml", "b.xml", "y.xml", "z.xml"}));
  EXPECT_EQ((*rt)->snapshot()->LiveDocuments(), 4u);
}

TEST(RtIndexTest, ReplayedInsertOfATombstonedDocumentIsNotLive) {
  // Without fsync a crash can lose the WAL's delete record while the
  // MANIFEST a merge wrote keeps the tombstone. The replayed document is
  // then dead, and a Delete of its name must not tombstone it again.
  const std::string dir = FreshDir("replay_lost_delete");
  {
    auto rt = OpenOrDie(TestOptions(dir));
    InsertOrDie(*rt, "a.xml", BookXml("alpha"));
    ASSERT_TRUE(rt->Flush().ok());
    InsertOrDie(*rt, "b.xml", BookXml("beta"));
    ASSERT_TRUE(rt->Flush().ok());
    InsertOrDie(*rt, "x.xml", BookXml("xray"));
    ASSERT_TRUE(rt->Delete("x.xml").ok());
    ASSERT_TRUE(rt->MaybeMerge().ok());
  }
  std::vector<std::string> logs;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("wal-", 0) == 0) {
      logs.push_back(entry.path().string());
    }
  }
  size_t rewritten = 0;
  for (const std::string& log : logs) {
    Result<WalReplay> replay = ReplayWal(log);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    if (replay->records.size() != 2) continue;  // x's insert and delete
    fs::remove(log);
    Result<WalWriter> writer = WalWriter::Open(log, /*fsync=*/false);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer->Append(replay->records[0]).ok());
    ++rewritten;
  }
  ASSERT_EQ(rewritten, 1u);

  auto rt = OpenOrDie(TestOptions(dir));
  EXPECT_EQ(rt->Stats().tombstones, 1u);
  EXPECT_EQ(rt->Stats().live_docs, 2u);
  Result<bool> found = rt->Delete("x.xml");
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_FALSE(*found);
  EXPECT_EQ(rt->Stats().tombstones, 1u);
  EXPECT_EQ(InsertOrDie(*rt, "x.xml", BookXml("xray")), 5u);
  EXPECT_EQ(LiveNames(*rt),
            (std::vector<std::string>{"a.xml", "b.xml", "x.xml"}));
}

TEST(RtIndexTest, EachInsertedDocumentIsParsedOnce) {
  // Compaction (every 16 inserts), flush and merge append the indexes
  // built at insert; none of them parses a document again.
  const std::string dir = FreshDir("parsed_once");
  Counter* parsed =
      MetricsRegistry::Global().GetCounter("gks.index.documents_total");
  const uint64_t before = parsed->value();
  auto rt = OpenOrDie(TestOptions(dir));
  std::vector<std::pair<std::string, std::string>> docs;
  for (int i = 0; i < 36; ++i) {
    docs.emplace_back("doc" + std::to_string(i) + ".xml",
                      BookXml("word" + std::to_string(i)));
    InsertOrDie(*rt, docs.back().first, docs.back().second);
    if (i == 16) {
      ASSERT_TRUE(rt->Flush().ok());
    }
  }
  ASSERT_TRUE(rt->Flush().ok());
  Status status = rt->MaybeMerge();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(rt->Stats().merges, 1u);
  EXPECT_EQ(parsed->value() - before, docs.size());

  // The merged segment is still a fresh build over the same documents.
  EXPECT_EQ(FileContents(dir + "/seg-000003.gksidx"),
            OracleSegmentBytes(36, docs));
  EXPECT_EQ(LiveNames(*rt).size(), docs.size());
}

/// Flushes a.xml and b.xml into seg-000001 (documents [0, 2)), applies
/// `damage` to the MANIFEST, and expects Open to refuse the directory as
/// Corruption naming the segment. The intact MANIFEST opens afterwards.
void ExpectDamagedManifestFailsToOpen(
    const std::string& dir,
    const std::function<std::string(const std::string&)>& damage) {
  {
    auto rt = OpenOrDie(TestOptions(dir));
    InsertOrDie(*rt, "a.xml", BookXml("alpha"));
    InsertOrDie(*rt, "b.xml", BookXml("beta"));
    ASSERT_TRUE(rt->Flush().ok());
  }
  const std::string manifest = FileContents(dir + "/MANIFEST");
  ASSERT_TRUE(WriteStringToFile(dir + "/MANIFEST", damage(manifest)).ok());
  Result<std::unique_ptr<RtIndex>> rt = RtIndex::Open(TestOptions(dir));
  ASSERT_FALSE(rt.ok());
  EXPECT_EQ(rt.status().code(), StatusCode::kCorruption);
  EXPECT_NE(rt.status().message().find("seg-000001.gksidx"), std::string::npos)
      << rt.status().ToString();

  ASSERT_TRUE(WriteStringToFile(dir + "/MANIFEST", manifest).ok());
  auto intact = OpenOrDie(TestOptions(dir));
  EXPECT_EQ(LiveNames(*intact), (std::vector<std::string>{"a.xml", "b.xml"}));
  EXPECT_EQ(InsertOrDie(*intact, "c.xml", BookXml("gamma")), 2u);
}

TEST(RtIndexTest, RewoundNextDocIdFailsToOpen) {
  // The next insert would get id 0, which seg-000001 already holds.
  ExpectDamagedManifestFailsToOpen(
      FreshDir("rewound"), [](const std::string& manifest) {
        return ReplaceFirst(manifest, "\"next_doc_id\":2",
                            "\"next_doc_id\":0");
      });
}

TEST(RtIndexTest, RepeatedSegmentEntryFailsToOpen) {
  // Both entries would serve documents [0, 2): every answer twice.
  ExpectDamagedManifestFailsToOpen(
      FreshDir("repeated"), [](const std::string& manifest) {
        const size_t begin = manifest.find("{\"seq\"");
        EXPECT_NE(begin, std::string::npos) << manifest;
        if (begin == std::string::npos) return manifest;
        const std::string entry =
            manifest.substr(begin, manifest.find('}', begin) + 1 - begin);
        return ReplaceFirst(manifest, entry, entry + "," + entry);
      });
}

TEST(RtIndexTest, DirectoryWithDocstoreSidecarsOpensAndMerges) {
  // Older versions kept a seg-NNNNNN.docs copy of each segment's XML and
  // named it in the MANIFEST entry's `docstore` key. Such a directory
  // opens with the same answers, the sidecars are swept as unreferenced
  // seg-* files, and merges append the loaded indexes.
  const std::string dir = FreshDir("docstores");
  std::vector<std::string> before;
  {
    auto rt = OpenOrDie(TestOptions(dir));
    InsertOrDie(*rt, "a.xml", BookXml("alpha"));
    InsertOrDie(*rt, "b.xml", BookXml("beta"));
    ASSERT_TRUE(rt->Flush().ok());
    InsertOrDie(*rt, "c.xml", BookXml("gamma"));
    ASSERT_TRUE(rt->Flush().ok());
    ASSERT_TRUE(rt->Delete("b.xml").ok());
    before = Answers(*rt, "smith");
  }
  ASSERT_EQ(before.size(), 2u);
  for (const char* seg : {"seg-000001", "seg-000002"}) {
    const std::string file = std::string(seg) + ".gksidx";
    RewriteManifest(dir, "\"file\":\"" + file + "\"",
                    "\"file\":\"" + file + "\",\"docstore\":\"" + seg +
                        ".docs\"");
    // Never read: only the magic of the old format, then filler.
    ASSERT_TRUE(
        WriteStringToFile(dir + "/" + seg + ".docs", "GKSDOC01\x01\x02").ok());
  }
  ASSERT_NE(FileContents(dir + "/MANIFEST").find("docstore"),
            std::string::npos);

  auto rt = OpenOrDie(TestOptions(dir));
  EXPECT_FALSE(fs::exists(dir + "/seg-000001.docs"));
  EXPECT_FALSE(fs::exists(dir + "/seg-000002.docs"));
  EXPECT_EQ(Answers(*rt, "smith"), before);
  EXPECT_EQ(LiveNames(*rt), (std::vector<std::string>{"a.xml", "c.xml"}));

  Status status = rt->MaybeMerge();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(rt->Stats().merges, 1u);
  EXPECT_EQ(rt->Stats().disk_segments, 1u);
  EXPECT_EQ(FileContents(dir + "/seg-000003.gksidx"),
            OracleSegmentBytes(3, {{"a.xml", BookXml("alpha")},
                                   {"c.xml", BookXml("gamma")}}));
  EXPECT_EQ(FileContents(dir + "/MANIFEST").find("docstore"),
            std::string::npos);
  EXPECT_EQ(LiveNames(*rt), (std::vector<std::string>{"a.xml", "c.xml"}));
}

TEST(RtIndexTest, CompactionBoundsTheSegmentCount) {
  auto rt = OpenOrDie(TestOptions(FreshDir("compact")));
  for (int i = 0; i < 34; ++i) {
    InsertOrDie(*rt, "doc" + std::to_string(i) + ".xml",
                BookXml("word" + std::to_string(i)));
  }
  // 34 inserts, compacted every 16: one accumulated segment covering the
  // first 32 plus at most 2 micro-segments — never 34 segments.
  EXPECT_LE(rt->snapshot()->segments.size(), 3u);
  EXPECT_EQ(rt->snapshot()->LiveDocuments(), 34u);
  EXPECT_EQ(LiveNames(*rt).size(), 34u);
}

TEST(RtIndexTest, BaseIndexServesAlongsideRtDocuments) {
  XmlIndex base = gks::testing::BuildIndexFromDocs({
      {"base0.xml", BookXml("ground")},
      {"base1.xml", BookXml("floor")},
  });
  std::string base_path = ::testing::TempDir() + "gks_rt_base.gksidx";
  ASSERT_TRUE(SaveIndex(base, base_path).ok());

  RtOptions options = TestOptions(FreshDir("base"));
  options.base_index_path = base_path;
  std::string dir = options.dir;
  auto rt = OpenOrDie(std::move(options));

  // Base documents occupy [0, 2); RT allocation continues above them.
  EXPECT_EQ(rt->snapshot()->LiveDocuments(), 2u);
  EXPECT_EQ(rt->snapshot()->Document(0)->name, "base0.xml");
  EXPECT_EQ(InsertOrDie(*rt, "new.xml", BookXml("fresh")), 2u);
  EXPECT_EQ(LiveNames(*rt),
            (std::vector<std::string>{"base0.xml", "base1.xml", "new.xml"}));

  // Base documents delete like any other (tombstone-masked; the base
  // segment itself is immutable and never merged).
  Result<bool> found = rt->Delete("base1.xml");
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(*found);
  EXPECT_TRUE(rt->snapshot()->IsDeleted(1));

  // And the tombstone survives a reopen (replayed from the WAL).
  rt.reset();
  RtOptions reopen = TestOptions(dir);
  reopen.base_index_path = base_path;
  rt = OpenOrDie(std::move(reopen));
  EXPECT_EQ(LiveNames(*rt),
            (std::vector<std::string>{"base0.xml", "new.xml"}));
  EXPECT_EQ(rt->Insert("base0.xml", BookXml("dup")).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(RtIndexTest, ShardBaseThatDoesNotStartAtDocumentZeroIsRefused) {
  // Four documents split into two shards: shard_01 holds [2, 4). RT
  // numbers its documents from the base's count, so over that base an
  // insert would be acknowledged as doc 2, an id the base already holds.
  const std::string dir = FreshDir("shard_base_src");
  fs::create_directories(dir);
  std::vector<std::string> files;
  for (const char* word : {"alpha", "bravo", "delta", "gamma"}) {
    files.push_back(dir + "/" + word + ".xml");
    ASSERT_TRUE(WriteStringToFile(files.back(), BookXml(word)).ok());
  }
  Result<ShardManifest> manifest = SplitIntoShards(files, 2, dir + "/shards");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest->shards.size(), 2u);
  ASSERT_EQ(manifest->shards[1].doc_base, 2u);

  RtOptions options = TestOptions(FreshDir("shard_base"));
  options.base_index_path = dir + "/shards/" + manifest->shards[1].file;
  const std::string rt_dir = options.dir;
  Result<std::unique_ptr<RtIndex>> rt = RtIndex::Open(std::move(options));
  ASSERT_FALSE(rt.ok());
  EXPECT_EQ(rt.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rt.status().message().find("[2, 4)"), std::string::npos)
      << rt.status().ToString();
  EXPECT_FALSE(fs::exists(rt_dir));

  // The first shard starts at document 0 and still serves as a base.
  RtOptions first = TestOptions(FreshDir("shard_base_0"));
  first.base_index_path = dir + "/shards/" + manifest->shards[0].file;
  auto ok = OpenOrDie(std::move(first));
  EXPECT_EQ(InsertOrDie(*ok, "new.xml", BookXml("fresh")), 2u);
}

TEST(RtIndexTest, BackgroundThreadFlushesOnTheDocThreshold) {
  RtOptions options = TestOptions(FreshDir("autoflush"));
  options.flush_docs = 3;
  options.background = true;  // the server configuration
  auto rt = OpenOrDie(std::move(options));
  for (int i = 0; i < 3; ++i) {
    InsertOrDie(*rt, "doc" + std::to_string(i) + ".xml", BookXml("auto"));
  }
  // The threshold poke is asynchronous; wait for the flusher to catch up.
  for (int spin = 0; spin < 500 && rt->Stats().disk_segments == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(rt->Stats().disk_segments, 1u);
  EXPECT_EQ(rt->Stats().ram_docs, 0u);
  EXPECT_EQ(LiveNames(*rt).size(), 3u);
}

}  // namespace
}  // namespace gks
