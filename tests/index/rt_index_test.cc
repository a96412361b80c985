// RtIndex lifecycle (docs/INDEXING.md): commit visibility, duplicate
// handling, flush durability, WAL crash recovery (including the
// replay-then-flush byte-equivalence the deterministic segment build
// guarantees), tombstone purging via merge, and base-index composition.

#include "index/rt_index.h"

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "common/file_io.h"
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
  // the same segment files as the flush the crash interrupted would have
  // — segment builds are deterministic functions of the raw documents.
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

  for (const char* file : {"/seg-000001.gksidx", "/seg-000001.docs"}) {
    SCOPED_TRACE(file);
    ASSERT_TRUE(fs::exists(direct_dir + file));
    ASSERT_TRUE(fs::exists(crashed_dir + file));
    EXPECT_EQ(FileContents(direct_dir + file),
              FileContents(crashed_dir + file));
  }
}

TEST(RtIndexTest, MergePurgesTombstonesAndRenumbersSurvivors) {
  auto rt = OpenOrDie(TestOptions(FreshDir("merge")));
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

  // Renumbered names stay deletable (live_ was remapped to the new ids).
  Result<bool> found = rt->Delete("d.xml");
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_TRUE(*found);
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
