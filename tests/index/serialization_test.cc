#include "index/serialization.h"

#include <algorithm>
#include <string>
#include <utility>

#include "gtest/gtest.h"
#include "common/file_io.h"
#include "common/lz.h"
#include "common/varint.h"
#include "data/figures.h"
#include "index/posting_list.h"
#include "tests/test_util.h"

namespace gks {
namespace {

using gks::testing::BuildIndexFromXml;
using gks::testing::SearchOrDie;

// The writer emits v2 with rank bounds only; the legacy byte streams come
// from the checked-in fixtures (golden/README.md).
std::string GoldenPath(const std::string& name) {
  return std::string(GKS_TEST_SRCDIR) + "/index/golden/" + name;
}

// A fresh index of the document the fixtures were built from.
XmlIndex BuildGoldenCorpusIndex() {
  std::string xml;
  Status status = ReadFileToString(GoldenPath("library.xml"), &xml);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return BuildIndexFromXml(xml);
}

// Little-endian integer of `width` bytes at `pos`.
uint64_t FixedAt(const std::string& bytes, size_t pos, int width) {
  uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[pos + i]))
         << (8 * i);
  }
  return v;
}

// Payload offset and length of section `id` in a serialized v2 index, read
// from the documented header layout: magic, u32 section count, then
// 24-byte entries of u32 id, u32 flags, u64 offset, u64 length (all
// little-endian). {0, 0} when the section is absent.
std::pair<size_t, size_t> SectionExtent(const std::string& bytes,
                                        uint32_t id) {
  auto fixed = [&bytes](size_t pos, int width) {
    return FixedAt(bytes, pos, width);
  };
  const uint64_t count = fixed(8, 4);
  for (uint64_t i = 0; i < count; ++i) {
    const size_t entry = 12 + i * 24;
    if (fixed(entry, 4) == id) {
      return {fixed(entry + 8, 8), fixed(entry + 16, 8)};
    }
  }
  return {0, 0};
}

TEST(SerializationTest, RoundTripPreservesEverything) {
  XmlIndex original = BuildIndexFromXml(data::Figure2aXml(), "uni.xml");
  std::string bytes = SerializeIndex(original);
  Result<XmlIndex> loaded = DeserializeIndex(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->catalog.document_count(), 1u);
  EXPECT_EQ(loaded->catalog.document(0).name, "uni.xml");
  EXPECT_EQ(loaded->catalog.document(0).element_count,
            original.catalog.document(0).element_count);
  EXPECT_EQ(loaded->nodes.size(), original.nodes.size());
  EXPECT_EQ(loaded->nodes.counts().entity, original.nodes.counts().entity);
  EXPECT_EQ(loaded->inverted.term_count(), original.inverted.term_count());
  EXPECT_EQ(loaded->inverted.posting_count(),
            original.inverted.posting_count());
  EXPECT_EQ(loaded->nodes.ValuedRowCount(), original.nodes.ValuedRowCount());
}

TEST(SerializationTest, LoadedIndexAnswersQueriesIdentically) {
  XmlIndex original = BuildIndexFromXml(data::Figure2aXml());
  Result<XmlIndex> loaded = DeserializeIndex(SerializeIndex(original));
  ASSERT_TRUE(loaded.ok());

  SearchOptions options;
  options.s = 2;
  SearchResponse before = SearchOrDie(original, "student karen mike", options);
  SearchResponse after = SearchOrDie(*loaded, "student karen mike", options);
  ASSERT_EQ(before.nodes.size(), after.nodes.size());
  for (size_t i = 0; i < before.nodes.size(); ++i) {
    EXPECT_EQ(before.nodes[i].id, after.nodes[i].id);
    EXPECT_DOUBLE_EQ(before.nodes[i].rank, after.nodes[i].rank);
  }
  ASSERT_EQ(before.insights.size(), after.insights.size());
  for (size_t i = 0; i < before.insights.size(); ++i) {
    EXPECT_EQ(before.insights[i].value, after.insights[i].value);
  }
}

TEST(SerializationTest, FileRoundTrip) {
  XmlIndex original = BuildIndexFromXml("<r><t>karen</t></r>");
  std::string path = ::testing::TempDir() + "/gks_index_test.idx";
  ASSERT_TRUE(SaveIndex(original, path).ok());
  Result<XmlIndex> loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_NE(loaded->inverted.Find("karen"), nullptr);
}

TEST(SerializationTest, RejectsBadMagic) {
  EXPECT_EQ(DeserializeIndex("NOTANIDX").status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(DeserializeIndex("").status().code(), StatusCode::kCorruption);
}

TEST(SerializationTest, RejectsTruncatedPayload) {
  XmlIndex original = BuildIndexFromXml(data::Figure2aXml());
  std::string bytes = SerializeIndex(original);
  for (size_t cut : {bytes.size() / 4, bytes.size() / 2, bytes.size() - 1}) {
    Result<XmlIndex> loaded = DeserializeIndex(bytes.substr(0, cut));
    EXPECT_FALSE(loaded.ok()) << "cut at " << cut;
  }
}

TEST(SerializationTest, RejectsTrailingGarbage) {
  XmlIndex original = BuildIndexFromXml("<r><t>x</t></r>");
  std::string bytes = SerializeIndex(original) + "junk";
  EXPECT_FALSE(DeserializeIndex(bytes).ok());
}

TEST(SerializationTest, V2IsDefaultFormat) {
  XmlIndex original = BuildIndexFromXml("<r><t>karen</t></r>");
  EXPECT_EQ(SerializeIndex(original).substr(0, 8), "GKSIDX02");
}

// Both formats must load observationally identical indexes: same search
// results, same ranks.
TEST(SerializationTest, AllLoadPathsAnswerQueriesIdentically) {
  XmlIndex original = BuildGoldenCorpusIndex();
  std::string path = ::testing::TempDir() + "/cross_v2.idx";
  ASSERT_TRUE(SaveIndex(original, path).ok());

  Result<XmlIndex> v1 = LoadIndex(GoldenPath("library_v1.gksidx"));
  Result<XmlIndex> v2 = LoadIndex(path);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();

  SearchOptions options;
  options.s = 2;
  for (const char* query :
       {"peter buneman", "xml data", "author year", "database"}) {
    SearchResponse base = SearchOrDie(original, query, options);
    for (XmlIndex* loaded : {&*v1, &*v2}) {
      SearchResponse got = SearchOrDie(*loaded, query, options);
      ASSERT_EQ(base.nodes.size(), got.nodes.size()) << query;
      for (size_t i = 0; i < base.nodes.size(); ++i) {
        EXPECT_EQ(base.nodes[i].id, got.nodes[i].id) << query;
        EXPECT_DOUBLE_EQ(base.nodes[i].rank, got.nodes[i].rank) << query;
      }
    }
  }
}

// Regression: every load draws a fresh epoch from the global sequence, so
// response-cache entries keyed against one incarnation of an index file
// can never be served for a reloaded incarnation (whose content may
// differ).
TEST(SerializationTest, EveryLoadGetsADistinctEpoch) {
  XmlIndex original = BuildIndexFromXml("<r><t>karen</t></r>");
  std::string path = ::testing::TempDir() + "/epoch.idx";
  ASSERT_TRUE(SaveIndex(original, path).ok());

  Result<XmlIndex> first = LoadIndex(path);
  Result<XmlIndex> second = LoadIndex(path);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_NE(first->epoch, 0u);
  EXPECT_NE(first->epoch, second->epoch);
}

TEST(SerializationTest, InspectReportsSectionsForBothFormats) {
  XmlIndex original = BuildIndexFromXml(data::Figure2aXml());
  std::string v2_path = ::testing::TempDir() + "/inspect_v2.idx";
  ASSERT_TRUE(SaveIndex(original, v2_path).ok());

  Result<IndexFileInfo> v1 = InspectIndexFile(GoldenPath("library_v1.gksidx"));
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(v1->version, 1);
  ASSERT_EQ(v1->sections.size(), 4u);
  uint64_t v1_total = 8;  // magic
  for (const IndexSectionInfo& s : v1->sections) v1_total += s.bytes;
  EXPECT_EQ(v1_total, v1->file_bytes);

  Result<IndexFileInfo> v2 = InspectIndexFile(v2_path);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(v2->version, 2);
  ASSERT_EQ(v2->sections.size(), 5u);
  EXPECT_EQ(v2->sections[0].name, "catalog");
  EXPECT_EQ(v2->sections[1].name, "nodes");
  EXPECT_TRUE(v2->sections[1].compressed);
  EXPECT_EQ(v2->sections[3].name, "inverted");
  EXPECT_FALSE(v2->sections[3].compressed);
  EXPECT_EQ(v2->sections[4].name, "rank_bounds");
  EXPECT_FALSE(v2->sections[4].compressed);
  EXPECT_GT(v2->sections[4].bytes, 0u);
}

// The section table of a v2 file without rank bounds still accounts for
// every byte: magic, count, four 24-byte entries, then the payloads.
TEST(SerializationTest, InspectReportsNoRankBoundsSectionWhenOmitted) {
  Result<IndexFileInfo> info =
      InspectIndexFile(GoldenPath("library_v2_nobounds.gksidx"));
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, 2);
  ASSERT_EQ(info->sections.size(), 4u);
  uint64_t total = 8 + 4 + 4 * 24;
  for (const IndexSectionInfo& section : info->sections) {
    EXPECT_NE(section.name, "rank_bounds");
    total += section.bytes;
  }
  EXPECT_EQ(total, info->file_bytes);
}

// A v2 file without the rank_bounds section (any pre-rank-bounds writer)
// must load and serve identically; the evaluator treats the missing
// bounds as +inf.
TEST(SerializationTest, V2WithoutRankBoundsLoadsAndServes) {
  std::string nobounds;
  ASSERT_TRUE(
      ReadFileToString(GoldenPath("library_v2_nobounds.gksidx"), &nobounds)
          .ok());
  ASSERT_EQ(nobounds.substr(0, 8), "GKSIDX02");  // same magic, fewer sections

  Result<XmlIndex> with =
      DeserializeIndex(SerializeIndex(BuildGoldenCorpusIndex()));
  Result<XmlIndex> without = DeserializeIndex(nobounds);
  ASSERT_TRUE(with.ok()) << with.status().ToString();
  ASSERT_TRUE(without.ok()) << without.status().ToString();

  const PostingList* bounded = with->inverted.Find("buneman");
  const PostingList* unbounded = without->inverted.Find("buneman");
  ASSERT_NE(bounded, nullptr);
  ASSERT_NE(unbounded, nullptr);
  EXPECT_FALSE(bounded->rank_bounds().empty());
  EXPECT_TRUE(unbounded->rank_bounds().empty());

  SearchOptions options;
  options.s = 2;
  options.top_k = 3;  // the top-k evaluator must cope with absent bounds
  SearchResponse want = SearchOrDie(*with, "author year", options);
  SearchResponse got = SearchOrDie(*without, "author year", options);
  ASSERT_EQ(want.nodes.size(), 3u);
  ASSERT_EQ(want.nodes.size(), got.nodes.size());
  for (size_t i = 0; i < want.nodes.size(); ++i) {
    EXPECT_EQ(want.nodes[i].id, got.nodes[i].id);
    EXPECT_DOUBLE_EQ(want.nodes[i].rank, got.nodes[i].rank);
  }
}

// ---- rank_bounds decoder hardening -----------------------------------
//
// The decoder (InvertedIndex::ApplyRankBounds) must turn every structural
// defect into a Corruption status naming the section byte offset — never
// a crash, never silently wrong bounds.

// Hand-built payloads against a tiny index hit each validation rule. Tag
// names are searchable keywords, so the index holds three terms — in lex
// order "karen", "r", "t" — and the decoder walks them in that order,
// failing at the first defect; damaging the leading term's entry is
// enough to reach every rule.
TEST(SerializationTest, RankBoundsDecoderRejectsStructuralDamage) {
  XmlIndex index = BuildIndexFromXml("<r><t>karen</t></r>");
  ASSERT_EQ(index.inverted.term_count(), 3u);

  auto expect_corrupt = [&index](const std::string& payload,
                                 const std::string& needle) {
    Status status = index.inverted.ApplyRankBounds(payload);
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << needle;
    EXPECT_NE(status.ToString().find(needle), std::string::npos)
        << status.ToString();
    EXPECT_NE(status.ToString().find("at section byte"), std::string::npos)
        << status.ToString();
  };

  expect_corrupt("", "truncated");

  std::string wrong_terms;
  PutVarint64(&wrong_terms, 2);
  expect_corrupt(wrong_terms, "terms");

  std::string wrong_blocks;
  PutVarint64(&wrong_blocks, 3);
  PutVarint64(&wrong_blocks, 7);  // each one-id list has exactly one block
  expect_corrupt(wrong_blocks, "block count");

  // Correct term count, one-block entry for the first term ("karen") with
  // the damaged field; the decoder errors there before touching the rest.
  auto first_block = [](uint32_t weight, uint32_t min_depth,
                        uint32_t max_depth) {
    std::string payload;
    PutVarint64(&payload, 3);
    PutVarint64(&payload, 1);
    PutVarint32(&payload, weight);
    PutVarint32(&payload, min_depth);
    PutVarint32(&payload, max_depth);
    return payload;
  };
  expect_corrupt(first_block(0, 1, 8), "weight");
  expect_corrupt(first_block(kRankWeightOne + 1, 1, 8), "weight");
  expect_corrupt(first_block(kRankWeightOne, 6, 2), "depth range inverted");
  // No id of this tiny document is 50 levels deep: the envelope excludes
  // the block's first and last id.
  expect_corrupt(first_block(kRankWeightOne, 50, 60), "contradicts block 0");

  std::string truncated = first_block(kRankWeightOne, 1, 8);
  truncated.resize(truncated.size() - 1);
  expect_corrupt(truncated, "truncated");

  // The intact payload (as the writer produces it) applies cleanly; with
  // any extra byte appended it must be rejected, not ignored.
  std::string good;
  index.inverted.EncodeRankBoundsTo(index.nodes, &good);
  expect_corrupt(good + "x", "trailing bytes");
  EXPECT_TRUE(index.inverted.ApplyRankBounds(good).ok());
}

// Single-byte fuzz over the on-disk section: every mutation must either
// load fine (the bound happens to stay structurally valid) or fail with
// Corruption — never crash, never mis-parse neighbouring sections.
TEST(SerializationTest, RankBoundsSectionSurvivesSingleByteFuzz) {
  XmlIndex original = BuildIndexFromXml(data::Figure2aXml());
  std::string bytes = SerializeIndex(original);
  const auto [offset, length] = SectionExtent(bytes, 5);  // rank_bounds
  ASSERT_GT(length, 0u) << "rank_bounds section not found";

  size_t rejected = 0;
  for (size_t i = 0; i < length; ++i) {
    std::string mutated = bytes;
    mutated[offset + i] = static_cast<char>(0xFF);
    Result<XmlIndex> loaded = DeserializeIndex(mutated);
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
          << "byte " << i << ": " << loaded.status().ToString();
      ++rejected;
    }
  }
  // The leading term count is always load-bearing, so at least one byte
  // flip must have been caught.
  EXPECT_GT(rejected, 0u);
}

// Bytes overwritten inside the LZ-wrapped node table or attribute
// directory must fail the load with Corruption through every entry point:
// an index that loaded anyway would answer from a wrong or empty table.
TEST(SerializationTest, CorruptNodeOrAttributeSectionFailsEveryLoad) {
  const std::string bytes = SerializeIndex(BuildGoldenCorpusIndex());
  for (uint32_t section : {2u, 3u}) {  // nodes, attributes
    const auto [offset, length] = SectionExtent(bytes, section);
    ASSERT_GT(length, 8u) << "section " << section;
    std::string mutated = bytes;
    const size_t span = std::min<size_t>(64, length / 2);
    std::fill_n(mutated.begin() + offset + length / 4, span, '\xff');
    const std::string path = ::testing::TempDir() + "/corrupt_section_" +
                             std::to_string(section) + ".idx";
    ASSERT_TRUE(WriteStringToFile(path, mutated).ok());
    for (auto load : {&LoadIndex, &LoadIndexMapped}) {
      Result<XmlIndex> loaded = load(path);
      EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
          << "section " << section << ": "
          << (loaded.ok() ? "loaded" : loaded.status().ToString());
    }
  }
}

// Rebuilds a serialized v2 index with the payload of section `id`
// replaced, laying the payloads out again in table order and fixing every
// table offset and length.
std::string ReplaceSection(const std::string& bytes, uint32_t id,
                           const std::string& payload) {
  auto fixed = [&bytes](size_t pos, int width) {
    return FixedAt(bytes, pos, width);
  };
  auto put = [](std::string* dst, uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      dst->push_back(static_cast<char>(v >> (8 * i)));
    }
  };
  const uint64_t count = fixed(8, 4);
  std::string out = bytes.substr(0, 12);
  std::string body;
  uint64_t offset = 12 + count * 24;
  for (uint64_t i = 0; i < count; ++i) {
    const size_t entry = 12 + i * 24;
    const uint32_t section = static_cast<uint32_t>(fixed(entry, 4));
    const std::string old_payload =
        bytes.substr(fixed(entry + 8, 8), fixed(entry + 16, 8));
    const std::string& now = section == id ? payload : old_payload;
    put(&out, section, 4);
    put(&out, fixed(entry + 4, 4), 4);
    put(&out, offset + body.size(), 8);
    put(&out, now.size(), 8);
    body += now;
  }
  return out + body;
}

// The attributes section must equal the node store's valued rows. A
// section that still decodes but disagrees with them — ids past the
// dictionaries, a missing row, a moved row — is Corruption at load, never
// a crash at query time.
TEST(SerializationTest, InconsistentAttributesSectionIsCorruption) {
  const std::string bytes =
      SerializeIndex(BuildIndexFromXml(data::Figure2aXml()));
  const auto [offset, length] = SectionExtent(bytes, 3);  // attributes
  ASSERT_GT(length, 0u);
  std::string raw;
  ASSERT_TRUE(LzDecompress(bytes.substr(offset, length), &raw).ok());

  // The section's layout: front-coded ids, then the count, the tag ids and
  // the value ids.
  std::string_view in = raw;
  PackedIds ids;
  ASSERT_TRUE(PackedIds::DecodeFrom(&in, &ids).ok());
  uint64_t count = 0;
  ASSERT_TRUE(GetVarint64(&in, &count).ok());
  ASSERT_EQ(count, ids.size());
  ASSERT_GE(count, 2u);
  std::vector<uint32_t> tags(count);
  std::vector<uint32_t> values(count);
  for (uint32_t& tag : tags) ASSERT_TRUE(GetVarint32(&in, &tag).ok());
  for (uint32_t& value : values) ASSERT_TRUE(GetVarint32(&in, &value).ok());
  ASSERT_TRUE(in.empty());

  auto rewrite = [&](const PackedIds& new_ids,
                     const std::vector<uint32_t>& new_tags,
                     const std::vector<uint32_t>& new_values) {
    std::string section;
    new_ids.EncodeTo(&section);
    PutVarint64(&section, new_tags.size());
    for (uint32_t tag : new_tags) PutVarint32(&section, tag);
    for (uint32_t value : new_values) PutVarint32(&section, value);
    std::string packed;
    LzCompress(section, &packed);
    return ReplaceSection(bytes, 3, packed);
  };
  // The unchanged rows re-encode to a file that loads.
  ASSERT_TRUE(DeserializeIndex(rewrite(ids, tags, values)).ok());

  std::vector<std::pair<std::string, std::string>> cases;
  cases.emplace_back("value id past the dictionary",
                     rewrite(ids, tags,
                             std::vector<uint32_t>(count, 1000000)));
  cases.emplace_back("tag id past the dictionary",
                     rewrite(ids, std::vector<uint32_t>(count, 1000000),
                             values));
  {
    PackedIds fewer;
    for (size_t i = 1; i < ids.size(); ++i) fewer.Add(ids.At(i));
    cases.emplace_back(
        "one row dropped",
        rewrite(fewer, std::vector<uint32_t>(tags.begin() + 1, tags.end()),
                std::vector<uint32_t>(values.begin() + 1, values.end())));
  }
  {
    PackedIds moved;
    for (size_t i = 0; i < ids.size(); ++i) {
      DeweyId id = ids.IdAt(i);
      if (i == 0) id = id.Child(7);
      moved.Add(id);
    }
    cases.emplace_back("one row's Dewey id changed",
                       rewrite(moved, tags, values));
  }

  for (const auto& [name, file] : cases) {
    Result<XmlIndex> decoded = DeserializeIndex(file);
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
        << name << ": "
        << (decoded.ok() ? "loaded" : decoded.status().ToString());
    const std::string path = ::testing::TempDir() + "/bad_attributes.idx";
    ASSERT_TRUE(WriteStringToFile(path, file).ok());
    Result<XmlIndex> loaded = LoadIndex(path);
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
        << name << ": "
        << (loaded.ok() ? "loaded" : loaded.status().ToString());
  }
}

// The LZ header of the nodes section declares the section's decoded size.
// A file that declares 2^62 bytes over the real token stream is
// Corruption through both loaders, never an allocation of that size.
TEST(SerializationTest, HostileNodesSectionSizeHeaderIsCorruption) {
  const std::string bytes = SerializeIndex(BuildGoldenCorpusIndex());
  const auto [offset, length] = SectionExtent(bytes, 2);  // nodes
  ASSERT_GT(length, 0u);
  std::string_view tokens(bytes.data() + offset, length);
  uint64_t declared = 0;
  ASSERT_TRUE(GetVarint64(&tokens, &declared).ok());
  auto with_header = [&](uint64_t size) {
    std::string payload;
    PutVarint64(&payload, size);
    payload.append(tokens.data(), tokens.size());
    return ReplaceSection(bytes, 2, payload);
  };
  // The true size over the same tokens still loads.
  ASSERT_TRUE(DeserializeIndex(with_header(declared)).ok());

  const std::string file = with_header(1ull << 62);

  Result<XmlIndex> decoded = DeserializeIndex(file);
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
      << (decoded.ok() ? "loaded" : decoded.status().ToString());
  const std::string path = ::testing::TempDir() + "/hostile_lz_header.idx";
  ASSERT_TRUE(WriteStringToFile(path, file).ok());
  Result<XmlIndex> loaded = LoadIndex(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
      << (loaded.ok() ? "loaded" : loaded.status().ToString());
}

// Binary search over the node store needs strictly ascending ids, so the
// nodes decoder rejects a repeated key and a descending pair.
TEST(SerializationTest, NodeKeysOutOfOrderAreCorruption) {
  // One tag, no values, then two rows: `first`, and `first`'s leading
  // `shared` components followed by `fresh`.
  auto section = [](std::vector<uint32_t> first, uint32_t shared,
                    std::vector<uint32_t> fresh) {
    std::string out;
    PutVarint64(&out, 1);
    PutLengthPrefixed(&out, "a");
    PutVarint64(&out, 0);
    PutVarint64(&out, 2);
    auto row = [&out](uint32_t keep, const std::vector<uint32_t>& suffix) {
      PutVarint32(&out, keep);
      PutVarint32(&out, static_cast<uint32_t>(suffix.size()));
      for (uint32_t c : suffix) PutVarint32(&out, c);
      out.push_back(static_cast<char>(kFlagConnecting));
      PutVarint32(&out, 1);  // child count
      PutVarint32(&out, 0);  // tag id
      PutVarint32(&out, 0);  // no value
    };
    row(0, first);
    row(shared, fresh);
    return out;
  };

  auto decode = [](const std::string& bytes) {
    std::string_view in = bytes;
    NodeInfoTable table;
    return NodeInfoTable::DecodeFrom(&in, &table);
  };
  // d0.0.1 then d0.0.2 is in order; the test's encoding loads.
  EXPECT_TRUE(decode(section({0, 0, 1}, 2, {2})).ok());
  // d0.0.1 twice.
  Status repeated = decode(section({0, 0, 1}, 3, {}));
  EXPECT_EQ(repeated.code(), StatusCode::kCorruption) << repeated.ToString();
  // d0.0.2 then d0.0.1.
  Status descending = decode(section({0, 0, 2}, 2, {1}));
  EXPECT_EQ(descending.code(), StatusCode::kCorruption)
      << descending.ToString();
}

TEST(SerializationTest, V2RejectsTruncationEverywhere) {
  XmlIndex original = BuildIndexFromXml("<r><t>karen</t><t>mike</t></r>");
  std::string bytes = SerializeIndex(original);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Result<XmlIndex> loaded = DeserializeIndex(bytes.substr(0, cut));
    EXPECT_FALSE(loaded.ok()) << "cut at " << cut;
  }
}

}  // namespace
}  // namespace gks
