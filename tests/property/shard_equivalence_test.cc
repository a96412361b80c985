// Cross-shard output-identity property suite (docs/DISTRIBUTED.md): a
// repository split into document-range shards, searched shard-by-shard
// with the coordinator's inner options and merged with MergeShardResults,
// must reproduce the single-index response byte for byte — ordering,
// bit-exact ranks, keyword masks, DI keywords, refinements, top-k and
// display strings — for every shard count. This is
// the contract that makes scatter-gather a pure execution detail.
//
// The adversarial half constructs equal-rank, equal-keyword-count nodes
// on *different* shards (identical documents split across the shard
// boundary): ranks are subtree-local, so the twins tie bit-exactly and
// only the (rank desc, keyword count desc, Dewey id asc) comparator's id
// leg decides the merged order.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "common/file_io.h"
#include "core/searcher.h"
#include "core/shard_merge.h"
#include "data/random_tree_gen.h"
#include "index/serialization.h"
#include "index/shard.h"
#include "tests/test_util.h"

namespace gks {
namespace {

using gks::testing::ParseQueryOrDie;

/// Runs one shard exactly as a worker process does for a `"shard": true`
/// request: the client's options with the cross-shard stages disabled
/// (discover_di / suggest_refinements off, max_results unset — those
/// replay on the merged result), then packages the partial with the
/// DI contributions only the owning shard can resolve, and with display
/// strings on its first `max_results` nodes only (all when 0), as the
/// worker does for the `top` the coordinator forwards.
ShardPartialResult RunShard(const XmlIndex& index, const Query& query,
                            const SearchOptions& client_options) {
  SearchOptions inner = client_options;
  inner.discover_di = false;
  inner.suggest_refinements = false;
  inner.max_results = 0;
  GksSearcher searcher(&index);
  Result<SearchResponse> response = searcher.Search(query, inner);
  EXPECT_TRUE(response.ok()) << response.status().ToString();

  ShardPartialResult partial;
  partial.merged_list_size = response->merged_list_size;
  partial.candidate_count = response->candidate_count;
  partial.plan = response->plan.strategy;
  partial.epoch = 1;
  std::vector<std::vector<DiContribution>> contributions;
  if (client_options.discover_di && client_options.di_top_m > 0) {
    DiOptions di_options;
    di_options.top_m = client_options.di_top_m;
    contributions =
        ComputeDiContributions(index, response->nodes, query, di_options);
  }
  for (size_t i = 0; i < response->nodes.size(); ++i) {
    ShardResultNode node;
    node.node = response->nodes[i];
    if (client_options.max_results == 0 || i < client_options.max_results) {
      // Shard catalogs are dense from 0 while Dewey ids carry the global
      // offset; the index maps them back itself, as on the worker.
      const Catalog::DocumentInfo* doc = index.Document(node.node.id.doc_id());
      EXPECT_NE(doc, nullptr);
      if (doc != nullptr) node.doc_name = doc->name;
      node.describe = DescribeNode(index, node.node);
    }
    if (i < contributions.size()) node.di = std::move(contributions[i]);
    partial.nodes.push_back(std::move(node));
  }
  return partial;
}

/// Full observable identity between the single-index oracle and the
/// coordinator-merged result.
void ExpectIdentical(const XmlIndex& oracle_index,
                     const SearchResponse& oracle,
                     const MergedShardResult& merged,
                     const std::string& label,
                     bool pin_scan_counts = true) {
  const SearchResponse& actual = merged.response;
  EXPECT_EQ(actual.effective_s, oracle.effective_s) << label;
  // S_L partitions exactly by document, so the summed shard counts equal
  // the single-index count — except under force-engaged block-max top-k,
  // where how much of S_L each evaluator *scans* before terminating is an
  // execution detail that legitimately differs per partition.
  if (pin_scan_counts) {
    EXPECT_EQ(actual.merged_list_size, oracle.merged_list_size) << label;
    EXPECT_EQ(actual.candidate_count, oracle.candidate_count) << label;
  }
  ASSERT_EQ(actual.nodes.size(), oracle.nodes.size()) << label;
  ASSERT_EQ(merged.doc_names.size(), actual.nodes.size()) << label;
  ASSERT_EQ(merged.describes.size(), actual.nodes.size()) << label;
  for (size_t i = 0; i < oracle.nodes.size(); ++i) {
    SCOPED_TRACE(label + " node " + std::to_string(i));
    const GksNode& want = oracle.nodes[i];
    const GksNode& got = actual.nodes[i];
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.keyword_mask, want.keyword_mask);
    EXPECT_EQ(got.keyword_count, want.keyword_count);
    EXPECT_EQ(got.is_lce, want.is_lce);
    // Bit-identical, not approximately equal: ranks travel as IEEE-754
    // bit patterns and the merge must not perturb them.
    EXPECT_DOUBLE_EQ(got.rank, want.rank);
    EXPECT_EQ(merged.doc_names[i],
              oracle_index.catalog.document(want.id.doc_id()).name);
    EXPECT_EQ(merged.describes[i], DescribeNode(oracle_index, want));
  }
  ASSERT_EQ(actual.insights.size(), oracle.insights.size()) << label;
  for (size_t i = 0; i < oracle.insights.size(); ++i) {
    SCOPED_TRACE(label + " insight " + std::to_string(i));
    EXPECT_EQ(actual.insights[i].value, oracle.insights[i].value);
    EXPECT_EQ(actual.insights[i].path, oracle.insights[i].path);
    EXPECT_DOUBLE_EQ(actual.insights[i].weight, oracle.insights[i].weight);
    EXPECT_EQ(actual.insights[i].support, oracle.insights[i].support);
  }
  ASSERT_EQ(actual.refinements.size(), oracle.refinements.size()) << label;
  for (size_t i = 0; i < oracle.refinements.size(); ++i) {
    SCOPED_TRACE(label + " refinement " + std::to_string(i));
    EXPECT_EQ(actual.refinements[i].kind, oracle.refinements[i].kind);
    EXPECT_EQ(actual.refinements[i].keywords, oracle.refinements[i].keywords);
    EXPECT_DOUBLE_EQ(actual.refinements[i].score,
                     oracle.refinements[i].score);
  }
}

/// One sharded fixture: the documents written to disk, split with the
/// real `gks shard` splitter, then reloaded through both storage
/// backends.
class ShardedRepo {
 public:
  ShardedRepo(const std::vector<std::string>& xml_docs, size_t shard_count,
              const std::string& tag) {
    std::string dir = ::testing::TempDir() + "/shard_eq_" + tag;
    std::string mkdir = "mkdir -p " + dir;
    EXPECT_EQ(std::system(mkdir.c_str()), 0);
    std::vector<std::string> files;
    for (size_t i = 0; i < xml_docs.size(); ++i) {
      char name[32];
      std::snprintf(name, sizeof(name), "/doc_%02zu.xml", i);
      files.push_back(dir + name);
      Status status = WriteStringToFile(files.back(), xml_docs[i]);
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
    Result<ShardManifest> manifest =
        SplitIntoShards(files, shard_count, dir);
    EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
    manifest_ = std::move(manifest).value();

    // The oracle: one index over the same files in the same order, so
    // global doc ids and catalog names line up exactly.
    IndexBuilder builder;
    for (const std::string& file : files) {
      Status status = builder.AddFile(file);
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
    Result<XmlIndex> oracle = std::move(builder).Finalize();
    EXPECT_TRUE(oracle.ok()) << oracle.status().ToString();
    oracle_ = std::move(oracle).value();

    for (const ShardSpec& shard : manifest_.shards) {
      std::string path = dir + "/" + shard.file;
      Result<XmlIndex> loaded = LoadIndex(path);
      EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
      shards_.push_back(std::move(loaded).value());
    }
  }

  /// Scatter-gathers over the shards and merges. Partials are fed in
  /// *reverse* topology order — the merge must not care how the network
  /// interleaved them.
  MergedShardResult Gather(const Query& query,
                           const SearchOptions& options) const {
    std::vector<ShardPartialResult> partials;
    for (size_t i = shards_.size(); i-- > 0;) {
      partials.push_back(RunShard(shards_[i], query, options));
    }
    return MergeShardResults(query, options, std::move(partials));
  }

  SearchResponse Oracle(const Query& query,
                        const SearchOptions& options) const {
    GksSearcher searcher(&oracle_);
    Result<SearchResponse> response = searcher.Search(query, options);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return std::move(response).value();
  }

  const XmlIndex& oracle_index() const { return oracle_; }
  size_t shard_count() const { return manifest_.shards.size(); }

 private:
  ShardManifest manifest_;
  XmlIndex oracle_;
  std::vector<XmlIndex> shards_;
};

class ShardEquivalence : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ShardEquivalence, RandomCorpusAllShardCountsAndBackends) {
  std::vector<std::string> docs;
  for (uint32_t doc = 0; doc < 8; ++doc) {
    data::RandomTreeOptions options;
    options.seed = GetParam() * 16 + doc;
    options.target_nodes = 120 + (GetParam() % 3) * 60;
    options.max_depth = 4 + GetParam() % 3;
    docs.push_back(data::GenerateRandomTree(options));
  }
  const std::vector<std::string> queries = {
      "k0 k1 k2",
      "k" + std::to_string(GetParam() % 8) + " k" +
          std::to_string((GetParam() + 3) % 8) + " k" +
          std::to_string((GetParam() + 5) % 8) + " k" +
          std::to_string((GetParam() + 6) % 8),
      "t1:k2 k4",
  };
  for (size_t shard_count : {2u, 4u}) {
    ShardedRepo repo(docs, shard_count,
                     "rand_" + std::to_string(GetParam()) + "_" +
                         std::to_string(shard_count));
    ASSERT_EQ(repo.shard_count(), shard_count);
    for (const std::string& text : queries) {
      Query query = ParseQueryOrDie(text);
      for (uint32_t s = 1; s <= 3; ++s) {
        // max_results > 0 also cuts each shard's display strings to its
        // local top; the merged top must never reach past that cut.
        for (size_t top : {0u, 1u, 2u, 5u}) {
          SearchOptions options;
          options.s = s;
          options.max_results = top;
          SearchResponse oracle = repo.Oracle(query, options);
          char label[160];
          std::snprintf(label, sizeof(label), "'%s' s=%u top=%zu shards=%zu",
                        text.c_str(), s, top, shard_count);
          ExpectIdentical(repo.oracle_index(), oracle,
                          repo.Gather(query, options), label);
        }
      }
    }
  }
}

TEST_P(ShardEquivalence, TopKAndMaxResultsSurviveTheMerge) {
  std::vector<std::string> docs;
  for (uint32_t doc = 0; doc < 8; ++doc) {
    data::RandomTreeOptions options;
    options.seed = 977 + GetParam() * 16 + doc;
    options.target_nodes = 140;
    options.max_depth = 5;
    docs.push_back(data::GenerateRandomTree(options));
  }
  ShardedRepo repo(docs, 4, "topk_" + std::to_string(GetParam()));
  Query query = ParseQueryOrDie("k0 k1 k2");
  for (uint32_t top_k : {1u, 3u, 7u}) {
    SearchOptions options;
    options.s = 2;
    options.top_k = top_k;
    // Engage the early-terminating evaluator on every shard regardless of
    // posting volume — the merged truncation must still equal the
    // single-index top-k.
    options.topk_scan_floor = 0;
    SearchResponse oracle = repo.Oracle(query, options);
    ExpectIdentical(repo.oracle_index(), oracle, repo.Gather(query, options),
                    "top_k=" + std::to_string(top_k),
                    /*pin_scan_counts=*/false);
  }
  for (size_t top : {1u, 2u, 3u}) {
    SearchOptions trimmed;
    trimmed.s = 2;
    trimmed.max_results = top;
    ExpectIdentical(repo.oracle_index(), repo.Oracle(query, trimmed),
                    repo.Gather(query, trimmed),
                    "max_results=" + std::to_string(top));
    trimmed.top_k = 5;
    ExpectIdentical(repo.oracle_index(), repo.Oracle(query, trimmed),
                    repo.Gather(query, trimmed),
                    "top_k=5 max_results=" + std::to_string(top),
                    /*pin_scan_counts=*/false);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardEquivalence,
                         ::testing::Range<uint32_t>(0, 6));

// The adversarial construction: four *identical* documents split two per
// shard. Every response node in doc 0 has bit-exact rank twins in docs
// 1-3 (ranks are functions of a node's own subtree only), with identical
// keyword counts — so the merged order across shards is decided purely by
// the Dewey id leg of the comparator, exactly as in the single index.
TEST(ShardTieBreaking, EqualRankTwinsAcrossShardsOrderById) {
  // The repeated <author> group plus the free year/title attributes make
  // each <article> an entity (Def. 2.1.3), so the twins surface as LCEs
  // with identical ranks and carry DI contributions across the shards.
  const std::string twin =
      "<article year=\"2001\"><title>alpha beta gamma</title>"
      "<author>delta</author><author>epsilon</author>"
      "<note>alpha beta</note></article>";
  std::vector<std::string> docs(4, twin);
  ShardedRepo repo(docs, 2, "twins");
  for (const char* text : {"alpha beta", "alpha beta gamma delta"}) {
    Query query = ParseQueryOrDie(text);
    for (uint32_t s = 1; s <= 2; ++s) {
      SearchOptions options;
      options.s = s;
      SearchResponse oracle = repo.Oracle(query, options);
      ASSERT_GE(oracle.nodes.size(), 4u) << text;  // one twin per document
      MergedShardResult merged = repo.Gather(query, options);
      ExpectIdentical(repo.oracle_index(), oracle, merged, text);
      // Explicitly: among bit-equal (rank, keyword count) runs, ids
      // ascend — the twins interleave across the shard boundary in
      // document order, never grouped by which shard answered first.
      const std::vector<GksNode>& nodes = merged.response.nodes;
      for (size_t i = 1; i < nodes.size(); ++i) {
        if (nodes[i - 1].rank == nodes[i].rank &&
            nodes[i - 1].keyword_count == nodes[i].keyword_count) {
          EXPECT_TRUE(nodes[i - 1].id < nodes[i].id)
              << text << " run at " << i;
        }
      }
    }
  }
  // Twins also stress the DI replay: the same (tag, value) surfaces from
  // both shards and the weights must sum across them, not per shard.
  Query query = ParseQueryOrDie("alpha beta");
  SearchOptions options;
  options.s = 1;
  SearchResponse oracle = repo.Oracle(query, options);
  MergedShardResult merged = repo.Gather(query, options);
  ASSERT_FALSE(oracle.insights.empty());
  ASSERT_EQ(merged.response.insights.size(), oracle.insights.size());
  EXPECT_GE(merged.response.insights[0].support, 2u);

  // A top that ends inside a run of tied twins: only the id leg decides
  // which twins make the merged top, and each must fall inside its own
  // shard's described local top.
  for (size_t top = 1; top <= 6; ++top) {
    SearchOptions trimmed = options;
    trimmed.max_results = top;
    ExpectIdentical(repo.oracle_index(), repo.Oracle(query, trimmed),
                    repo.Gather(query, trimmed),
                    "twins top=" + std::to_string(top));
  }
}

// The wire encoding the ranks and masks travel in must be lossless —
// %.3f display doubles are not, which is the whole reason rank_bits
// exists.
TEST(ShardWireEncoding, DoubleAndMaskBitsRoundTripExactly) {
  for (double value :
       {0.0, -0.0, 1.0 / 3.0, 1e-300, 6.02214076e23, -123.456789012345678}) {
    double decoded = 0.0;
    ASSERT_TRUE(DecodeDoubleBits(EncodeDoubleBits(value), &decoded));
    EXPECT_EQ(std::memcmp(&decoded, &value, sizeof(double)), 0) << value;
  }
  for (uint64_t mask : {uint64_t{0}, uint64_t{1}, uint64_t{0xdeadbeef},
                        ~uint64_t{0}}) {
    uint64_t decoded = 0;
    ASSERT_TRUE(DecodeMaskBits(EncodeMaskBits(mask), &decoded));
    EXPECT_EQ(decoded, mask);
  }
  uint64_t sink = 0;
  EXPECT_FALSE(DecodeMaskBits("", &sink));
  EXPECT_FALSE(DecodeMaskBits("xyz", &sink));
  EXPECT_FALSE(DecodeMaskBits("11112222333344445", &sink));  // > 16 digits
}

}  // namespace
}  // namespace gks
