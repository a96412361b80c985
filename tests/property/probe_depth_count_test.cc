// The anchor-probe evaluator counts, per window end event, the window
// starts whose common prefix with the end has each depth. It takes one of
// two branches per list: a linear histogram over intervals of at most 256
// entries, or per-depth subtree searches above that. Its candidates, ids
// and window counts, must equal the merge path's ComputeLcpCandidates over
// the full merged list on corpora built so that intervals fall on both
// sides of 256 and ids run deeper than 64 components.
//
// Each block below is a run of `k1` leaves followed by one `k0` leaf. For
// the query `k0 k1` at s = 2 the `k0` leaf is a window end event whose
// `k1` interval is exactly the block's run (every run leaf starts a
// window ending there), so the run lengths pick the branch: 255 and 256
// are counted linearly, 257 and up by subtree searches.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "core/merged_list.h"
#include "core/probe_eval.h"
#include "core/window_scan.h"
#include "tests/test_util.h"

namespace gks {
namespace {

using gks::testing::BuildIndexFromXml;
using gks::testing::ParseQueryOrDie;

// Blocks of `k1` runs inside `chain` nested elements, so every id has
// more than `chain` components. Run leaves wander through nested groups
// (a random walk of open and close), which spreads their common-prefix
// depth with the block's `k0` leaf; `k2` leaves are sprinkled in for the
// three-keyword queries.
std::string RunsCorpus(uint32_t seed, uint32_t chain,
                       const std::vector<uint32_t>& runs) {
  std::mt19937 rng(seed);
  std::string xml = "<r>";
  for (uint32_t d = 0; d < chain; ++d) xml += "<n>";
  for (uint32_t run : runs) {
    xml += "<blk>";
    uint32_t open = 0;
    for (uint32_t j = 0; j < run; ++j) {
      const uint32_t step = rng() % 4;
      if (step == 0 && open < 8) {
        xml += "<g>";
        ++open;
      } else if (step == 1 && open > 0) {
        xml += "</g>";
        --open;
      }
      xml += rng() % 50 == 0 ? "<t>k2</t>" : "<t>k1</t>";
    }
    for (; open > 0; --open) xml += "</g>";
    xml += "<t>k0</t></blk>";
  }
  for (uint32_t d = 0; d < chain; ++d) xml += "</n>";
  return xml + "</r>";
}

void ExpectProbeCandidatesMatchMerge(const XmlIndex& index,
                                     const std::string& text, uint32_t s) {
  const Query query = ParseQueryOrDie(text);
  ProbeEvaluator probe(index, query, s, ProbeOptions{}, nullptr);
  probe.PrepareLists();
  probe.RunVirtualScan();
  const std::vector<LcpCandidate> want =
      ComputeLcpCandidates(MergedList::Build(index, query), s);
  const std::vector<LcpCandidate>& got = probe.candidates();
  ASSERT_EQ(got.size(), want.size()) << "'" << text << "' s=" << s;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node)
        << "'" << text << "' s=" << s << " candidate " << i;
    EXPECT_EQ(got[i].window_count, want[i].window_count)
        << "'" << text << "' s=" << s << " candidate " << i << " "
        << want[i].node.ToString();
  }
}

class ProbeDepthCount : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ProbeDepthCount, CandidatesMatchTheMergePath) {
  const std::vector<uint32_t> runs = {1, 17, 255, 256, 257, 300, 700, 40};
  for (uint32_t chain : {0u, 3u, 70u}) {
    const XmlIndex index =
        BuildIndexFromXml(RunsCorpus(GetParam() * 31 + chain, chain, runs));
    for (uint32_t s : {1u, 2u}) {
      ExpectProbeCandidatesMatchMerge(index, "k0 k1", s);
    }
    for (uint32_t s : {1u, 2u, 3u}) {
      ExpectProbeCandidatesMatchMerge(index, "k0 k1 k2", s);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProbeDepthCount, ::testing::Range(0u, 4u));

}  // namespace
}  // namespace gks
