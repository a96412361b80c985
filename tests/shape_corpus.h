#ifndef GKS_TESTS_SHAPE_CORPUS_H_
#define GKS_TESTS_SHAPE_CORPUS_H_

// A small multi-document corpus for byte-identity checks between ways of
// building one index: one document of every corpus generator, random
// trees, plays, and hand-made shapes that separate the builder's
// interning orders (tags as rows open, values as the categorizer reports
// elements).

#include <cstdint>
#include <string>
#include <vector>

#include "data/dblp_gen.h"
#include "data/mondial_gen.h"
#include "data/nasa_gen.h"
#include "data/plays_gen.h"
#include "data/protein_gen.h"
#include "data/random_tree_gen.h"
#include "data/sigmod_gen.h"
#include "data/treebank_gen.h"
#include "index/parallel_build.h"

namespace gks::testing {

// Leaf values whose rows open x, y but whose elements the categorizer
// reports y (when <c> closes), then x (when <a> closes).
inline constexpr char kCloseOrder[] = "<a><b>x</b><c><d>y</d></c></a>";
// The same tags and values met in opposite orders: the introducer interns
// tag v before u, and value "first" before "second" (<u> is reported when
// <w> closes, <v> when <r> does); the survivor interns u before v, and
// "second" before "first".
inline constexpr char kIntroducer[] =
    "<r><v>second</v><w><u>first</u></w></r>";
inline constexpr char kSurvivor[] = "<r><u>first</u><w><v>second</v></w></r>";
// Mixed content, attributes, an empty element and a repeated leaf.
inline constexpr char kMixed[] =
    "<doc id=\"7\" lang=\"en\"><p>lead <b>bold</b> tail</p><e/>"
    "<k>same</k><k>same</k><n><k>same</k></n></doc>";

/// The corpus for `seed`, as (name, xml) in a fixed order; the shapes
/// above are named close_order.xml, introducer.xml, survivor.xml and
/// mixed.xml.
inline std::vector<NamedDocument> ShapeCorpus(uint32_t seed) {
  std::vector<NamedDocument> named;
  data::DblpOptions dblp;
  dblp.articles = 12;
  dblp.seed = seed;
  named.emplace_back("dblp.xml", data::GenerateDblp(dblp));
  data::SigmodOptions sigmod;
  sigmod.issues = 1;
  sigmod.articles_per_issue = 4;
  sigmod.seed = seed;
  named.emplace_back("sigmod.xml", data::GenerateSigmodRecord(sigmod));
  named.emplace_back("close_order.xml", kCloseOrder);
  data::MondialOptions mondial;
  mondial.countries = 2;
  mondial.seed = seed;
  named.emplace_back("mondial.xml", data::GenerateMondial(mondial));
  data::NasaOptions nasa;
  nasa.datasets = 3;
  nasa.seed = seed;
  named.emplace_back("nasa.xml", data::GenerateNasa(nasa));
  named.emplace_back("introducer.xml", kIntroducer);
  named.emplace_back("survivor.xml", kSurvivor);
  data::SwissProtOptions swissprot;
  swissprot.entries = 4;
  swissprot.seed = seed;
  named.emplace_back("swissprot.xml", data::GenerateSwissProt(swissprot));
  data::InterProOptions interpro;
  interpro.entries = 4;
  interpro.seed = seed;
  named.emplace_back("interpro.xml", data::GenerateInterPro(interpro));
  data::ProteinSequenceOptions protein;
  protein.entries = 4;
  protein.seed = seed;
  named.emplace_back("protein.xml", data::GenerateProteinSequence(protein));
  data::TreebankOptions treebank;
  treebank.sentences = 4;
  treebank.max_depth = 12;
  treebank.seed = seed;
  named.emplace_back("treebank.xml", data::GenerateTreebank(treebank));
  named.emplace_back("mixed.xml", kMixed);
  for (uint32_t i = 0; i < 3; ++i) {
    data::RandomTreeOptions tree;
    tree.seed = seed * 17 + i;
    named.emplace_back("tree" + std::to_string(i) + ".xml",
                       data::GenerateRandomTree(tree));
  }
  data::PlaysOptions plays;
  plays.plays = 2;
  plays.acts_per_play = 1;
  plays.scenes_per_act = 2;
  plays.speeches_per_scene = 3;
  plays.seed = seed;
  for (auto& play : data::GeneratePlays(plays)) named.push_back(play);
  return named;
}

}  // namespace gks::testing

#endif  // GKS_TESTS_SHAPE_CORPUS_H_
