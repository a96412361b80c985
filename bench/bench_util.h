#ifndef GKS_BENCH_BENCH_UTIL_H_
#define GKS_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "common/timer.h"
#include "core/searcher.h"
#include "data/dblp_gen.h"
#include "data/names.h"
#include "data/mondial_gen.h"
#include "data/nasa_gen.h"
#include "data/plays_gen.h"
#include "data/protein_gen.h"
#include "data/sigmod_gen.h"
#include "data/treebank_gen.h"
#include "index/index_builder.h"
#include "index/serialization.h"
#include "index/xml_index.h"
#include "xml/dom_builder.h"

namespace gks::bench {

/// Global scale knob: every corpus size multiplies by GKS_BENCH_SCALE
/// (default 1.0). The paper's absolute sizes (Table 4) are reproduced in
/// *shape* at laptop scale; raise the knob to stress larger corpora.
inline double Scale() {
  static const double scale = [] {
    const char* env = std::getenv("GKS_BENCH_SCALE");
    return env != nullptr ? std::atof(env) : 1.0;
  }();
  return scale <= 0 ? 1.0 : scale;
}

inline size_t Scaled(size_t base) {
  double value = static_cast<double>(base) * Scale();
  return value < 1 ? 1 : static_cast<size_t>(value);
}

/// One synthetic corpus: name + the XML documents composing it.
struct Corpus {
  std::string name;
  std::vector<std::pair<std::string, std::string>> documents;

  size_t TotalBytes() const {
    size_t total = 0;
    for (const auto& [name_, xml] : documents) total += xml.size();
    return total;
  }
};

inline Corpus MakeSigmod() {
  data::SigmodOptions options;
  options.issues = Scaled(120);
  return {"SIGMOD Record",
          {{"sigmod.xml", data::GenerateSigmodRecord(options)}}};
}

inline Corpus MakeMondial() {
  data::MondialOptions options;
  options.countries = Scaled(240);
  return {"Mondial", {{"mondial.xml", data::GenerateMondial(options)}}};
}

inline Corpus MakePlays() {
  data::PlaysOptions options;
  options.plays = Scaled(8);
  Corpus corpus{"Plays", {}};
  corpus.documents = data::GeneratePlays(options);
  return corpus;
}

inline Corpus MakeTreebank() {
  data::TreebankOptions options;
  options.sentences = Scaled(6000);
  return {"TreeBank", {{"treebank.xml", data::GenerateTreebank(options)}}};
}

inline Corpus MakeSwissProt(double extra_scale = 1.0) {
  data::SwissProtOptions options;
  options.entries = static_cast<size_t>(Scaled(8000) * extra_scale);
  return {"SwissProt", {{"swissprot.xml", data::GenerateSwissProt(options)}}};
}

inline Corpus MakeInterPro() {
  data::InterProOptions options;
  options.entries = Scaled(5000);
  return {"InterPro", {{"interpro.xml", data::GenerateInterPro(options)}}};
}

inline Corpus MakeProteinSequence() {
  data::ProteinSequenceOptions options;
  options.entries = Scaled(12000);
  return {"Protein Sequence",
          {{"protein.xml", data::GenerateProteinSequence(options)}}};
}

inline Corpus MakeDblp() {
  data::DblpOptions options;
  options.articles = Scaled(40000);
  return {"DBLP", {{"dblp.xml", data::GenerateDblp(options)}}};
}

inline Corpus MakeNasa() {
  data::NasaOptions options;
  options.datasets = Scaled(4000);
  return {"NASA", {{"nasa.xml", data::GenerateNasa(options)}}};
}

/// Builds the index over a corpus, reporting build seconds via `seconds`.
inline XmlIndex BuildIndex(const Corpus& corpus, double* seconds = nullptr) {
  WallTimer timer;
  IndexBuilder builder;
  for (const auto& [name, xml] : corpus.documents) {
    Status status = builder.AddDocument(xml, name);
    if (!status.ok()) {
      std::fprintf(stderr, "FATAL %s: %s\n", corpus.name.c_str(),
                   status.ToString().c_str());
      std::exit(1);
    }
  }
  Result<XmlIndex> index = std::move(builder).Finalize();
  if (!index.ok()) {
    std::fprintf(stderr, "FATAL finalize: %s\n",
                 index.status().ToString().c_str());
    std::exit(1);
  }
  if (seconds != nullptr) *seconds = timer.ElapsedSeconds();
  return std::move(index).value();
}

/// The paper's rank-score metric (Sec. 7.3): "true" nodes are those with
/// the maximum keyword count; w is the worst (1-based) position of a true
/// node; each true node at position i earns (w+1-i); score = earned /
/// w(w+1)/2 ... normalized so 1.0 means no false node outranks any true
/// node.
inline double RankScore(const std::vector<GksNode>& ranked) {
  if (ranked.empty()) return 0.0;
  uint32_t max_keywords = 0;
  for (const GksNode& node : ranked) {
    max_keywords = std::max(max_keywords, node.keyword_count);
  }
  size_t w = 0;  // worst position of a true node (1-based)
  for (size_t i = 0; i < ranked.size(); ++i) {
    if (ranked[i].keyword_count == max_keywords) w = i + 1;
  }
  double earned = 0.0;
  for (size_t i = 0; i < ranked.size() && i < w; ++i) {
    if (ranked[i].keyword_count == max_keywords) {
      earned += static_cast<double>(w - i);  // (w + 1 - (i+1))
    }
  }
  double total = static_cast<double>(w) * static_cast<double>(w + 1) / 2.0;
  // The paper normalizes by the weight mass the true nodes would earn if
  // they filled the top |L'| positions; with t true nodes that mass is
  // sum_{i=1..t} (w+1-i).
  size_t true_count = 0;
  for (const GksNode& node : ranked) {
    if (node.keyword_count == max_keywords) ++true_count;
  }
  double ideal = 0.0;
  for (size_t i = 1; i <= true_count; ++i) {
    ideal += static_cast<double>(w + 1 - i);
  }
  (void)total;
  return ideal > 0 ? earned / ideal : 0.0;
}

/// Quoted query of the n most popular synthetic author identities, e.g.
/// "\"Peter Buneman\" \"Wenfei Fan\"" for n=2 — the analogues of the
/// paper's QS/QD author queries (Table 6).
inline std::string AuthorQueryText(size_t n) {
  std::string out;
  const auto& pool = data::AuthorPool();
  for (size_t i = 0; i < n && i < pool.size(); ++i) {
    if (!out.empty()) out += " ";
    out += "\"" + pool[i] + "\"";
  }
  return out;
}

/// Finds a group of >= n co-authors of one entry in the corpus (an element
/// with >= n direct <author>-tagged leaf children) and returns the first n
/// as a quoted query — exactly how the paper picked its QS/QD queries
/// ("queries are designed for which ..."). Falls back to the pool head if
/// the corpus has no such entry.
inline std::string CoAuthorQueryText(const Corpus& corpus, size_t n) {
  for (const auto& [name, xmltext] : corpus.documents) {
    Result<xml::DomDocument> dom = xml::ParseDom(xmltext);
    if (!dom.ok()) continue;
    std::vector<const xml::DomNode*> stack{dom->root()};
    while (!stack.empty()) {
      const xml::DomNode* node = stack.back();
      stack.pop_back();
      std::vector<std::string> authors;
      for (const auto& child : node->children()) {
        if (child->is_element() &&
            (child->name() == "author" || child->name() == "Author")) {
          authors.push_back(child->InnerText());
        } else if (child->is_element()) {
          stack.push_back(child.get());
        }
      }
      if (authors.size() >= n) {
        std::string out;
        for (size_t i = 0; i < n; ++i) {
          if (!out.empty()) out += " ";
          out += "\"" + authors[i] + "\"";
        }
        return out;
      }
    }
  }
  return AuthorQueryText(n);
}

/// Runs a query and returns the response (exits on error).
inline SearchResponse RunQuery(const XmlIndex& index, const std::string& text,
                               uint32_t s, bool di = false) {
  GksSearcher searcher(&index);
  SearchOptions options;
  options.s = s;
  options.discover_di = di;
  options.suggest_refinements = false;
  Result<SearchResponse> response = searcher.Search(text, options);
  if (!response.ok()) {
    std::fprintf(stderr, "FATAL query '%s': %s\n", text.c_str(),
                 response.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(response).value();
}

}  // namespace gks::bench

#endif  // GKS_BENCH_BENCH_UTIL_H_
