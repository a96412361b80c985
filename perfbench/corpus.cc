// Corpus, query-stream and insert-document generators, plus the small
// helpers (fingerprints, quantiles, disk accounting) the phases share.

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <utility>

#include "common/json_writer.h"
#include "core/plan.h"
#include "core/query.h"
#include "data/dblp_gen.h"
#include "data/names.h"
#include "perfbench.h"
#include "xml/sax_parser.h"

namespace perfbench {
namespace {

// The planner's probe threshold (core/planner.cc kMinProbePostings): a
// skewed query's common word must exceed it to be planned as probe.
constexpr uint64_t kProbeFloor = 4096;
// Skew the planner needs before it probes (core/planner.cc kSkewFactor).
constexpr uint64_t kSkewFactor = 8;

/// A vocabulary word as typed, its single analyzed term, and the term's
/// posting count in the index.
struct Word {
  std::string raw;
  std::string term;
  uint64_t postings = 0;
};

/// Analyzes each raw word and keeps those that map to one indexed term,
/// one entry per distinct term, most postings first.
std::vector<Word> IndexedWords(const gks::XmlIndex& index,
                               const std::vector<std::string>& raws) {
  std::vector<Word> words;
  std::set<std::string> seen;
  for (const std::string& raw : raws) {
    gks::Result<gks::Query> query = gks::Query::Parse(raw);
    if (!query.ok() || query->size() != 1 ||
        query->atoms()[0].terms.size() != 1) {
      continue;
    }
    const std::string& term = query->atoms()[0].terms[0];
    const gks::PostingList* list = index.inverted.Find(term);
    if (list == nullptr || !seen.insert(term).second) continue;
    words.push_back({raw, term, list->size()});
  }
  std::stable_sort(words.begin(), words.end(),
                   [](const Word& a, const Word& b) {
                     return a.postings > b.postings;
                   });
  return words;
}

/// Words with at least `floor` postings; the `fallback` most frequent
/// when fewer than that qualify (toy corpora).
std::vector<Word> AtLeast(const std::vector<Word>& words, uint64_t floor,
                          size_t fallback) {
  std::vector<Word> out;
  for (const Word& word : words) {
    if (word.postings >= floor) out.push_back(word);
  }
  if (out.size() < fallback) {
    out.assign(words.begin(),
               words.begin() + std::min(fallback, words.size()));
  }
  return out;
}

template <typename T>
void Shuffle(std::vector<T>* items, Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->Below(i)]);
  }
}

std::vector<std::string> Tokens(const std::vector<std::string>& names) {
  std::vector<std::string> out;
  for (const std::string& name : names) {
    size_t start = 0;
    while (start < name.size()) {
      size_t space = name.find(' ', start);
      if (space == std::string::npos) space = name.size();
      if (space > start) out.push_back(name.substr(start, space - start));
      start = space + 1;
    }
  }
  return out;
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + salt);
  return rng.Next();
}

}  // namespace

const char* ClassName(QueryClass cls) {
  switch (cls) {
    case QueryClass::kUniform:
      return "uniform";
    case QueryClass::kSkewed:
      return "skewed";
    case QueryClass::kTopK:
      return "topk";
    case QueryClass::kDi:
      return "di";
  }
  return "?";
}

std::string BenchQuery::RequestLine() const {
  gks::JsonWriter json;
  json.BeginObject();
  json.Key("query").String(text);
  json.Key("s").UInt(s);
  json.Key("top").UInt(kTop);
  if (top_k > 0) json.Key("top_k").UInt(top_k);
  if (refine) json.Key("refine").Bool(true);
  json.EndObject();
  return json.Take();
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Corpus WriteCorpus(const std::string& dir, uint64_t seed, size_t articles) {
  Corpus corpus;
  // Document sizes vary by seed; their total does not, so every seed
  // costs about the same.
  Rng rng(Mix(seed, 1));
  double weights[kDocuments];
  double weight_sum = 0.0;
  for (double& weight : weights) {
    weight = 0.6 + 0.8 * rng.Unit();
    weight_sum += weight;
  }
  for (size_t i = 0; i < kDocuments; ++i) {
    gks::data::DblpOptions options;
    options.articles = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(articles) * weights[i] /
                               weight_sum));
    options.seed = static_cast<uint32_t>(Mix(seed, 100 + i));
    // Documents 4-7 and 12-15 have no single-author entries, so no node
    // in them reaches the top ranks the others hold. Block-max bounds can
    // only prove that away from the edges of such a run (a posting block
    // straddling two documents carries the higher bound of either).
    options.single_author_fraction = (i / 4) % 2 == 1 ? 0.0 : 0.35;
    options.inproceedings_fraction =
        0.25 + 0.5 * static_cast<double>((i * 5) % kDocuments) /
                   static_cast<double>(kDocuments - 1);
    std::string xml = gks::data::GenerateDblp(options);
    char name[32];
    std::snprintf(name, sizeof(name), "/doc_%02zu.xml", i);
    corpus.files.push_back(dir + name);
    gks::Status status = gks::xml::WriteStringToFile(corpus.files.back(), xml);
    if (!status.ok()) Die("write corpus: " + status.ToString());
    corpus.xml_bytes += xml.size();
    corpus.articles += options.articles;
  }
  return corpus;
}

std::vector<BenchQuery> DistinctStream(const gks::XmlIndex& index,
                                       size_t articles, uint64_t seed) {
  namespace data = gks::data;
  const std::vector<Word> title = IndexedWords(index, data::TitleWords());
  std::vector<std::string> raws = data::TitleWords();
  for (const auto* list : {&data::ConferenceNames(), &data::JournalNames(),
                           &data::FirstNames(), &data::LastNames()}) {
    std::vector<std::string> tokens = Tokens(*list);
    raws.insert(raws.end(), tokens.begin(), tokens.end());
  }
  for (int n = 1; n <= 451; ++n) raws.push_back(std::to_string(n));
  for (int year = 1990; year < 2016; ++year) {
    raws.push_back(std::to_string(year));
  }
  const std::vector<Word> vocabulary = IndexedWords(index, raws);

  // "Common" = in at least one record of 16 (top-k pairs: of 32, as the
  // pair's summed lists must also clear the engagement floor); "rare" =
  // in at most 1% of records.
  const uint64_t common_floor = std::max<uint64_t>(1, articles / 16);
  const uint64_t rare_ceiling = std::max<uint64_t>(1, articles / 100);
  const std::vector<Word> common_title = AtLeast(title, common_floor, 8);
  const std::vector<Word> probe_common = AtLeast(vocabulary, kProbeFloor, 3);
  const std::vector<Word> common_any =
      AtLeast(vocabulary, std::max<uint64_t>(1, articles / 32), 12);

  std::vector<BenchQuery> classes[kClassCount];
  auto add = [&](QueryClass cls, std::string text, uint32_t s,
                 uint32_t top_k, bool refine) {
    classes[static_cast<size_t>(cls)].push_back(
        {cls, std::move(text), s, top_k, refine});
  };
  // uniform: three common title words at s=2 (merge plan, s < |Q|).
  for (size_t a = 0; a < common_title.size(); ++a) {
    for (size_t b = a + 1; b < common_title.size(); ++b) {
      for (size_t c = b + 1; c < common_title.size(); ++c) {
        add(QueryClass::kUniform,
            common_title[a].raw + " " + common_title[b].raw + " " +
                common_title[c].raw,
            2, 0, false);
      }
    }
  }
  // skewed: a word above the probe floor plus a term in <= 1% of
  // records, at least kSkewFactor times rarer (probe plan).
  for (const Word& common : probe_common) {
    for (const Word& rare : vocabulary) {
      if (rare.postings > rare_ceiling ||
          rare.postings * kSkewFactor > common.postings) {
        continue;
      }
      add(QueryClass::kSkewed, common.raw + " " + rare.raw, 2, 0, false);
    }
  }
  // topk: two common words, s=1, top_k=10, whose lists together exceed
  // the block-max engagement floor (kTopKFullScanPostings anchor
  // postings). Toy corpora, where no pair does, take every pair.
  for (bool engaging : {true, false}) {
    for (size_t a = 0; a < common_any.size(); ++a) {
      for (size_t b = a + 1; b < common_any.size(); ++b) {
        if (engaging && common_any[a].postings + common_any[b].postings <=
                            gks::kTopKFullScanPostings) {
          continue;
        }
        add(QueryClass::kTopK, common_any[a].raw + " " + common_any[b].raw,
            1, kTop, false);
      }
    }
    if (!classes[static_cast<size_t>(QueryClass::kTopK)].empty()) break;
  }
  // di: an author phrase plus a title word, s=1, refinements on.
  std::set<std::string> authors(data::AuthorPool().begin(),
                                data::AuthorPool().end());
  for (const std::string& author : authors) {
    for (const Word& word : title) {
      add(QueryClass::kDi, "\"" + author + "\" " + word.raw, 1, 0, true);
    }
  }

  Rng rng(Mix(seed, 2));
  size_t per_class = SIZE_MAX;
  for (std::vector<BenchQuery>& list : classes) {
    Shuffle(&list, &rng);
    per_class = std::min(per_class, list.size());
  }
  std::vector<BenchQuery> stream;
  stream.reserve(per_class * kClassCount);
  for (size_t i = 0; i < per_class; ++i) {
    for (std::vector<BenchQuery>& list : classes) stream.push_back(list[i]);
  }
  return stream;
}

std::vector<uint32_t> ZipfOrder(size_t universe, size_t length, double theta,
                                size_t flat_head,
                                uint64_t seed) {
  std::vector<double> cdf(universe);
  double total = 0.0;
  for (size_t r = 0; r < universe; ++r) {
    total += 1.0 / std::pow(static_cast<double>(std::max(r, flat_head) + 1),
                            theta);
    cdf[r] = total;
  }
  Rng rng(Mix(seed, 3));
  std::vector<uint32_t> order(length);
  for (uint32_t& rank : order) {
    size_t r = static_cast<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), rng.Unit() * total) -
        cdf.begin());
    rank = static_cast<uint32_t>(std::min(r, universe - 1));
  }
  return order;
}

InsertDoc MakeInsertDoc(uint64_t seed, size_t i) {
  // Consonants only, no 's': with no vowel the Porter stemmer leaves the
  // token unchanged, so each nonce is one unique indexed term.
  static constexpr char kDigits[] = "bcdfghjklmnpqrtvwz";
  InsertDoc doc;
  doc.name = "insert-" + std::to_string(i);
  doc.nonce = "nq";
  for (size_t v = i + 1; v > 0; v /= 18) doc.nonce.push_back(kDigits[v % 18]);
  doc.nonce.push_back('x');
  gks::data::DblpOptions options;
  options.articles = 1;
  options.seed = static_cast<uint32_t>(Mix(seed, 20'000'000 + i));
  doc.xml = gks::data::GenerateDblp(options);
  size_t title = doc.xml.find("<title>");
  if (title == std::string::npos) Die("generated article has no title");
  doc.xml.insert(title + 7, doc.nonce + " ");
  return doc;
}

std::string Fingerprint(const gks::JsonValue& response) {
  const gks::JsonValue* ok = response.Find("ok");
  if (ok == nullptr || !ok->GetBool()) return "";
  std::string out;
  char buf[64];
  auto number = [&](const gks::JsonValue* value) {
    std::snprintf(buf, sizeof(buf), "%.17g",
                  value != nullptr ? value->GetDouble() : -1.0);
    out += buf;
    out += '|';
  };
  auto text = [&](const gks::JsonValue* value) {
    if (value != nullptr) out += value->GetString();
    out += '|';
  };
  if (const gks::JsonValue* nodes = response.Find("nodes")) {
    for (const gks::JsonValue& node : nodes->items()) {
      text(node.Find("id"));
      text(node.Find("doc"));
      out += node.Find("lce") != nullptr && node.Find("lce")->GetBool() ? "L|"
                                                                        : "-|";
      number(node.Find("keywords"));
      number(node.Find("rank"));
      text(node.Find("describe"));
      out += '\n';
    }
  }
  if (const gks::JsonValue* dis = response.Find("di")) {
    for (const gks::JsonValue& di : dis->items()) {
      text(di.Find("value"));
      if (const gks::JsonValue* path = di.Find("path")) {
        for (const gks::JsonValue& step : path->items()) text(&step);
      }
      number(di.Find("weight"));
      number(di.Find("support"));
      out += '\n';
    }
  }
  if (const gks::JsonValue* refinements = response.Find("refinements")) {
    for (const gks::JsonValue& refinement : refinements->items()) {
      if (const gks::JsonValue* keywords = refinement.Find("keywords")) {
        for (const gks::JsonValue& keyword : keywords->items()) text(&keyword);
      }
      out += '\n';
    }
  }
  return out;
}

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  double rank = std::ceil(q * static_cast<double>(sorted.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

uint64_t DiskBytes(const std::string& path) {
  std::error_code error;
  if (!std::filesystem::is_directory(path, error)) {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                          : 0;
  }
  uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(path, error)) {
    if (entry.is_regular_file(error)) total += entry.file_size(error);
  }
  return total;
}

void Die(const std::string& what) {
  std::fprintf(stderr, "gks_perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

}  // namespace perfbench
