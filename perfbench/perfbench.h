// Shared pieces of the seeded end-to-end benchmark (README.md): the
// corpus and query-stream generators, the wire request each query turns
// into, the response fingerprint the correctness gate compares, and the
// named-metric list every phase appends to.

#ifndef GKS_PERFBENCH_PERFBENCH_H_
#define GKS_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json_value.h"
#include "index/xml_index.h"

namespace perfbench {

/// Every request asks for this many ranked nodes (the wire `top` field).
inline constexpr size_t kTop = 10;
/// Documents the corpus is split into (one XML file each).
inline constexpr size_t kDocuments = 16;

enum class QueryClass { kUniform = 0, kSkewed = 1, kTopK = 2, kDi = 3 };
inline constexpr size_t kClassCount = 4;
const char* ClassName(QueryClass cls);

/// One benchmark query: the text plus the request options its class
/// fixes. Always sent with `top` = kTop.
struct BenchQuery {
  QueryClass cls = QueryClass::kUniform;
  std::string text;
  uint32_t s = 1;
  uint32_t top_k = 0;   // wire `top_k`; 0 = omitted
  bool refine = false;  // wire `refine`

  /// The newline-free JSON request line for the wire protocol.
  std::string RequestLine() const;
};

/// Deterministic 64-bit generator (SplitMix64): the same seed gives the
/// same corpus and query streams on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// The shared DBLP-shaped corpus: kDocuments files written to disk.
struct Corpus {
  std::vector<std::string> files;  // in global doc id order
  uint64_t xml_bytes = 0;
  size_t articles = 0;
};

/// Generates the corpus for `seed` with about `articles` entries in total
/// and writes it under `dir`. Documents differ in size, in their share of
/// conference papers and in whether they hold single-author entries, so
/// per-document rank bounds differ and block-max top-k has documents it
/// can skip.
Corpus WriteCorpus(const std::string& dir, uint64_t seed, size_t articles);

/// The four query classes built from the index's own posting counts,
/// each shuffled by `seed` and interleaved uniform, skewed, topk, di, ...
/// No two entries share a normalized query. The stream ends when the
/// smallest class runs out, so the class mix never drifts.
std::vector<BenchQuery> DistinctStream(const gks::XmlIndex& index,
                                       size_t articles, uint64_t seed);

/// `length` draws from [0, universe), Zipf-skewed with exponent `theta`
/// (0 hottest), with a flat head: ranks below `flat_head` all weigh what
/// rank `flat_head` does.
std::vector<uint32_t> ZipfOrder(size_t universe, size_t length, double theta,
                                size_t flat_head,
                                uint64_t seed);

/// One single-article document for the real-time writer, tagged with a
/// unique nonce term in its title so the document can be found again.
struct InsertDoc {
  std::string name;
  std::string xml;
  std::string nonce;
};
InsertDoc MakeInsertDoc(uint64_t seed, size_t i);

/// Canonical form of a query response's observable answer: node ids,
/// documents, LCE flags, keyword counts, display ranks and describe
/// strings, then DI values, paths, weights and supports, then
/// refinements. Elapsed time and epoch are left out. Empty when the
/// response is not a success envelope.
std::string Fingerprint(const gks::JsonValue& response);

/// Named metrics in print order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Value at quantile `q` (0..1, nearest rank) of `sorted`; 0 when empty.
double Quantile(const std::vector<double>& sorted, double q);

/// Size of a file, or the summed size of every regular file under a
/// directory.
uint64_t DiskBytes(const std::string& path);

[[noreturn]] void Die(const std::string& what);

}  // namespace perfbench

#endif  // GKS_PERFBENCH_PERFBENCH_H_
