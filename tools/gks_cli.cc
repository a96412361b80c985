// The `gks` command-line tool: build, inspect and query GKS indexes.
//
//   gks index  <out.gksidx> <file.xml...> [--threads=N] [--metrics]
//   gks search <index.gksidx> "<query>" [--s=N] [--top=N] [--top-k=K]
//                                        [--refine] [--schema-reconcile]
//                                        [--explain] [--explain-json]
//                                        [--metrics] [--di=M]
//   gks batch  <index.gksidx> <queries.txt> [--threads=N] [--s=N]
//                                        [--top=N] [--top-k=K] [--print]
//                                        [--metrics]
//   gks analyze <index.gksidx> "<query>" [--s=N] [--facets]
//                                        [--agg=TAG] [--hist=TAG:BUCKETS]
//   gks schema <index.gksidx>                      DataGuide-style dump
//   gks stats  <index.gksidx> [--metrics] [--metrics-json]
//   gks generate <dataset> <out.xml> [--scale=F]   synthetic corpora
//   gks serve  <index.gksidx> [--port=N] ...       long-running query server
//   gks client [--port=N] ...                      query/admin/load client
//
// The server speaks the newline-delimited JSON protocol of
// docs/SERVER.md (hot reload, admission control, graceful drain).
//
// Every file a command writes replaces its target atomically
// (common/file_io.h), and every command rejects unknown flags, counts
// that are not whole non-negative numbers, and scales or time budgets
// that are not finite non-negative numbers, with exit code 2 before any
// work.
//
// Full reference: docs/CLI.md; metric and span contract:
// docs/OBSERVABILITY.md.
//
// Queries use double quotes inside the shell-quoted argument for phrases:
//   gks search dblp.gksidx '"Peter Buneman" "Wenfei Fan"' --s=1

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "common/flags.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/analytics.h"
#include "core/chunk.h"
#include "core/searcher.h"
#include "data/dblp_gen.h"
#include "data/mondial_gen.h"
#include "data/nasa_gen.h"
#include "data/protein_gen.h"
#include "data/sigmod_gen.h"
#include "data/treebank_gen.h"
#include "index/index_builder.h"
#include "index/parallel_build.h"
#include "index/serialization.h"
#include "index/shard.h"
#include "schema/schema_summary.h"
#include "server/command.h"
#include "xml/writer.h"

namespace gks {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  gks index  <out.gksidx> <file.xml...> [--threads=N] [--metrics]\n"
      "  gks search <index.gksidx> \"<query>\" [--s=N] [--top=N] [--di=M]\n"
      "             [--refine] [--schema-reconcile] [--explain] [--chunks=N]\n"
      "             [--explain-json] [--metrics] [--plan=auto|merge|probe]\n"
      "             [--top-k=K] (early-terminating k-best evaluation)\n"
      "             (keywords may be tag-constrained: year:2001,\n"
      "              author:\"peter buneman\")\n"
      "  gks batch  <index.gksidx> <queries.txt> [--threads=N] [--s=N]\n"
      "             [--top=N] [--top-k=K] [--print] [--di=M] [--metrics]\n"
      "             [--plan=auto|merge|probe]\n"
      "             (one query per line; '#' starts a comment)\n"
      "  gks analyze <index.gksidx> \"<query>\" [--s=N] [--facets]\n"
      "             [--agg=TAG] [--hist=TAG:BUCKETS]\n"
      "  gks schema <index.gksidx>\n"
      "  gks stats  <index.gksidx> [--metrics] [--metrics-json]\n"
      "  gks shard  <out-dir> <file.xml...> --shards=N [--threads=N]\n"
      "             (split into contiguous document-range shard indexes +\n"
      "              MANIFEST.json for distributed serving,\n"
      "              docs/DISTRIBUTED.md)\n"
      "  gks serve  <index.gksidx> [--port=N] [--host=H] [--threads=N]\n"
      "             [--queue=N] [--deadline-ms=D] [--cache-bytes=N]\n"
      "             [--max-request-bytes=N]\n"
      "  gks client [--host=H] [--port=N] (--admin=VERB [--path=P] |\n"
      "             --query=Q | --queries=FILE [--connections=C]\n"
      "             [--requests=N]) [--s=N] [--top=N]\n"
      "  gks generate <dblp|sigmod|mondial|swissprot|interpro|protein|nasa|"
      "treebank> <out.xml> [--scale=F]\n");
  return 2;
}

int Fail(const Status& status, int exit_code = 1) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return exit_code;
}

// --plan forces the execution strategy; auto (the default) lets the
// planner choose from posting-list statistics (docs/PERFORMANCE.md).
bool ParsePlanFlag(const FlagParser& flags, SearchOptions* options) {
  std::string plan = flags.GetString("plan", "auto");
  if (!ParsePlanMode(plan, &options->plan)) {
    std::fprintf(stderr,
                 "error: --plan must be auto, merge or probe (got '%s')\n",
                 plan.c_str());
    return false;
  }
  return true;
}

// The "DI:" block `search` prints, and `batch --print` per query: one
// line per discovered keyword with its path, weight and support.
void PrintDi(const SearchResponse& response) {
  if (response.insights.empty()) return;
  std::printf("DI:\n");
  for (const DiKeyword& di : response.insights) {
    std::printf("  %-50s weight=%.2f support=%u\n", di.ToString().c_str(),
                di.weight, di.support);
  }
}

// Builds with --threads=N workers: documents are parsed into per-file
// partial indexes on the pool and merged deterministically, so the output
// is byte-identical to a sequential build (src/index/parallel_build.h).
Result<XmlIndex> BuildIndexFromArgs(const FlagParser& flags,
                                    const std::vector<std::string>& args) {
  int threads = static_cast<int>(flags.GetInt("threads", 1));
  if (threads <= 1) {
    IndexBuilder builder;
    for (size_t i = 2; i < args.size(); ++i) {
      std::printf("indexing %s...\n", args[i].c_str());
      if (Status status = builder.AddFile(args[i]); !status.ok()) {
        return status;
      }
    }
    return std::move(builder).Finalize();
  }
  ThreadPool pool(static_cast<size_t>(threads));
  std::vector<NamedDocument> documents;
  documents.reserve(args.size() - 2);
  for (size_t i = 2; i < args.size(); ++i) {
    std::string contents;
    if (Status status = ReadFileToString(args[i], &contents);
        !status.ok()) {
      return status;
    }
    documents.emplace_back(args[i], std::move(contents));
  }
  std::printf("indexing %zu files on %zu threads...\n", documents.size(),
              pool.size());
  return BuildIndexParallel(documents, {}, &pool);
}

int CmdIndex(const FlagParser& flags) {
  if (Status status = flags.Validate({"metrics"}, {"threads"});
      !status.ok()) {
    return Fail(status, 2);
  }
  const auto& args = flags.positional();
  if (args.size() < 3) return Usage();
  WallTimer timer;
  Result<XmlIndex> index = BuildIndexFromArgs(flags, args);
  if (!index.ok()) return Fail(index.status());
  if (Status status = SaveIndex(*index, args[1]); !status.ok()) {
    return Fail(status);
  }
  std::printf("wrote %s: %zu docs, %llu elements, %zu terms, %llu postings "
              "in %.2fs\n",
              args[1].c_str(), index->catalog.document_count(),
              (unsigned long long)index->catalog.TotalElements(),
              index->inverted.term_count(),
              (unsigned long long)index->inverted.posting_count(),
              timer.ElapsedSeconds());
  if (flags.GetBool("metrics")) {
    std::printf("-- metrics --\n%s",
                MetricsRegistry::Global().Snapshot().ToText().c_str());
  }
  return 0;
}

int CmdSearch(const FlagParser& flags) {
  if (Status status = flags.Validate(
          {"refine", "schema-reconcile", "explain", "explain-json", "metrics",
           "plan"},
          {"s", "top", "top-k", "di", "chunks"});
      !status.ok()) {
    return Fail(status, 2);
  }
  const auto& args = flags.positional();
  if (args.size() < 3) return Usage();
  Result<XmlIndex> index = LoadIndex(args[1]);
  if (!index.ok()) return Fail(index.status());

  if (flags.GetBool("schema-reconcile")) {
    SchemaSummary summary = SchemaSummary::Build(*index);
    SchemaReconciliation stats = ApplySchemaCategorization(summary, &*index);
    std::printf("schema reconciliation: +%llu entities, +%llu attributes\n",
                (unsigned long long)stats.promoted_entities,
                (unsigned long long)stats.promoted_attributes);
  }

  SearchOptions options;
  options.s = static_cast<uint32_t>(flags.GetInt("s", 1));
  options.max_results = static_cast<size_t>(flags.GetInt("top", 20));
  options.top_k = static_cast<uint32_t>(flags.GetInt("top-k", 0));
  options.di_top_m = static_cast<size_t>(flags.GetInt("di", 5));
  // --explain-json documents the full pipeline, so it runs every stage.
  options.suggest_refinements =
      flags.GetBool("refine") || flags.GetBool("explain-json");
  if (!ParsePlanFlag(flags, &options)) return 2;

  GksSearcher searcher(&*index);
  WallTimer timer;
  Result<SearchResponse> response = searcher.Search(args[2], options);
  if (!response.ok()) return Fail(response.status());
  if (flags.GetBool("explain-json")) {
    // Machine-readable mode: the span-tree document is the whole output
    // (docs/OBSERVABILITY.md documents the schema).
    std::printf("%s\n", ExplainJson(*response).c_str());
    if (flags.GetBool("metrics")) {
      std::fputs(MetricsRegistry::Global().Snapshot().ToText().c_str(),
                 stderr);
    }
    return 0;
  }
  std::printf(
      "%zu nodes (|S_L|=%zu, candidates=%zu, LCE=%zu, plan=%s) in %.2fms\n",
      response->nodes.size(), response->merged_list_size,
      response->candidate_count, response->lce_count,
      PlanModeName(response->plan.strategy), timer.ElapsedMillis());
  if (flags.GetBool("explain")) {
    std::printf("%s\n", FormatSearchDiagnostics(*response).c_str());
  }
  for (const GksNode& node : response->nodes) {
    const Catalog::DocumentInfo* doc = index->Document(node.id.doc_id());
    std::printf("  %s [%s]\n", DescribeNode(*index, node).c_str(),
                doc != nullptr ? doc->name.c_str() : "?");
  }
  size_t chunks = static_cast<size_t>(flags.GetInt("chunks", 0));
  if (chunks > 0) {
    Result<Query> query = Query::Parse(args[2]);
    if (!query.ok()) return Fail(query.status());
    ChunkBuilder chunker(*index, *query);
    for (size_t i = 0; i < response->nodes.size() && i < chunks; ++i) {
      std::printf("--- chunk %zu ---\n%s", i + 1,
                  xml::WriteXml(chunker.Build(response->nodes[i])).c_str());
    }
  }
  PrintDi(*response);
  for (const RefinementSuggestion& suggestion : response->refinements) {
    std::printf("refine: {");
    for (size_t i = 0; i < suggestion.keywords.size(); ++i) {
      std::printf("%s%s", i ? ", " : "", suggestion.keywords[i].c_str());
    }
    std::printf("} (%s)\n", suggestion.rationale.c_str());
  }
  if (flags.GetBool("metrics")) {
    std::printf("-- metrics --\n%s",
                MetricsRegistry::Global().Snapshot().ToText().c_str());
  }
  return 0;
}

// Runs every query in <queries.txt> through GksSearcher::SearchBatch,
// optionally on a thread pool (--threads=N).
int CmdBatch(const FlagParser& flags) {
  if (Status status = flags.Validate({"print", "metrics", "plan"},
                                     {"threads", "s", "top", "top-k", "di"});
      !status.ok()) {
    return Fail(status, 2);
  }
  const auto& args = flags.positional();
  if (args.size() < 3) return Usage();
  Result<XmlIndex> index = LoadIndex(args[1]);
  if (!index.ok()) return Fail(index.status());

  std::string text;
  if (Status status = ReadFileToString(args[2], &text); !status.ok()) {
    return Fail(status);
  }
  std::vector<std::string> queries;
  for (std::string& line : SplitString(text, '\n')) {
    size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos || line[begin] == '#') continue;
    size_t end = line.find_last_not_of(" \t\r");
    queries.push_back(line.substr(begin, end - begin + 1));
  }
  if (queries.empty()) {
    std::fprintf(stderr, "error: no queries in %s\n", args[2].c_str());
    return 1;
  }

  SearchOptions options;
  options.s = static_cast<uint32_t>(flags.GetInt("s", 1));
  options.max_results = static_cast<size_t>(flags.GetInt("top", 20));
  options.top_k = static_cast<uint32_t>(flags.GetInt("top-k", 0));
  options.di_top_m = static_cast<size_t>(flags.GetInt("di", 5));
  if (!ParsePlanFlag(flags, &options)) return 2;

  size_t threads = static_cast<size_t>(flags.GetInt("threads", 1));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  GksSearcher searcher(&*index);
  WallTimer timer;
  std::vector<Result<SearchResponse>> responses =
      searcher.SearchBatch(queries, options, pool.get());
  double elapsed_ms = timer.ElapsedMillis();

  size_t failures = 0;
  size_t total_nodes = 0;
  for (size_t i = 0; i < responses.size(); ++i) {
    if (!responses[i].ok()) {
      ++failures;
      std::fprintf(stderr, "query '%s': %s\n", queries[i].c_str(),
                   responses[i].status().ToString().c_str());
      continue;
    }
    total_nodes += responses[i]->nodes.size();
    if (flags.GetBool("print")) {
      std::printf("## %s -> %zu nodes\n", queries[i].c_str(),
                  responses[i]->nodes.size());
      for (const GksNode& node : responses[i]->nodes) {
        std::printf("  %s\n", DescribeNode(*index, node).c_str());
      }
      PrintDi(*responses[i]);
    }
  }
  std::printf(
      "%zu queries on %zu thread(s): %zu nodes, %zu failed in %.2fms "
      "(%.1f q/s)\n",
      queries.size(), threads == 0 ? 1 : threads, total_nodes, failures,
      elapsed_ms,
      elapsed_ms > 0.0 ? 1000.0 * (double)queries.size() / elapsed_ms : 0.0);
  if (flags.GetBool("metrics")) {
    std::printf("-- metrics --\n%s",
                MetricsRegistry::Global().Snapshot().ToText().c_str());
  }
  return failures == 0 ? 0 : 1;
}

int CmdAnalyze(const FlagParser& flags) {
  if (Status status = flags.Validate({"facets", "agg", "hist"}, {"s"});
      !status.ok()) {
    return Fail(status, 2);
  }
  const auto& args = flags.positional();
  if (args.size() < 3) return Usage();
  Result<XmlIndex> index = LoadIndex(args[1]);
  if (!index.ok()) return Fail(index.status());

  SearchOptions options;
  options.s = static_cast<uint32_t>(flags.GetInt("s", 1));
  options.discover_di = false;
  options.suggest_refinements = false;
  GksSearcher searcher(&*index);
  Result<SearchResponse> response = searcher.Search(args[2], options);
  if (!response.ok()) return Fail(response.status());
  std::printf("%zu response nodes\n", response->nodes.size());

  if (flags.GetBool("facets") || (!flags.Has("agg") && !flags.Has("hist"))) {
    for (const Facet& facet : ComputeFacets(*index, response->nodes)) {
      std::printf("facet %s:\n", facet.tag.c_str());
      for (const FacetBucket& bucket : facet.buckets) {
        std::printf("  %-40s %6u  (rank mass %.2f)\n", bucket.value.c_str(),
                    bucket.count, bucket.rank_mass);
      }
    }
  }
  if (flags.Has("agg")) {
    std::string tag = flags.GetString("agg", "");
    Result<NumericSummary> summary =
        AggregateNumeric(*index, response->nodes, tag);
    if (!summary.ok()) return Fail(summary.status());
    std::printf("%s: count=%llu min=%.2f max=%.2f mean=%.2f sum=%.2f "
                "(skipped %llu non-numeric)\n",
                tag.c_str(), (unsigned long long)summary->count, summary->min,
                summary->max, summary->mean, summary->sum,
                (unsigned long long)summary->skipped);
  }
  if (flags.Has("hist")) {
    std::string spec = flags.GetString("hist", "");
    size_t colon = spec.find(':');
    std::string tag = spec.substr(0, colon);
    size_t buckets = colon == std::string::npos
                         ? 10
                         : static_cast<size_t>(
                               std::atoll(spec.c_str() + colon + 1));
    Result<std::vector<HistogramBucket>> histogram =
        NumericHistogram(*index, response->nodes, tag, buckets);
    if (!histogram.ok()) return Fail(histogram.status());
    for (const HistogramBucket& bucket : *histogram) {
      std::printf("  [%8.1f, %8.1f)  %llu\n", bucket.lo, bucket.hi,
                  (unsigned long long)bucket.count);
    }
  }
  return 0;
}

int CmdSchema(const FlagParser& flags) {
  if (Status status = flags.Validate({}); !status.ok()) {
    return Fail(status, 2);
  }
  const auto& args = flags.positional();
  if (args.size() < 2) return Usage();
  Result<XmlIndex> index = LoadIndex(args[1]);
  if (!index.ok()) return Fail(index.status());
  SchemaSummary summary = SchemaSummary::Build(*index);
  std::printf("%s", summary.ToString(*index).c_str());
  return 0;
}

int CmdStats(const FlagParser& flags) {
  if (Status status = flags.Validate({"metrics", "metrics-json"});
      !status.ok()) {
    return Fail(status, 2);
  }
  const auto& args = flags.positional();
  if (args.size() < 2) return Usage();
  Result<XmlIndex> index = LoadIndex(args[1]);
  if (!index.ok()) return Fail(index.status());
  const auto& counts = index->nodes.counts();
  std::printf("documents : %zu\n", index->catalog.document_count());
  for (size_t i = 0; i < index->catalog.document_count(); ++i) {
    const auto& doc = index->catalog.document(static_cast<uint32_t>(i));
    std::printf("  [%zu] %s  elements=%llu depth=%u\n", i, doc.name.c_str(),
                (unsigned long long)doc.element_count, doc.max_depth);
  }
  std::printf("elements  : %llu (AN=%llu EN=%llu RN=%llu CN=%llu)\n",
              (unsigned long long)counts.total,
              (unsigned long long)counts.attribute,
              (unsigned long long)counts.entity,
              (unsigned long long)counts.repeating,
              (unsigned long long)counts.connecting);
  std::printf("terms     : %zu\n", index->inverted.term_count());
  std::printf("postings  : %llu\n",
              (unsigned long long)index->inverted.posting_count());
  std::printf("attr dir  : %zu values\n", index->nodes.ValuedRowCount());
  std::printf("memory    : %s\n", HumanBytes(index->MemoryUsage()).c_str());
  if (Result<IndexFileInfo> info = InspectIndexFile(args[1]); info.ok()) {
    std::printf("on disk   : %s (format v%d)\n",
                HumanBytes(info->file_bytes).c_str(), info->version);
    for (const IndexSectionInfo& section : info->sections) {
      std::printf("  %-10s %10s%s\n", section.name.c_str(),
                  HumanBytes(section.bytes).c_str(),
                  section.compressed ? "  (lz)" : "");
    }
  }
  if (flags.GetBool("metrics-json")) {
    std::printf("%s\n", MetricsRegistry::Global().Snapshot().ToJson().c_str());
  } else if (flags.GetBool("metrics")) {
    std::printf("-- metrics --\n%s",
                MetricsRegistry::Global().Snapshot().ToText().c_str());
  }
  return 0;
}

int CmdGenerate(const FlagParser& flags) {
  if (Status status = flags.Validate({}, {}, {"scale"}); !status.ok()) {
    return Fail(status, 2);
  }
  const auto& args = flags.positional();
  if (args.size() < 3) return Usage();
  double scale = flags.GetDouble("scale", 1.0);
  if (scale <= 0.0) {
    return Fail(Status::InvalidArgument("--scale must be greater than 0"), 2);
  }
  // The largest base below (dblp's 20000 articles) times the scale must
  // fit in a size_t: casting a larger double is undefined behaviour.
  if (!(20000.0 * scale < 0x1p64)) {
    return Fail(Status::InvalidArgument("--scale is too large"), 2);
  }
  auto scaled = [scale](size_t base) {
    return static_cast<size_t>(static_cast<double>(base) * scale) + 1;
  };
  const std::string& kind = args[1];
  std::string xml;
  if (kind == "dblp") {
    data::DblpOptions options;
    options.articles = scaled(20000);
    xml = data::GenerateDblp(options);
  } else if (kind == "sigmod") {
    data::SigmodOptions options;
    options.issues = scaled(120);
    xml = data::GenerateSigmodRecord(options);
  } else if (kind == "mondial") {
    data::MondialOptions options;
    options.countries = scaled(240);
    xml = data::GenerateMondial(options);
  } else if (kind == "swissprot") {
    data::SwissProtOptions options;
    options.entries = scaled(8000);
    xml = data::GenerateSwissProt(options);
  } else if (kind == "interpro") {
    data::InterProOptions options;
    options.entries = scaled(5000);
    xml = data::GenerateInterPro(options);
  } else if (kind == "protein") {
    data::ProteinSequenceOptions options;
    options.entries = scaled(12000);
    xml = data::GenerateProteinSequence(options);
  } else if (kind == "nasa") {
    data::NasaOptions options;
    options.datasets = scaled(4000);
    xml = data::GenerateNasa(options);
  } else if (kind == "treebank") {
    data::TreebankOptions options;
    options.sentences = scaled(6000);
    xml = data::GenerateTreebank(options);
  } else {
    return Usage();
  }
  if (Status status = WriteStringToFile(args[2], xml); !status.ok()) {
    return Fail(status);
  }
  std::printf("wrote %s (%s)\n", args[2].c_str(),
              HumanBytes(xml.size()).c_str());
  return 0;
}

// `gks shard`: split a repository into contiguous document-range shard
// indexes plus a MANIFEST.json, each servable by an ordinary
// `gks serve shard_NN.gksidx` worker (the file records its documents'
// global ids) behind a `gks serve --coord-shards=...` coordinator
// (docs/DISTRIBUTED.md).
int CmdShard(const FlagParser& flags) {
  if (Status status = flags.Validate({}, {"shards", "threads"});
      !status.ok()) {
    return Fail(status, 2);
  }
  const auto& args = flags.positional();
  if (args.size() < 3) return Usage();
  size_t shard_count = static_cast<size_t>(flags.GetInt("shards", 2));
  if (shard_count == 0) return Usage();
  std::vector<std::string> xml_files(args.begin() + 2, args.end());
  int threads = static_cast<int>(flags.GetInt("threads", 1));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  WallTimer timer;
  Result<ShardManifest> manifest = SplitIntoShards(
      xml_files, shard_count, args[1], pool.get());
  if (!manifest.ok()) return Fail(manifest.status());
  std::printf("wrote %zu shards (%u documents) to %s in %.2fs\n",
              manifest->shards.size(),
              (unsigned)manifest->total_documents(), args[1].c_str(),
              timer.ElapsedSeconds());
  for (const ShardSpec& shard : manifest->shards) {
    std::printf("  %-18s doc_base=%-6u docs=%u\n", shard.file.c_str(),
                shard.doc_base, shard.doc_count);
  }
  return 0;
}

int Run(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.positional().empty()) return Usage();
  const std::string& command = flags.positional()[0];
  if (command == "index") return CmdIndex(flags);
  if (command == "search") return CmdSearch(flags);
  if (command == "batch") return CmdBatch(flags);
  if (command == "analyze") return CmdAnalyze(flags);
  if (command == "schema") return CmdSchema(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "generate") return CmdGenerate(flags);
  if (command == "shard") return CmdShard(flags);
  if (command == "serve") return RunServeCommand(flags);
  if (command == "client") return RunClientCommand(flags);
  return Usage();
}

}  // namespace
}  // namespace gks

int main(int argc, char** argv) { return gks::Run(argc, argv); }
