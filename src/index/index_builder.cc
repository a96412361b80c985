#include "index/index_builder.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/file_io.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "index/categorizer.h"
#include "text/analyzer.h"
#include "xml/sax_parser.h"

namespace gks {
namespace {

// Leaf-text values longer than this are not stored in the DI value pool
// (they still get indexed as keywords).
constexpr size_t kMaxStoredValueBytes = 256;

// Registry instruments for the build hot path (millions of node / posting
// events per document): looked up once, then atomic adds only. See
// docs/OBSERVABILITY.md for the metric inventory.
struct BuildMetrics {
  Counter* documents;
  Counter* elements;
  Counter* postings;
  Counter* text_bytes;
  Counter* cat_attribute;
  Counter* cat_entity;
  Counter* cat_repeating;
  Counter* cat_connecting;
  Histogram* document_ms;

  static const BuildMetrics& Get() {
    static const BuildMetrics metrics = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      BuildMetrics m;
      m.documents = r.GetCounter("gks.index.documents_total");
      m.elements = r.GetCounter("gks.index.elements_total");
      m.postings = r.GetCounter("gks.index.postings_total");
      m.text_bytes = r.GetCounter("gks.index.text_bytes_total");
      m.cat_attribute = r.GetCounter("gks.index.categorizer.attribute_total");
      m.cat_entity = r.GetCounter("gks.index.categorizer.entity_total");
      m.cat_repeating = r.GetCounter("gks.index.categorizer.repeating_total");
      m.cat_connecting =
          r.GetCounter("gks.index.categorizer.connecting_total");
      m.document_ms = r.GetHistogram("gks.index.build.document_ms");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

/// SAX handler that drives Dewey assignment, the streaming categorizer and
/// posting emission for one document at a time. XML attributes
/// (name="value") become child elements, so they take part in search and
/// categorization exactly like the paper's element-structured examples.
class IndexBuilder::Handler : public xml::SaxHandler {
 public:
  explicit Handler(XmlIndex* index)
      : index_(index),
        categorizer_(&index->nodes,
                     [this](const StreamingCategorizer::NodeFacts& facts) {
                       OnNodeFacts(facts);
                     }) {}

  // `dewey_doc_id` seeds the Dewey ids (offset for parallel-build deltas,
  // RT segments and shards); the catalog entry is always the builder-local
  // one.
  void BeginDocument(uint32_t dewey_doc_id) {
    doc_info_ = index_->catalog.mutable_document(
        static_cast<uint32_t>(index_->catalog.document_count() - 1));
    categorizer_.StartDocument(dewey_doc_id);
    child_counters_.clear();
    child_counters_.push_back(0);  // counter for the document level
  }

  Status StartElement(std::string_view name,
                      const std::vector<xml::XmlAttribute>& attributes)
      override {
    OpenOneElement(name);
    for (const xml::XmlAttribute& attr : attributes) {
      OpenOneElement(attr.name);
      AddTextToCurrent(attr.value);
      CloseOneElement();
    }
    return Status::OK();
  }

  Status EndElement(std::string_view) override {
    CloseOneElement();
    return Status::OK();
  }

  Status Characters(std::string_view text) override {
    AddTextToCurrent(text);
    return Status::OK();
  }

  Status EndDocument() override {
    categorizer_.FinishDocument();
    return Status::OK();
  }

 private:
  void OpenOneElement(std::string_view name) {
    uint32_t ordinal = child_counters_.back()++;
    child_counters_.push_back(0);
    categorizer_.OpenElement(name, ordinal);

    DeweyId id = categorizer_.CurrentId().ToDeweyId();
    // Tag names are searchable keywords too (Example 3 queries "student"):
    // same pipeline as text, minus stop-word removal so tags like <The>
    // stay reachable.
    text::AnalyzerOptions tag_options;
    tag_options.remove_stopwords = false;
    const BuildMetrics& metrics = BuildMetrics::Get();
    for (const std::string& term : text::Analyze(name, tag_options)) {
      index_->inverted.Add(term, id);
      metrics.postings->Increment();
    }
    metrics.elements->Increment();

    ++doc_info_->element_count;
    uint32_t depth = static_cast<uint32_t>(child_counters_.size()) - 2;
    doc_info_->max_depth = std::max(doc_info_->max_depth, depth + 1);
  }

  void AddTextToCurrent(std::string_view text) {
    ++child_counters_.back();  // the text segment consumes a child ordinal
    DeweyId id = categorizer_.CurrentId().ToDeweyId();
    const BuildMetrics& metrics = BuildMetrics::Get();
    for (const std::string& term : text::Analyze(text)) {
      index_->inverted.Add(term, id);
      metrics.postings->Increment();
    }
    categorizer_.AddText(text);
    doc_info_->text_bytes += text.size();
    metrics.text_bytes->Add(text.size());
  }

  void CloseOneElement() {
    categorizer_.CloseElement();
    child_counters_.pop_back();
  }

  void OnNodeFacts(const StreamingCategorizer::NodeFacts& facts) {
    const BuildMetrics& metrics = BuildMetrics::Get();
    if (facts.flags & kFlagAttribute) metrics.cat_attribute->Increment();
    if (facts.flags & kFlagEntity) metrics.cat_entity->Increment();
    if (facts.flags & kFlagRepeating) metrics.cat_repeating->Increment();
    if (facts.flags & kFlagConnecting) metrics.cat_connecting->Increment();
    NodeInfo info;
    info.flags = facts.flags;
    info.child_count = facts.child_count;
    info.tag_id = facts.tag_id;
    // Leaf-text values feed DI discovery. Repeating leaf values (e.g.
    // DBLP's <author> under a multi-author article) are kept as well: the
    // paper's own DI examples expose them (<ip: author: ...>).
    if (facts.direct_text != nullptr && !facts.direct_text->empty() &&
        facts.direct_text->size() <= kMaxStoredValueBytes) {
      info.value_id = index_->nodes.InternValue(*facts.direct_text);
    }
    index_->nodes.Put(facts.id, info);
  }


  XmlIndex* index_;
  StreamingCategorizer categorizer_;
  Catalog::DocumentInfo* doc_info_ = nullptr;
  std::vector<uint32_t> child_counters_;
};

IndexBuilder::IndexBuilder(IndexBuilderOptions options)
    : options_(options),
      index_(std::make_unique<XmlIndex>()),
      handler_(std::make_unique<Handler>(index_.get())) {}

IndexBuilder::~IndexBuilder() = default;

Status IndexBuilder::AddDocument(std::string_view xml, std::string name) {
  if (index_ == nullptr) {
    return Status::InvalidArgument("builder already finalized");
  }
  WallTimer timer;
  uint32_t doc_id = index_->catalog.AddDocument(std::move(name));
  handler_->BeginDocument(options_.first_doc_id + doc_id);
  Status status = ParseXml(xml, handler_.get());
  {
    const BuildMetrics& metrics = BuildMetrics::Get();
    metrics.documents->Increment();
    metrics.document_ms->Observe(timer.ElapsedMillis());
  }
  if (!status.ok()) {
    // A failed parse leaves the categorizer mid-document; reset it so the
    // builder stays usable. Postings already emitted for the bad document
    // remain (its catalog entry records what was consumed).
    handler_ = std::make_unique<Handler>(index_.get());
  }
  return status;
}

Status IndexBuilder::AddFile(const std::string& path) {
  std::string contents;
  GKS_RETURN_IF_ERROR(ReadFileToString(path, &contents));
  return AddDocument(contents, path);
}

Result<XmlIndex> IndexBuilder::Finalize() && {
  return std::move(*this).Finalize(nullptr);
}

Result<XmlIndex> IndexBuilder::Finalize(ThreadPool* pool) && {
  if (index_ == nullptr) {
    return Status::InvalidArgument("builder already finalized");
  }
  index_->inverted.Finalize(pool);
  index_->nodes.Finalize();
  XmlIndex result = std::move(*index_);
  index_.reset();
  return result;
}

}  // namespace gks
