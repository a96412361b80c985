#include "index/index_builder.h"

#include <algorithm>
#include <vector>

#include "common/file_io.h"
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

Status AppendDocuments(XmlIndex* out, const XmlIndex& src,
                       std::span<const uint32_t> dropped, uint32_t* next_id,
                       std::vector<std::pair<uint32_t, uint32_t>>* id_map) {
  if (out->catalog.document_count() > 0 &&
      out->DocBase() + out->catalog.document_count() != *next_id) {
    return Status::InvalidArgument("AppendDocuments: the target must end "
                                   "just before id " +
                                   std::to_string(*next_id));
  }
  constexpr uint32_t kNone = 0xffffffffu;
  const uint32_t base = src.DocBase();
  const size_t docs = src.catalog.document_count();
  std::vector<uint32_t> new_ids(docs, kNone);
  for (uint32_t doc = 0; doc < docs; ++doc) {
    if (std::binary_search(dropped.begin(), dropped.end(), base + doc)) {
      continue;
    }
    new_ids[doc] = (*next_id)++;
    const Catalog::DocumentInfo& info = src.catalog.document(doc);
    *out->catalog.mutable_document(out->catalog.AddDocument(info.name)) = info;
    if (id_map != nullptr) id_map->emplace_back(base + doc, new_ids[doc]);
  }
  // Index into new_ids of the document holding `id`; `docs` for an id
  // outside src's documents, which only a damaged file holds.
  auto doc_of = [&](DeweySpan id) -> size_t {
    return id.size == 0 || id.data[0] < base
               ? docs
               : std::min<size_t>(id.data[0] - base, docs);
  };
  auto damaged = [] {
    return Status::Corruption(
        "AppendDocuments: an id lies outside the source's documents");
  };

  const NodeInfoTable& nodes = src.nodes;
  std::vector<uint32_t> tag_map(nodes.tag_count(), kNone);
  std::vector<uint32_t> value_map(nodes.value_count(), kNone);
  // The categorizer's report order, replayed over a document's rows:
  // `open` holds the open rows with the size `valued` had when each
  // opened, and `valued` the values of the open rows' children so far. A
  // row closes when a row outside its subtree arrives, and reports its
  // children's values then. Like the categorizer's, the bottom frame is
  // the document itself, which reports the root last.
  std::vector<std::pair<uint32_t, size_t>> open;
  std::vector<uint32_t> valued;
  auto close_row = [&] {
    for (size_t i = open.back().second; i < valued.size(); ++i) {
      if (value_map[valued[i]] == kNone) {
        value_map[valued[i]] = out->nodes.InternValue(nodes.Value(valued[i]));
      }
    }
    valued.resize(open.back().second);
    open.pop_back();
  };
  std::vector<uint32_t> id;  // a row id with its document rewritten
  for (size_t begin = 0, end; begin < nodes.size(); begin = end) {
    const size_t doc = doc_of(nodes.IdAt(begin));
    if (doc == docs) return damaged();
    for (end = begin + 1; end < nodes.size(); ++end) {
      if (doc_of(nodes.IdAt(end)) != doc) break;
    }
    if (new_ids[doc] == kNone) continue;  // dropped
    open.emplace_back(NodeInfoTable::kNoRow, 0);
    for (uint32_t row = begin; row < end; ++row) {
      const NodeInfo& info = nodes.InfoAt(row);
      if (tag_map[info.tag_id] == kNone) {
        tag_map[info.tag_id] = out->nodes.InternTag(nodes.TagName(info.tag_id));
      }
      while (!open.empty() && open.back().first != nodes.ParentRow(row)) {
        close_row();
      }
      if (info.value_id != kNoValue) valued.push_back(info.value_id);
      open.emplace_back(row, valued.size());
    }
    while (!open.empty()) close_row();
    for (size_t row = begin; row < end; ++row) {
      const DeweySpan old_id = nodes.IdAt(row);
      id.assign(old_id.data, old_id.data + old_id.size);
      id[0] = new_ids[doc];
      NodeInfo info = nodes.InfoAt(row);
      info.tag_id = tag_map[info.tag_id];
      if (info.value_id != kNoValue) info.value_id = value_map[info.value_id];
      out->nodes.Put(DeweySpan{id.data(), old_id.size}, info);
    }
  }

  Status status = Status::OK();
  src.inverted.ForEach([&](const std::string& term, const PostingList& list) {
    if (!status.ok()) return;
    PostingList* target = nullptr;  // created by the first kept run only
    for (size_t begin = 0, end; begin < list.size(); begin = end) {
      const size_t doc = doc_of(list.At(begin));
      if (doc == docs) {
        status = damaged();
        return;
      }
      const DeweySpan document{list.At(begin).data, 1};
      end = list.ids().SubtreeEndFrom(document, begin);
      if (new_ids[doc] == kNone) continue;
      if (target == nullptr) target = out->inverted.MutableList(term);
      target->AppendDocumentRun(list, begin, end, new_ids[doc]);
    }
  });
  return status;
}

}  // namespace gks
