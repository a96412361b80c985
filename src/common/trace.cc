#include "common/trace.h"

#include "common/json_writer.h"
#include "common/metrics.h"

namespace gks {
namespace {

thread_local TraceCollector* g_active_collector = nullptr;

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

const TraceSpan* Trace::Find(std::string_view name) const {
  for (const TraceSpan& span : spans_) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

double Trace::ElapsedMs(std::string_view name) const {
  const TraceSpan* span = Find(name);
  return span != nullptr ? span->elapsed_ms : 0.0;
}

namespace {

void SpanToJson(const std::vector<TraceSpan>& spans, int32_t index,
                JsonWriter* json) {
  const TraceSpan& span = spans[static_cast<size_t>(index)];
  json->BeginObject();
  json->Key("name").String(span.name);
  json->Key("elapsed_ms").Double(span.elapsed_ms);
  json->Key("items").UInt(span.items);
  json->Key("bytes").UInt(span.bytes);
  bool has_children = false;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != index) continue;
    if (!has_children) {
      json->Key("children").BeginArray();
      has_children = true;
    }
    SpanToJson(spans, static_cast<int32_t>(i), json);
  }
  if (has_children) json->EndArray();
  json->EndObject();
}

}  // namespace

std::string Trace::ToJson() const {
  JsonWriter json;
  json.BeginArray();
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == -1) {
      SpanToJson(spans_, static_cast<int32_t>(i), &json);
    }
  }
  json.EndArray();
  return json.Take();
}

TraceCollector::TraceCollector(std::string metric_prefix,
                               MetricsRegistry* registry)
    : metric_prefix_(std::move(metric_prefix)),
      registry_(registry),
      previous_(g_active_collector) {
  if (registry_ == nullptr && !metric_prefix_.empty()) {
    registry_ = &MetricsRegistry::Global();
  }
  g_active_collector = this;
}

TraceCollector::~TraceCollector() {
  if (active_) {
    g_active_collector = previous_;
    active_ = false;
  }
}

Trace TraceCollector::Finish() {
  if (!active_) return Trace();
  // Close any spans still open (elapsed so far) before detaching.
  while (current_ != -1) Close(current_, 0, 0);
  g_active_collector = previous_;
  active_ = false;
  return std::move(trace_);
}

TraceCollector* TraceCollector::Active() { return g_active_collector; }

int32_t TraceCollector::Open(std::string_view name) {
  if (!active_) return -1;
  TraceSpan span;
  span.name = std::string(name);
  span.parent = current_;
  span.depth = current_ == -1
                   ? 0
                   : trace_.spans_[static_cast<size_t>(current_)].depth + 1;
  trace_.spans_.push_back(std::move(span));
  starts_.push_back(std::chrono::steady_clock::now());
  current_ = static_cast<int32_t>(trace_.spans_.size()) - 1;
  return current_;
}

void TraceCollector::Close(int32_t index, uint64_t items, uint64_t bytes) {
  if (!active_ || index < 0 ||
      static_cast<size_t>(index) >= trace_.spans_.size()) {
    return;
  }
  TraceSpan& span = trace_.spans_[static_cast<size_t>(index)];
  span.elapsed_ms = MillisSince(starts_[static_cast<size_t>(index)]);
  span.items += items;
  span.bytes += bytes;
  current_ = span.parent;

  // A `<kind>:<label>` span only groups its children in the tree.
  if (registry_ != nullptr && span.name.find(':') == std::string::npos) {
    std::string base = metric_prefix_ + "." + span.name;
    registry_->GetHistogram(base + ".latency_ms")->Observe(span.elapsed_ms);
    if (span.items > 0) {
      registry_->GetCounter(base + ".items_total")->Add(span.items);
    }
    if (span.bytes > 0) {
      registry_->GetCounter(base + ".bytes_total")->Add(span.bytes);
    }
  }
}

ScopedSpan::ScopedSpan(std::string_view name)
    : collector_(TraceCollector::Active()) {
  if (collector_ != nullptr) index_ = collector_->Open(name);
}

ScopedSpan::~ScopedSpan() {
  if (collector_ != nullptr && index_ != -1) {
    collector_->Close(index_, items_, bytes_);
  }
}

}  // namespace gks
