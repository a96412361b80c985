#ifndef GKS_COMMON_TRACE_H_
#define GKS_COMMON_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gks {

class MetricsRegistry;

/// Per-operation span-tree tracer (see docs/OBSERVABILITY.md). A
/// `TraceCollector` is installed on the current thread for the duration of
/// one traced operation (a query, an index build); any `ScopedSpan` /
/// `GKS_TRACE_SPAN` opened while it is active records a node into its span
/// tree. With no active collector a span costs one thread-local read —
/// instrumented library code never pays for tracing it did not ask for.

/// One recorded span: name, tree position, wall-clock, and two
/// stage-defined payload counts (items: postings, candidates, nodes, ...;
/// bytes: serialized payload).
struct TraceSpan {
  std::string name;
  int32_t parent = -1;  // index into Trace::spans(), -1 = top level
  int32_t depth = 0;
  double elapsed_ms = 0.0;
  uint64_t items = 0;
  uint64_t bytes = 0;
};

/// A finished span tree. Spans are stored in open order (pre-order);
/// parent links reconstruct the tree.
class Trace {
 public:
  bool empty() const { return spans_.empty(); }
  const std::vector<TraceSpan>& spans() const { return spans_; }

  /// First span with `name` (pre-order); nullptr if absent.
  const TraceSpan* Find(std::string_view name) const;
  /// elapsed_ms of Find(name), 0.0 if absent.
  double ElapsedMs(std::string_view name) const;

  /// Nested span-tree JSON: an array of top-level span objects, each
  /// {"name","elapsed_ms","items","bytes","children":[...]} (children
  /// omitted when empty). Schema documented in docs/OBSERVABILITY.md.
  std::string ToJson() const;

 private:
  friend class TraceCollector;
  std::vector<TraceSpan> spans_;
};

/// Collects spans on the constructing thread until destroyed or
/// Finish()ed. Collectors nest: the innermost active one wins, the
/// previous one is restored on destruction.
///
/// When `metric_prefix` is non-empty, every closed span also feeds the
/// registry (default: the global one): histogram
/// `<prefix>.<name>.latency_ms` observes the span's wall-clock, and
/// counters `<prefix>.<name>.items_total` / `.bytes_total` accumulate its
/// payload counts — per-query traces and fleet-level metrics stay in sync
/// by construction. A span named `<kind>:<label>` (one per segment of a
/// search, `segment:<label>`) feeds no instrument, so metric names never
/// carry a runtime label.
class TraceCollector {
 public:
  explicit TraceCollector(std::string metric_prefix = "",
                          MetricsRegistry* registry = nullptr);
  ~TraceCollector();
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Deactivates the collector and returns the recorded tree. Spans still
  /// open on the current thread are recorded with their elapsed time so
  /// far.
  Trace Finish();

  /// The innermost collector active on this thread, or nullptr.
  static TraceCollector* Active();

 private:
  friend class ScopedSpan;
  int32_t Open(std::string_view name);
  void Close(int32_t index, uint64_t items, uint64_t bytes);

  Trace trace_;
  std::vector<std::chrono::steady_clock::time_point> starts_;
  int32_t current_ = -1;  // innermost open span
  std::string metric_prefix_;
  MetricsRegistry* registry_;
  TraceCollector* previous_;
  bool active_ = true;
};

/// RAII span. Constructing with no active collector is a no-op; payload
/// counts are attached with AddItems/AddBytes before destruction.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void AddItems(uint64_t n) { items_ += n; }
  void AddBytes(uint64_t n) { bytes_ += n; }

 private:
  TraceCollector* collector_;
  int32_t index_ = -1;
  uint64_t items_ = 0;
  uint64_t bytes_ = 0;
};

#define GKS_TRACE_CONCAT_INNER(a, b) a##b
#define GKS_TRACE_CONCAT(a, b) GKS_TRACE_CONCAT_INNER(a, b)
/// Fire-and-forget scoped span: `GKS_TRACE_SPAN("window_scan");`
#define GKS_TRACE_SPAN(name) \
  ::gks::ScopedSpan GKS_TRACE_CONCAT(gks_trace_span_, __LINE__)(name)

}  // namespace gks

#endif  // GKS_COMMON_TRACE_H_
