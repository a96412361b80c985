// Scoped-span tracer: span-tree structure, no-op behaviour without an
// active collector, nesting/restoration of collectors, JSON shape, and
// the bridge into the metrics registry.

#include <string>

#include "gtest/gtest.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace gks {
namespace {

TEST(TraceTest, NoActiveCollectorIsNoop) {
  EXPECT_EQ(TraceCollector::Active(), nullptr);
  {
    GKS_TRACE_SPAN("orphan");
    ScopedSpan span("also_orphan");
    span.AddItems(3);
  }  // must not crash or record anywhere
  EXPECT_EQ(TraceCollector::Active(), nullptr);
}

TEST(TraceTest, RecordsNestedSpanTree) {
  TraceCollector collector;
  {
    ScopedSpan outer("outer");
    outer.AddItems(2);
    {
      ScopedSpan inner("inner");
      inner.AddBytes(100);
    }
    { GKS_TRACE_SPAN("inner2"); }
  }
  { GKS_TRACE_SPAN("sibling"); }
  Trace trace = collector.Finish();

  ASSERT_EQ(trace.spans().size(), 4u);
  const TraceSpan* outer = trace.Find("outer");
  const TraceSpan* inner = trace.Find("inner");
  const TraceSpan* inner2 = trace.Find("inner2");
  const TraceSpan* sibling = trace.Find("sibling");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(inner2, nullptr);
  ASSERT_NE(sibling, nullptr);
  EXPECT_EQ(outer->parent, -1);
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(outer->items, 2u);
  EXPECT_EQ(inner->depth, 1);
  EXPECT_EQ(inner->bytes, 100u);
  EXPECT_EQ(&trace.spans()[static_cast<size_t>(inner->parent)], outer);
  EXPECT_EQ(&trace.spans()[static_cast<size_t>(inner2->parent)], outer);
  EXPECT_EQ(sibling->parent, -1);
  EXPECT_GE(outer->elapsed_ms, inner->elapsed_ms);
}

TEST(TraceTest, CollectorsNestAndRestore) {
  TraceCollector outer_collector;
  EXPECT_EQ(TraceCollector::Active(), &outer_collector);
  {
    TraceCollector inner_collector;
    EXPECT_EQ(TraceCollector::Active(), &inner_collector);
    GKS_TRACE_SPAN("inner_only");
  }
  EXPECT_EQ(TraceCollector::Active(), &outer_collector);
  GKS_TRACE_SPAN("outer_only");
  Trace trace = outer_collector.Finish();
  EXPECT_EQ(TraceCollector::Active(), nullptr);
  EXPECT_EQ(trace.Find("inner_only"), nullptr);
  EXPECT_NE(trace.Find("outer_only"), nullptr);
}

TEST(TraceTest, FinishClosesOpenSpans) {
  TraceCollector collector;
  ScopedSpan open("still_open");
  Trace trace = collector.Finish();
  const TraceSpan* span = trace.Find("still_open");
  ASSERT_NE(span, nullptr);
  EXPECT_GE(span->elapsed_ms, 0.0);
  // The span's destructor fires after Finish(); it must be inert.
}

TEST(TraceTest, ToJsonNestsChildren) {
  TraceCollector collector;
  {
    ScopedSpan outer("outer");
    { GKS_TRACE_SPAN("inner"); }
  }
  Trace trace = collector.Finish();
  std::string json = trace.ToJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"children\":[{\"name\":\"inner\""),
            std::string::npos);
  EXPECT_NE(json.find("\"elapsed_ms\":"), std::string::npos);
}

TEST(TraceTest, SpansFeedMetricsRegistry) {
  MetricsRegistry registry;
  {
    TraceCollector collector("test.trace", &registry);
    {
      // A `<kind>:<label>` span only groups: it feeds no instrument, so
      // no metric name carries the label.
      ScopedSpan group("segment:seg-1");
      group.AddItems(1);
      ScopedSpan span("stage");
      span.AddItems(4);
      span.AddBytes(32);
    }
    collector.Finish();
  }
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.histograms.at("test.trace.stage.latency_ms").count, 1u);
  EXPECT_EQ(snapshot.counters.at("test.trace.stage.items_total"), 4u);
  EXPECT_EQ(snapshot.counters.at("test.trace.stage.bytes_total"), 32u);
  EXPECT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.counters.size(), 2u);
}

}  // namespace
}  // namespace gks
