// Unit tests for the runtime observability layer (src/obs): counter and
// gauge semantics, log-bucket histogram quantiles, registry identity and
// reset, span tracing gates/capacity and JSON export shapes.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/obs/obs.h"

namespace ow::obs {
namespace {

// The whole suite exercises the enabled build; under -DOW_OBS=OFF every
// operation is a no-op by design, so there is nothing to assert.
#define OW_OBS_REQUIRE_ENABLED() \
  if constexpr (!kEnabled) GTEST_SKIP() << "built with OW_OBS=OFF"

TEST(ObsCounter, AddValueReset) {
  OW_OBS_REQUIRE_ENABLED();
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsGauge, SetAddReset) {
  OW_OBS_REQUIRE_ENABLED();
  Gauge g;
  g.Set(7);
  EXPECT_EQ(g.value(), 7);
  g.Add(-10);
  EXPECT_EQ(g.value(), -3);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(ObsHistogram, LogBucketQuantiles) {
  OW_OBS_REQUIRE_ENABLED();
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), 500'500u);
  EXPECT_EQ(h.max(), 1000u);
  // Rank 500 lands in bucket [256, 511] (cumulative count 511), whose upper
  // edge is the estimate; p99 and p100 clamp to the observed max.
  EXPECT_EQ(h.Quantile(0.5), 511u);
  EXPECT_EQ(h.Quantile(0.99), 1000u);
  EXPECT_EQ(h.Quantile(1.0), 1000u);
}

TEST(ObsHistogram, ZerosAndEmpty) {
  OW_OBS_REQUIRE_ENABLED();
  Histogram h;
  EXPECT_EQ(h.Quantile(0.5), 0u);  // empty
  h.Record(0);
  h.Record(0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.Quantile(0.99), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(ObsHistogram, QuantileIsUpperBoundWithinOneBucket) {
  OW_OBS_REQUIRE_ENABLED();
  Histogram h;
  h.Record(100);  // bucket [64, 127]
  EXPECT_EQ(h.Quantile(0.5), 100u);  // edge 127 clamped to the observed max
  h.Record(1 << 20);
  EXPECT_EQ(h.Quantile(1.0), std::uint64_t(1) << 20);
}

TEST(ObsRegistry, InstrumentsAreStableAcrossLookupsAndReset) {
  OW_OBS_REQUIRE_ENABLED();
  Registry reg;
  Counter& a = reg.GetCounter("x");
  Counter& b = reg.GetCounter("x");
  EXPECT_EQ(&a, &b);  // same name -> same instrument
  EXPECT_NE(&a, &reg.GetCounter("y"));
  a.Add(5);
  reg.Reset();
  EXPECT_EQ(a.value(), 0u);  // zeroed in place, address still valid
  a.Add(1);
  EXPECT_EQ(reg.GetCounter("x").value(), 1u);
}

TEST(ObsRegistry, SpansRequireTracing) {
  OW_OBS_REQUIRE_ENABLED();
  Registry reg;
  { ScopedSpan span(reg, "work"); }
  EXPECT_EQ(reg.spans_recorded(), 0u);  // null sink by default

  reg.SetTracing(true);
  { ScopedSpan span(reg, "work"); }
  { ScopedSpan span(reg, "work"); }
  EXPECT_EQ(reg.spans_recorded(), 2u);
  // Span durations feed the same-name histogram.
  EXPECT_EQ(reg.GetHistogram("work").count(), 2u);

  reg.SetTracing(false);
  { ScopedSpan span(reg, "work"); }
  EXPECT_EQ(reg.spans_recorded(), 2u);
}

TEST(ObsRegistry, SpanCapacityDropsNotGrows) {
  OW_OBS_REQUIRE_ENABLED();
  Registry reg;
  reg.SetTracing(true);
  for (std::size_t i = 0; i < kSpanCapacity + 3; ++i) {
    reg.RecordSpan("s", 0, 1);
  }
  EXPECT_EQ(reg.spans_recorded(), kSpanCapacity);
  EXPECT_EQ(reg.spans_dropped(), 3u);
  reg.Reset();
  EXPECT_EQ(reg.spans_recorded(), 0u);
  EXPECT_EQ(reg.spans_dropped(), 0u);
}

TEST(ObsRegistry, StatsJsonShape) {
  OW_OBS_REQUIRE_ENABLED();
  Registry reg;
  reg.GetCounter("link.dropped").Add(3);
  reg.GetGauge("controller.inserts_rejected").Set(-1);
  reg.GetHistogram("merge.shard").Record(1234);
  std::ostringstream os;
  reg.WriteStatsJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"ow.obs.stats.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"link.dropped\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"controller.inserts_rejected\": -1"),
            std::string::npos);
  EXPECT_NE(json.find("\"merge.shard\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(ObsRegistry, ChromeTraceShape) {
  OW_OBS_REQUIRE_ENABLED();
  Registry reg;
  reg.SetTracing(true);
  reg.RecordSpan("controller.flush", /*start_ns=*/1500, /*dur_ns=*/2500);
  std::ostringstream os;
  reg.WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"controller.flush\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  // One thread drives the library: every span carries the same tid.
  EXPECT_NE(json.find("\"tid\": 0,"), std::string::npos);
  // ts/dur are microseconds with nanosecond decimals.
  EXPECT_NE(json.find("\"ts\": 1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 2.500"), std::string::npos);
}

}  // namespace
}  // namespace ow::obs
