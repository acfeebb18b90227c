// Tests for the §8 state-migration path (no-AFR apps), the cardinality
// adapters built on it, and the controller's retained-history range
// queries (G1 variable windows).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/core/network_runner.h"
#include "src/telemetry/cardinality_apps.h"
#include "src/telemetry/query.h"
#include "src/trace/generator.h"

namespace ow {
namespace {

Trace MakeFlows(std::size_t flows_per_window, std::size_t windows,
                Nanos window = 100 * kMilli) {
  // Each window gets `flows_per_window` distinct single-packet flows, with
  // 30% carrying over from the previous window (so sub-window unions are
  // non-trivial).
  Trace trace;
  std::uint32_t next_flow = 1;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::uint32_t base =
        w == 0 ? next_flow
               : next_flow - std::uint32_t(flows_per_window * 3 / 10);
    for (std::size_t f = 0; f < flows_per_window; ++f) {
      Packet p;
      p.ft = {base + std::uint32_t(f), 9, 443, 80, 17};
      p.ts = Nanos(w) * window +
             Nanos(double(f) / double(flows_per_window) * double(window));
      trace.packets.push_back(p);
    }
    next_flow = base + std::uint32_t(flows_per_window);
  }
  trace.SortByTime();
  return trace;
}

/// One-switch session over 100 ms tumbling windows of 50 ms sub-windows.
NetworkRunConfig OneSwitch() {
  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = 100 * kMilli;
  spec.subwindow_size = 50 * kMilli;
  spec.slide = spec.window_size;
  return {.base = RunConfig::Make(spec), .topology = {.line_switches = 1}};
}

TEST(SliceKeys, DistinctPerIndex) {
  EXPECT_NE(SliceKey(0), SliceKey(1));
  EXPECT_NE(SliceKey(7), SliceKey(7 << 8));
  EXPECT_EQ(SliceKey(42), SliceKey(42));
}

TEST(StateMigration, LinearCountingCardinalityPerWindow) {
  constexpr std::size_t kFlows = 800;
  const Trace trace = MakeFlows(kFlows, 4);
  auto app = std::make_shared<LinearCountingApp>(1 << 14);
  NetworkRunConfig cfg = OneSwitch();

  std::vector<double> estimates;
  cfg.window_observer = [&](std::size_t, const WindowResult& w) {
    estimates.push_back(
        LinearCountingApp::EstimateFromTable(*w.table, app->bits()));
  };
  const NetworkRunResult run =
      RunOmniWindowFabric(trace, [&](std::size_t) { return app; }, cfg);

  ASSERT_GE(estimates.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(estimates[i], double(kFlows), double(kFlows) * 0.1)
        << "window " << i;
  }
  // The migration path, not AFRs: no flowkey tracking happened.
  EXPECT_EQ(run.per_switch[0].data_plane.spilled_keys, 0u);
  EXPECT_GT(run.per_switch[0].data_plane.afr_generated, 0u);  // slices
}

TEST(StateMigration, HyperLogLogCardinalityPerWindow) {
  constexpr std::size_t kFlows = 3'000;
  const Trace trace = MakeFlows(kFlows, 3);
  auto app = std::make_shared<HyperLogLogApp>(10);
  NetworkRunConfig cfg = OneSwitch();

  std::vector<double> estimates;
  cfg.window_observer = [&](std::size_t, const WindowResult& w) {
    estimates.push_back(
        HyperLogLogApp::EstimateFromTable(*w.table, app->precision()));
  };
  RunOmniWindowFabric(trace, [&](std::size_t) { return app; }, cfg);

  ASSERT_GE(estimates.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(estimates[i], double(kFlows), double(kFlows) * 0.15)
        << "window " << i;
  }
}

TEST(StateMigration, MergedSubWindowsEqualWholeWindowUnion) {
  // LC bitmap OR across sub-windows is exactly the union bitmap: the same
  // flow in two sub-windows must not double count.
  Trace trace;
  for (int rep = 0; rep < 2; ++rep) {  // same 300 flows in both sub-windows
    for (std::uint32_t f = 0; f < 300; ++f) {
      Packet p;
      p.ft = {f + 1, 9, 443, 80, 17};
      p.ts = Nanos(rep) * 50 * kMilli + Nanos(f) * 100 * kMicro;
      trace.packets.push_back(p);
    }
  }
  trace.SortByTime();
  auto app = std::make_shared<LinearCountingApp>(1 << 13);
  NetworkRunConfig cfg = OneSwitch();

  double estimate = -1;
  cfg.window_observer = [&](std::size_t, const WindowResult& w) {
    if (estimate < 0) {
      estimate = LinearCountingApp::EstimateFromTable(*w.table, app->bits());
    }
  };
  RunOmniWindowFabric(trace, [&](std::size_t) { return app; }, cfg);

  EXPECT_NEAR(estimate, 300.0, 40.0);  // NOT ~600
}

// --------------------------------------------------------- range queries

TEST(RangeQuery, MergesArbitrarySpans) {
  // 6 sub-windows of 50 ms; one flow sends 10 packets in each.
  Trace trace;
  for (int s = 0; s < 6; ++s) {
    for (int i = 0; i < 10; ++i) {
      Packet p;
      p.ft = {1, 2, 3, 4, 17};
      p.ts = Nanos(s) * 50 * kMilli + Nanos(i) * kMilli;
      trace.packets.push_back(p);
    }
  }
  trace.SortByTime();

  QueryDef def;
  def.key_kind = FlowKeyKind::kFiveTuple;
  def.aggregate = QueryAggregate::kCount;
  def.threshold = 1;
  auto app = std::make_shared<QueryAdapter>(def, 1024);
  NetworkRunConfig cfg = OneSwitch();
  cfg.base.controller.retain_subwindows = 16;  // keep everything

  FabricSession session(trace, [&](std::size_t) { return app; }, cfg);
  session.Finish();
  const OmniWindowController& controller = session.controller(0);

  const FlowKey key(FlowKeyKind::kFiveTuple, FiveTuple{1, 2, 3, 4, 17});
  const auto span = controller.RetainedSpan();
  ASSERT_TRUE(span.has_value());
  EXPECT_GE(span->count(), 5u);

  // Any sub-span merges to 10 packets per covered sub-window.
  for (const SubWindowSpan q :
       {SubWindowSpan{0, 1}, SubWindowSpan{1, 3}, SubWindowSpan{0, 4}}) {
    KeyValueTable out(256);
    ASSERT_TRUE(controller.QueryRange(q, out)) << q.first << ".." << q.last;
    const KvSlot* slot = out.Find(key);
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(slot->attrs[0], 10u * q.count());
  }

  // Spans outside the retained history, or only partly inside it, are
  // refused.
  KeyValueTable out(256);
  EXPECT_FALSE(controller.QueryRange({40, 41}, out));
  EXPECT_FALSE(controller.QueryRange({span->last, span->last + 1}, out));
}

TEST(RangeQuery, WithoutRetentionOldSpansExpire) {
  Trace trace;
  for (int s = 0; s < 12; ++s) {
    for (int i = 0; i < 5; ++i) {
      Packet p;
      p.ft = {1, 2, 3, 4, 17};
      p.ts = Nanos(s) * 50 * kMilli + Nanos(i) * kMilli;
      trace.packets.push_back(p);
    }
  }
  trace.SortByTime();

  QueryDef def;
  def.key_kind = FlowKeyKind::kFiveTuple;
  def.aggregate = QueryAggregate::kCount;
  def.threshold = 1;
  auto app = std::make_shared<QueryAdapter>(def, 256);
  NetworkRunConfig cfg = OneSwitch();
  cfg.base.controller.retain_subwindows = 0;

  FabricSession session(trace, [&](std::size_t) { return app; }, cfg);
  session.Finish();
  KeyValueTable out(64);
  EXPECT_FALSE(session.controller(0).QueryRange({0, 1}, out));
}

}  // namespace
}  // namespace ow
