// Tests for cross-switch loss inference over consistent windows, plus a
// randomized protocol stress test (lossy report path + retransmissions +
// multi-switch line).
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/core/network_runner.h"
#include "src/telemetry/network_queries.h"
#include "src/telemetry/query_builder.h"
#include "src/trace/generator.h"

namespace ow {
namespace {

FlowKey Key(std::uint32_t id) {
  return FlowKey(FlowKeyKind::kFiveTuple,
                 FiveTuple{id, id ^ 0xFF, 10, 80, 17});
}

TEST(InferFlowLoss, CountsPerFlowDifferences) {
  FlowCounts up{{Key(1), 100}, {Key(2), 50}, {Key(3), 7}};
  FlowCounts down{{Key(1), 90}, {Key(2), 50}};
  const auto reports = InferFlowLoss(up, down);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(TotalLost(reports), 10u + 7u);
  for (const auto& r : reports) {
    if (r.flow == Key(1)) {
      EXPECT_EQ(r.lost(), 10u);
    } else {
      EXPECT_EQ(r.flow, Key(3));
      EXPECT_EQ(r.lost(), 7u);
    }
  }
}

TEST(InferFlowLoss, MinLossFiltersNoise) {
  FlowCounts up{{Key(1), 100}, {Key(2), 51}};
  FlowCounts down{{Key(1), 95}, {Key(2), 50}};
  EXPECT_EQ(InferFlowLoss(up, down, 3).size(), 1u);  // only flow 1
}

TEST(InferFlowLoss, EndToEndMatchesActualLinkDrops) {
  // Two-switch line with a lossy link; per-window upstream/downstream
  // tables must diff to EXACTLY the dropped packets (consistent windows).
  TraceConfig tc;
  tc.seed = 61;
  tc.duration = 400 * kMilli;
  tc.packets_per_sec = 15'000;
  tc.num_flows = 1'500;
  TraceGenerator gen(tc);
  const Trace trace = gen.GenerateBackground();

  const QueryDef def = QueryBuilder("count_all")
                           .KeyBy(FlowKeyKind::kFiveTuple)
                           .Count()
                           .Threshold(1)
                           .Build();
  NetworkRunConfig cfg;
  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = 100 * kMilli;
  spec.subwindow_size = 50 * kMilli;
  spec.slide = spec.window_size;
  cfg.base = RunConfig::Make(spec);
  cfg.base.controller.kv_capacity = 1 << 16;
  cfg.link = {.latency = 20 * kMicro, .jitter = 5 * kMicro,
              .loss_rate = 0.005};
  cfg.link_seed = 77;
  cfg.capture_counts = true;
  const NetworkRunResult result = RunOmniWindowFabric(
      trace,
      [&](std::size_t) { return std::make_shared<QueryAdapter>(def, 1 << 15); },
      std::move(cfg));
  const std::uint64_t dropped = result.links[0].dropped;

  // Sum per-window inferred losses over windows both switches emitted.
  std::uint64_t inferred = 0;
  for (const auto& [span, up_counts] : result.per_switch[0].counts) {
    auto it = result.per_switch[1].counts.find(span);
    if (it == result.per_switch[1].counts.end()) continue;
    inferred += TotalLost(InferFlowLoss(up_counts, it->second));
  }
  EXPECT_GT(dropped, 20u);
  // Consistent windows: inferred loss equals actual drops for the covered
  // windows (the final partial window may not be emitted by both).
  EXPECT_NEAR(double(inferred), double(dropped), double(dropped) * 0.1 + 5);
}

TEST(ProtocolStress, RandomReportLossStaysConsistent) {
  // Drop 10% of ALL switch->controller packets (reports, triggers spared)
  // and verify retransmissions still deliver complete, correct windows.
  TraceConfig tc;
  tc.seed = 71;
  tc.duration = 300 * kMilli;
  tc.packets_per_sec = 8'000;
  tc.num_flows = 600;
  TraceGenerator gen(tc);
  const Trace trace = gen.GenerateBackground();

  const QueryDef def = QueryBuilder("count_all")
                           .KeyBy(FlowKeyKind::kDstIp)
                           .Count()
                           .Threshold(1)
                           .Build();
  auto run = [&](double loss) {
    auto app = std::make_shared<QueryAdapter>(def, 1 << 14);
    WindowSpec spec;
    spec.type = WindowType::kTumbling;
    spec.window_size = 100 * kMilli;
    spec.subwindow_size = 50 * kMilli;
    RunConfig cfg = RunConfig::Make(spec);

    Switch sw(0);
    auto program = std::make_shared<OmniWindowProgram>(cfg.data_plane, app);
    sw.SetProgram(program);
    OmniWindowController controller(cfg.controller, app->merge_kind());
    controller.AttachSwitch(&sw);
    Rng rng(101);
    sw.SetControllerHandler([&](const Packet& p, Nanos t) {
      if (loss > 0 && p.ow.flag == OwFlag::kAfrReport &&
          !p.ow.afrs.empty() && rng.Bernoulli(loss)) {
        return;
      }
      controller.OnPacket(p, t);
    });
    std::map<SubWindowNum, std::uint64_t> totals;
    controller.SetWindowHandler([&](const WindowResult& w) {
      std::uint64_t total = 0;
      w.table->ForEach([&](const KvSlot& s) { total += s.attrs[0]; });
      totals[w.span.first] = total;
    });
    sw.FeedTrace(trace.packets);
    Packet sentinel;
    sentinel.ts = trace.Duration() + 60 * kMilli;
    sw.EnqueueFromWire(sentinel, sentinel.ts);
    const Nanos horizon = trace.Duration() + 10 * kSecond;
    sw.RunBatch(horizon);
    while (!controller.Flush(trace.Duration())) sw.RunBatch(horizon);
    return totals;
  };

  const auto clean = run(0.0);
  const auto lossy = run(0.10);
  ASSERT_EQ(clean.size(), lossy.size());
  for (const auto& [span, total] : clean) {
    auto it = lossy.find(span);
    ASSERT_NE(it, lossy.end());
    EXPECT_EQ(it->second, total) << "window at sub-window " << span;
  }
}

}  // namespace
}  // namespace ow
