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

  // Capture per-window count maps per switch (manual wiring: the line
  // runner's detect hook returns sets, and we need full count tables).
  std::vector<std::map<SubWindowNum, FlowCounts>> tables(2);
  Network net;
  Switch* s0 = net.AddSwitch();
  Switch* s1 = net.AddSwitch();
  auto a0 = std::make_shared<QueryAdapter>(def, 1 << 15);
  auto a1 = std::make_shared<QueryAdapter>(def, 1 << 15);
  OmniWindowConfig dp0 = cfg.base.data_plane;
  OmniWindowConfig dp1 = cfg.base.data_plane;
  dp1.first_hop = false;
  auto p0 = std::make_shared<OmniWindowProgram>(dp0, a0);
  auto p1 = std::make_shared<OmniWindowProgram>(dp1, a1);
  s0->SetProgram(p0);
  s1->SetProgram(p1);
  Link* link = net.Connect(s0, s1, cfg.link, 77);
  ControllerConfig cc = cfg.base.controller;
  OmniWindowController c0(cc, MergeKind::kFrequency);
  OmniWindowController c1(cc, MergeKind::kFrequency);
  c0.AttachSwitch(s0);
  c1.AttachSwitch(s1);
  auto capture = [](std::map<SubWindowNum, FlowCounts>& into) {
    return [&into](const WindowResult& w) {
      FlowCounts counts;
      w.table->ForEach(
          [&](const KvSlot& slot) { counts[slot.key] = slot.attrs[0]; });
      into[w.span.first] = std::move(counts);
    };
  };
  c0.SetWindowHandler(capture(tables[0]));
  c1.SetWindowHandler(capture(tables[1]));
  for (const Packet& p : trace.packets) s0->EnqueueFromWire(p, p.ts);
  Packet sentinel;
  sentinel.ts = trace.Duration() + 50 * kMilli;
  s0->EnqueueFromWire(sentinel, sentinel.ts);
  const Nanos horizon = trace.Duration() + 10 * kSecond;
  net.RunUntilQuiescent(horizon);
  c0.Flush(horizon);
  c1.Flush(horizon);
  net.RunUntilQuiescent(horizon);
  c0.Flush(horizon);
  c1.Flush(horizon);

  // Sum per-window inferred losses over windows both switches emitted.
  std::uint64_t inferred = 0;
  for (const auto& [span, up_counts] : tables[0]) {
    auto it = tables[1].find(span);
    if (it == tables[1].end()) continue;
    inferred += TotalLost(InferFlowLoss(up_counts, it->second));
  }
  EXPECT_GT(link->dropped(), 20u);
  // Consistent windows: inferred loss equals actual drops for the covered
  // windows (the final partial window may not be emitted by both).
  EXPECT_NEAR(double(inferred), double(link->dropped()),
              double(link->dropped()) * 0.1 + 5);
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
    for (const Packet& p : trace.packets) sw.EnqueueFromWire(p, p.ts);
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
