// End-to-end integration tests: trace -> switch data plane -> AFR collection
// -> controller merge -> windows, across the paper's main mechanisms.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/core/network_runner.h"
#include "src/dml/dml.h"
#include "src/dml/iteration_app.h"
#include "src/sketch/mv_sketch.h"
#include "src/telemetry/query.h"
#include "src/telemetry/sketch_apps.h"
#include "src/trace/generator.h"

namespace ow {
namespace {

FlowKey Key(std::uint32_t id) {
  return FlowKey(FlowKeyKind::kSrcIp, FiveTuple{.src_ip = id});
}

/// A small trace: one SYN-flood victim plus light background.
struct FloodScenario {
  Trace trace;
  FlowKey victim;
};

FloodScenario MakeFlood(std::uint64_t seed = 3) {
  TraceConfig cfg;
  cfg.seed = seed;
  cfg.duration = 500 * kMilli;
  cfg.packets_per_sec = 5'000;
  cfg.num_flows = 500;
  TraceGenerator gen(cfg);
  FloodScenario s;
  s.trace = gen.GenerateBackground();
  gen.InjectSynFlood(s.trace, 50 * kMilli, 300 * kMilli, 600);
  s.trace.SortByTime();
  s.victim = gen.injected()[0].victim_or_actor;
  return s;
}

WindowSpec TumblingSpec(Nanos window = 100 * kMilli,
                        Nanos sub = 50 * kMilli) {
  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = window;
  spec.subwindow_size = sub;
  spec.slide = window;
  return spec;
}

TEST(EndToEnd, DetectsSynFloodWithTumblingWindows) {
  FloodScenario s = MakeFlood();
  QueryDef def = StandardQuery(5);
  auto app = std::make_shared<QueryAdapter>(def, 4096);
  RunConfig cfg = RunConfig::Make(TumblingSpec());
  const RunResult result = RunOmniWindow(
      s.trace, app, cfg,
      [&](TableView table) { return app->Detect(table); });

  EXPECT_GE(result.windows.size(), 4u);
  EXPECT_TRUE(result.AllDetected().contains(s.victim));
  EXPECT_EQ(result.data_plane.collect_overruns, 0u);
  EXPECT_GT(result.data_plane.afr_generated, 0u);
  EXPECT_EQ(result.controller.windows_emitted, result.windows.size());
}

TEST(EndToEnd, MergedCountsMatchIdealForHotKey) {
  FloodScenario s = MakeFlood(11);
  QueryDef def = StandardQuery(5);
  auto app = std::make_shared<QueryAdapter>(def, 1 << 15);  // few collisions
  RunConfig cfg = RunConfig::Make(TumblingSpec());

  std::map<SubWindowNum, std::uint64_t> victim_counts;
  auto detect = [&](TableView table) {
    FlowSet out;
    const KvSlot* slot = table.Find(s.victim);
    if (slot) out.insert(s.victim);
    return out;
  };
  // Capture merged per-window count of the victim via handler-side Find.
  OmniWindowConfig dp = cfg.data_plane;
  const RunResult result = RunOmniWindow(s.trace, app, cfg, detect);

  IdealQueryEngine ideal(s.trace);
  // Reconstruct: the flood spans [50ms, 350ms); at least one full 100 ms
  // window lies inside with ~200 SYNs. OmniWindow's merged result for a
  // window must match the ideal count for the same bounds (the victim's
  // cell may only overcount via collisions; with 2^15 cells it's exact with
  // high probability).
  const auto exact =
      ideal.Aggregate(def, 100 * kMilli, 200 * kMilli)[s.victim];
  EXPECT_GT(exact, 100u);
  (void)dp;
  EXPECT_TRUE(result.AllDetected().contains(s.victim));
}

TEST(EndToEnd, SlidingWindowsOverlap) {
  FloodScenario s = MakeFlood(17);
  QueryDef def = StandardQuery(5);
  auto app = std::make_shared<QueryAdapter>(def, 4096);
  WindowSpec spec = TumblingSpec(200 * kMilli, 50 * kMilli);
  spec.type = WindowType::kSliding;
  spec.slide = 50 * kMilli;
  RunConfig cfg = RunConfig::Make(spec);
  const RunResult result = RunOmniWindow(
      s.trace, app, cfg,
      [&](TableView table) { return app->Detect(table); });

  ASSERT_GE(result.windows.size(), 3u);
  // Consecutive sliding windows advance by one sub-window and span four.
  for (std::size_t i = 1; i < result.windows.size(); ++i) {
    EXPECT_EQ(result.windows[i].span.first,
              result.windows[i - 1].span.first + 1);
    EXPECT_EQ(result.windows[i].span.count(), 4u);
  }
  EXPECT_TRUE(result.AllDetected().contains(s.victim));
}

TEST(EndToEnd, StateIsResetBetweenSubWindows) {
  // A flow bursting only in the first window must not leak into later
  // windows through recycled memory regions.
  Trace trace;
  for (int i = 0; i < 200; ++i) {
    Packet p;
    p.ft = {123, 9, 1000, 80, 6};
    p.tcp_flags = kTcpSyn;
    p.ts = Nanos(i) * 200 * kMicro;  // all within [0, 40ms)
    trace.packets.push_back(p);
  }
  // Keep-alive background so signals keep firing through window 4.
  for (int i = 0; i < 500; ++i) {
    Packet p;
    p.ft = {7, 8, 1, 2, 17};
    p.ts = Nanos(i) * kMilli;
    trace.packets.push_back(p);
  }
  trace.SortByTime();

  QueryDef def = StandardQuery(5);
  def.threshold = 100;
  auto app = std::make_shared<QueryAdapter>(def, 1024);
  RunConfig cfg = RunConfig::Make(TumblingSpec(100 * kMilli, 50 * kMilli));
  const RunResult result = RunOmniWindow(
      trace, app, cfg,
      [&](TableView table) { return app->Detect(table); });

  const FlowKey victim =
      FlowKey(FlowKeyKind::kDstIp, FiveTuple{.dst_ip = 9});
  ASSERT_GE(result.windows.size(), 4u);
  EXPECT_TRUE(result.windows[0].detected.contains(victim));
  for (std::size_t i = 1; i < result.windows.size(); ++i) {
    EXPECT_FALSE(result.windows[i].detected.contains(victim))
        << "stale state leaked into window " << i;
  }
}

TEST(EndToEnd, InvertibleSketchPathWorks) {
  FloodScenario s = MakeFlood(23);
  auto app = std::make_shared<FrequencySketchApp>(
      "mv", FlowKeyKind::kDstIp, FrequencyValue::kPackets,
      [] { return std::make_unique<MvSketch>(4, 2048); });
  ASSERT_TRUE(app->TracksOwnKeys());
  RunConfig cfg = RunConfig::Make(TumblingSpec());
  const RunResult result = RunOmniWindow(
      s.trace, app, cfg, [&](TableView table) {
        FlowSet out;
        table.ForEach([&](const KvSlot& slot) {
          if (slot.attrs[0] >= 150) out.insert(slot.key);
        });
        return out;
      });
  EXPECT_TRUE(result.AllDetected().contains(s.victim));
  // The MV path must not use the framework flowkey tracker.
  EXPECT_EQ(result.data_plane.spilled_keys, 0u);
}

TEST(EndToEnd, ReliabilityRecoversLostAfrs) {
  FloodScenario s = MakeFlood(31);
  QueryDef def = StandardQuery(5);
  auto app = std::make_shared<QueryAdapter>(def, 4096);
  RunConfig cfg = RunConfig::Make(TumblingSpec());

  Switch sw(0);
  auto program = std::make_shared<OmniWindowProgram>(cfg.data_plane, app);
  sw.SetProgram(program);
  OmniWindowController controller(cfg.controller, app->merge_kind());
  controller.AttachSwitch(&sw);

  // Interpose loss on the switch->controller path: drop every 5th AFR
  // report the first time around.
  std::uint64_t counter = 0;
  sw.SetControllerHandler([&](const Packet& p, Nanos t) {
    if (p.ow.flag == OwFlag::kAfrReport && !p.ow.afrs.empty() &&
        p.ow.afrs[0].seq_id != 0xFFFFFFFFu && (++counter % 5 == 0) &&
        counter < 2'000) {
      return;  // dropped
    }
    controller.OnPacket(p, t);
  });

  std::size_t windows = 0;
  controller.SetWindowHandler([&](const WindowResult&) { ++windows; });
  sw.FeedTrace(s.trace.packets);
  Packet sentinel;
  sentinel.ts = s.trace.Duration() + 50 * kMilli;
  sw.EnqueueFromWire(sentinel, sentinel.ts);

  const Nanos horizon = s.trace.Duration() + 10 * kSecond;
  sw.RunBatch(horizon);
  while (!controller.Flush(s.trace.Duration())) sw.RunBatch(horizon);

  EXPECT_GT(controller.stats().retransmissions_requested, 0u);
  EXPECT_GT(windows, 0u);
  // Every data-plane AFR eventually arrived (loss recovered).
  EXPECT_GE(controller.stats().afrs_received + counter / 5,
            program->stats().afr_generated);
}

TEST(EndToEnd, RdmaPathMatchesPacketPath) {
  FloodScenario s = MakeFlood(41);
  QueryDef def = StandardQuery(5);

  auto run = [&](bool rdma) {
    auto app = std::make_shared<QueryAdapter>(def, 1 << 14);
    RunConfig cfg = RunConfig::Make(TumblingSpec());
    cfg.controller.rdma = rdma;
    return RunOmniWindow(s.trace, app, cfg, [&](TableView table) {
      return app->Detect(table);
    });
  };
  const RunResult plain = run(false);
  const RunResult rdma = run(true);

  ASSERT_EQ(plain.windows.size(), rdma.windows.size());
  for (std::size_t i = 0; i < plain.windows.size(); ++i) {
    EXPECT_EQ(plain.windows[i].detected, rdma.windows[i].detected)
        << "window " << i;
  }
  EXPECT_GT(rdma.data_plane.rdma_writes + rdma.data_plane.rdma_fetch_adds,
            0u);
}

TEST(EndToEnd, ConsistencyAcrossTwoSwitches) {
  // Two switches in a line; the second follows the first's embedded
  // sub-window numbers. Per-sub-window packet counts must agree exactly,
  // despite link latency pushing packets across local boundaries.
  FloodScenario s = MakeFlood(47);
  QueryDef def;
  def.name = "count_all";
  def.key_kind = FlowKeyKind::kDstIp;
  def.aggregate = QueryAggregate::kCount;
  def.threshold = 1;

  NetworkRunConfig cfg{
      .base = RunConfig::Make(TumblingSpec(50 * kMilli, 50 * kMilli)),
      .link = {.latency = 30 * kMicro, .jitter = 5 * kMicro}};
  std::map<SubWindowNum, std::uint64_t> counts1, counts2;
  cfg.window_observer = [&](std::size_t i, const WindowResult& w) {
    std::uint64_t total = 0;
    w.table->ForEach([&](const KvSlot& slot) { total += slot.attrs[0]; });
    (i == 0 ? counts1 : counts2)[w.span.first] = total;
  };
  const NetworkRunResult result = RunOmniWindowFabric(
      s.trace,
      [&](std::size_t) { return std::make_shared<QueryAdapter>(def, 1 << 14); },
      std::move(cfg));

  ASSERT_GE(counts1.size(), 5u);
  for (const auto& [sw, total] : counts1) {
    auto it = counts2.find(sw);
    if (it == counts2.end()) continue;  // tail windows may differ
    EXPECT_EQ(total, it->second) << "sub-window " << sw;
  }
  EXPECT_GT(result.per_switch[1].data_plane.packets_measured, 0u);
}

TEST(EndToEnd, DmlIterationWindows) {
  DmlConfig cfg;
  cfg.iterations = 24;
  cfg.workers = 2;
  cfg.gradient_bytes = 1 << 20;
  DmlWorkload workload(cfg);
  const Trace trace = workload.Generate();

  WindowSpec spec;
  spec.type = WindowType::kUserDefined;
  spec.window_size = spec.subwindow_size = 100 * kMilli;  // W = 1
  NetworkRunConfig nc{.base = RunConfig::Make(spec),
                      .topology = {.line_switches = 1}};
  nc.base.data_plane.signal.kind = SignalKind::kUserDefined;
  nc.base.controller.grace_period = 100 * kMicro;

  std::vector<std::map<FlowKey, std::pair<Nanos, Nanos>>> windows;
  nc.window_observer = [&](std::size_t, const WindowResult& w) {
    std::map<FlowKey, std::pair<Nanos, Nanos>> m;
    w.table->ForEach([&](const KvSlot& slot) {
      m[slot.key] = {Nanos(slot.attrs[0]), Nanos(slot.attrs[1])};
    });
    windows.push_back(std::move(m));
  };
  // The session's end-of-trace sentinel carries iteration 24, which ends
  // the last iteration: one window per iteration, none missing.
  RunOmniWindowFabric(
      trace,
      [](std::size_t) { return std::make_shared<IterationTimeApp>(4096); },
      std::move(nc));

  ASSERT_EQ(windows.size(), cfg.iterations);
  // Measured per-iteration durations should match the ground truth within
  // a small tolerance (the data plane records source timestamps), the
  // last iteration included.
  const auto& truth = workload.truth();
  std::size_t checked = 0;
  for (std::size_t it = 1; it < cfg.iterations; ++it) {
    const auto& w = windows[it];
    for (int worker = 0; worker < cfg.workers; ++worker) {
      const FlowKey key = Key(0x0AC80001u + std::uint32_t(worker));
      auto found = w.find(key);
      if (found == w.end()) continue;
      const Nanos measured = found->second.second - found->second.first;
      const Nanos expected = truth.iteration_times[std::size_t(worker)][it];
      EXPECT_NEAR(double(measured), double(expected),
                  double(expected) * 0.05 + double(kMilli));
      ++checked;
    }
  }
  EXPECT_GT(checked, cfg.iterations);
}

}  // namespace
}  // namespace ow
