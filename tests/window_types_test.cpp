// End-to-end tests for the non-timeout window types: counter-driven
// windows, session windows, and retransmission value fidelity.
#include <gtest/gtest.h>

#include <memory>

#include "src/core/network_runner.h"
#include "src/telemetry/query.h"

namespace ow {
namespace {

QueryDef CountDef() {
  QueryDef def;
  def.name = "count_per_dst";
  def.key_kind = FlowKeyKind::kDstIp;
  def.aggregate = QueryAggregate::kCount;
  def.threshold = 1;
  return def;
}

Trace SteadyTraffic(std::size_t packets, Nanos gap) {
  Trace trace;
  for (std::size_t i = 0; i < packets; ++i) {
    Packet p;
    p.ft = {std::uint32_t(i % 64 + 1), std::uint32_t(i % 8 + 1), 1000, 80, 17};
    p.ts = Nanos(i) * gap;
    trace.packets.push_back(p);
  }
  return trace;
}

/// One-switch session replay; returns each window's total packet count.
std::vector<std::uint64_t> WindowTotals(const Trace& trace, RunConfig base) {
  auto app = std::make_shared<QueryAdapter>(CountDef(), 1024);
  NetworkRunConfig cfg{.base = std::move(base),
                       .topology = {.line_switches = 1}};
  std::vector<std::uint64_t> totals;
  cfg.window_observer = [&](std::size_t, const WindowResult& w) {
    std::uint64_t total = 0;
    w.table->ForEach([&](const KvSlot& slot) { total += slot.attrs[0]; });
    totals.push_back(total);
  };
  RunOmniWindowFabric(trace, [&](std::size_t) { return app; }, cfg);
  return totals;
}

TEST(CounterWindows, TerminateEveryNPackets) {
  // 5000 packets, counter threshold 1000 -> sub-windows of exactly 1000
  // packets each.
  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = spec.subwindow_size = 100 * kMilli;  // W = 1
  RunConfig cfg = RunConfig::Make(spec);
  cfg.data_plane.signal.kind = SignalKind::kCounter;
  cfg.data_plane.signal.counter_threshold = 1'000;

  const std::vector<std::uint64_t> window_totals =
      WindowTotals(SteadyTraffic(5'000, 20 * kMicro), cfg);
  ASSERT_GE(window_totals.size(), 4u);
  // The packet that fires the counter signal is measured into the NEW
  // sub-window, so the very first window holds threshold-1 packets and
  // every subsequent one exactly `threshold`.
  EXPECT_EQ(window_totals[0], 999u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(window_totals[i], 1'000u) << "window " << i;
  }
}

TEST(SessionWindows, GapsTerminateSessions) {
  // Three bursts separated by 400 ms of silence; session gap 200 ms.
  Trace trace;
  for (int burst = 0; burst < 3; ++burst) {
    for (int i = 0; i < 300; ++i) {
      Packet p;
      p.ft = {7, 8, 1000, 80, 17};
      p.ts = Nanos(burst) * 500 * kMilli + Nanos(i) * 100 * kMicro;
      trace.packets.push_back(p);
    }
  }
  trace.SortByTime();

  WindowSpec spec;
  spec.type = WindowType::kSession;
  spec.window_size = spec.subwindow_size = 100 * kMilli;  // W = 1
  RunConfig cfg = RunConfig::Make(spec);
  cfg.data_plane.signal.kind = SignalKind::kSession;
  cfg.data_plane.signal.session_gap = 200 * kMilli;

  // The first two bursts terminate via gap detection; the trailing one is
  // force-finalized by the flush.
  const std::vector<std::uint64_t> sessions = WindowTotals(trace, cfg);
  ASSERT_GE(sessions.size(), 2u);
  EXPECT_EQ(sessions[0], 300u);
  EXPECT_EQ(sessions[1], 300u);
}

TEST(Retransmission, ServesCachedValuesAfterReset) {
  // Drop ALL data-plane AFR reports of one sub-window on first delivery;
  // the retransmitted records must carry the original (pre-reset) values.
  Trace trace;
  for (int i = 0; i < 50; ++i) {
    Packet p;
    p.ft = {1, 2, 3, 4, 17};
    p.ts = Nanos(i) * kMilli;  // all in sub-window 0 ([0, 50ms))
    trace.packets.push_back(p);
  }
  // Traffic keeping later sub-windows alive.
  for (int i = 0; i < 200; ++i) {
    Packet p;
    p.ft = {9, 9, 1, 1, 17};
    p.ts = 50 * kMilli + Nanos(i) * kMilli;
    trace.packets.push_back(p);
  }
  trace.SortByTime();

  auto app = std::make_shared<QueryAdapter>(CountDef(), 512);
  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = spec.subwindow_size = 50 * kMilli;  // W = 1
  RunConfig cfg = RunConfig::Make(spec);

  Switch sw(0, cfg.switch_timings);
  auto program = std::make_shared<OmniWindowProgram>(cfg.data_plane, app);
  sw.SetProgram(program);
  OmniWindowController controller(cfg.controller, app->merge_kind());
  controller.AttachSwitch(&sw);
  bool drop_phase = true;
  sw.SetControllerHandler([&](const Packet& p, Nanos t) {
    if (drop_phase && p.ow.flag == OwFlag::kAfrReport &&
        p.ow.subwindow_num == 0 && !p.ow.afrs.empty()) {
      return;  // lose the entire first report wave of sub-window 0
    }
    if (p.ow.flag == OwFlag::kTrigger && p.ow.subwindow_num >= 1) {
      drop_phase = false;  // deliveries (incl. retransmissions) succeed now
    }
    controller.OnPacket(p, t);
  });

  std::vector<std::pair<SubWindowNum, std::uint64_t>> results;
  const FlowKey victim(FlowKeyKind::kDstIp, FiveTuple{.dst_ip = 2});
  controller.SetWindowHandler([&](const WindowResult& w) {
    const KvSlot* slot = w.table->Find(victim);
    results.emplace_back(w.span.first, slot ? slot->attrs[0] : 0);
  });
  for (const Packet& p : trace.packets) sw.EnqueueFromWire(p, p.ts);
  Packet sentinel;
  sentinel.ts = trace.Duration() + 60 * kMilli;
  sw.EnqueueFromWire(sentinel, sentinel.ts);
  const Nanos horizon = trace.Duration() + 10 * kSecond;
  sw.RunBatch(horizon);
  while (!controller.Flush(trace.Duration())) sw.RunBatch(horizon);

  EXPECT_GT(controller.stats().retransmissions_requested, 0u);
  // Sub-window 0's window must report the victim's TRUE count (50), served
  // from the retransmission cache even though the region was reset long
  // before the retransmission.
  bool found = false;
  for (const auto& [sw_num, count] : results) {
    if (sw_num == 0) {
      EXPECT_EQ(count, 50u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace ow
