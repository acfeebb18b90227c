// End-to-end tests for the non-timeout window types: counter-driven
// windows, session windows, and retransmission value fidelity; and for O5
// eviction across window types: a window that loses keys to a full flow
// table is flagged, and sliding key churn never fills the table.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/core/network_runner.h"
#include "src/core/runner.h"
#include "src/telemetry/exact_count.h"
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

  Switch sw(0);
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

// ------------------------------------------------- O5 and the flow table

FlowKey SrcKey(std::uint32_t ip) {
  return FlowKey(FlowKeyKind::kSrcIp, FiveTuple{.src_ip = ip});
}

/// `flows` fresh source IPs in each of `subwindows` sub-windows of `sub`,
/// one packet each: no key appears in two sub-windows.
Trace FreshFlowsPerSubWindow(std::uint32_t subwindows, std::uint32_t flows,
                             Nanos sub) {
  Trace trace;
  for (std::uint32_t k = 0; k < subwindows; ++k) {
    for (std::uint32_t i = 0; i < flows; ++i) {
      Packet p;
      p.ft = {k * flows + i + 1, 9, 1000, 80, 17};
      p.ts = Nanos(k) * sub + Nanos(i) * (sub / flows) + kMicro;
      trace.packets.push_back(p);
    }
  }
  return trace;
}

/// Every key of the merged table.
FlowSet AllKeys(TableView table) {
  FlowSet keys;
  table.ForEach([&](const KvSlot& slot) { keys.insert(slot.key); });
  return keys;
}

/// The keys FreshFlowsPerSubWindow sent in `span`.
FlowSet SentIn(SubWindowSpan span, std::uint32_t flows) {
  FlowSet keys;
  for (SubWindowNum k = span.first; k <= span.last; ++k) {
    for (std::uint32_t i = 0; i < flows; ++i) {
      keys.insert(SrcKey(k * flows + i + 1));
    }
  }
  return keys;
}

TEST(FlowTableLimit, RefusedInsertsFlagTheirTumblingWindow) {
  // 1,000 keys per window into a 256-slot table (224 usable): every window
  // loses keys, so every window must be flagged, never emitted short.
  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = 100 * kMilli;
  spec.subwindow_size = 50 * kMilli;
  RunConfig cfg = RunConfig::Make(spec);
  cfg.controller.kv_capacity = 256;
  const RunResult result =
      RunOmniWindow(FreshFlowsPerSubWindow(80, 500, 50 * kMilli),
                    std::make_shared<ExactCountApp>(FlowKeyKind::kSrcIp), cfg,
                    AllKeys);
  ASSERT_EQ(result.windows.size(), 40u);
  for (const EmittedWindow& w : result.windows) {
    EXPECT_EQ(w.detected.size(), 224u) << "window " << w.span.first;
    EXPECT_TRUE(w.partial) << "window " << w.span.first << " emitted short";
  }
  EXPECT_EQ(result.controller.inserts_rejected, 40u * (1'000 - 224));
}

TEST(FlowTableLimit, RefusedRemergeFlagsInsteadOfThrowing) {
  // Distinct query (non-invertible merge), sliding 200/100/100 ms, 8-slot
  // table (7 usable). Sub-window 0 holds P1-P7 then K1-K8 and sub-window 1
  // holds K1-K8: evicting sub-window 0 rebuilds K1-K8 from sub-window 1,
  // and the eighth re-insert is refused. The windows over sub-window 1 must
  // be flagged, and the run must not throw.
  QueryDef def;
  def.name = "distinct_src_per_dst";
  def.key_kind = FlowKeyKind::kDstIp;
  def.aggregate = QueryAggregate::kDistinct;
  def.element = [](const Packet& p) { return std::uint64_t(p.ft.src_ip); };
  def.threshold = 1;
  Trace trace;
  const auto send = [&](std::uint32_t dst, Nanos ts) {
    Packet p;
    p.ft = {dst * 16 + 1, dst, 1000, 80, 17};
    p.ts = ts;
    trace.packets.push_back(p);
  };
  Nanos ts = kMicro;
  for (std::uint32_t d = 1; d <= 7; ++d) send(d, ts += kMilli);      // P1-P7
  for (std::uint32_t d = 101; d <= 108; ++d) send(d, ts += kMilli);  // K1-K8
  ts = 100 * kMilli;
  for (std::uint32_t d = 101; d <= 108; ++d) send(d, ts += kMilli);  // K1-K8
  send(101, 250 * kMilli);  // sub-window 2

  WindowSpec spec;
  spec.type = WindowType::kSliding;
  spec.window_size = 200 * kMilli;
  spec.slide = spec.subwindow_size = 100 * kMilli;
  RunConfig cfg = RunConfig::Make(spec);
  cfg.controller.kv_capacity = 8;
  RunResult result;
  ASSERT_NO_THROW(result = RunOmniWindow(
                      trace, std::make_shared<QueryAdapter>(def, 1024), cfg,
                      AllKeys));
  ASSERT_GE(result.windows.size(), 2u);
  for (const EmittedWindow& w : result.windows) {
    if (w.span.Contains(1)) {
      EXPECT_TRUE(w.partial) << "window " << w.span.first << " emitted short";
    }
  }
  EXPECT_GT(result.controller.inserts_rejected, 0u);
}

TEST(FlowTableLimit, KeyRefusedThenAcceptedLeavesLaterWindowsExact) {
  // Frequency merge, sliding 300/100/100 ms, 8-slot table (7 usable). A1-A7
  // fill it in sub-window 0, so K is refused in sub-window 1; K comes back
  // in sub-window 3 once the A keys are evicted, and lands. Retiring
  // sub-window 1 must not subtract the refused K from the slot that holds
  // sub-window 3's count: the windows after it are not flagged.
  std::map<SubWindowNum, std::vector<std::uint32_t>> sent = {
      {0, {1, 2, 3, 4, 5, 6, 7}}, {1, {100}}, {2, {1}}, {3, {100}},
      {4, {1}},                   {5, {1}}};
  Trace trace;
  for (const auto& [sw, ips] : sent) {
    Nanos ts = Nanos(sw) * 100 * kMilli;
    for (const std::uint32_t ip : ips) {
      Packet p;
      p.ft = {ip, 9, 1000, 80, 17};
      p.ts = ts += kMilli;
      trace.packets.push_back(p);
    }
  }
  WindowSpec spec;
  spec.type = WindowType::kSliding;
  spec.window_size = 300 * kMilli;
  spec.slide = spec.subwindow_size = 100 * kMilli;
  RunConfig cfg = RunConfig::Make(spec);
  cfg.controller.kv_capacity = 8;
  const RunResult result =
      RunOmniWindow(trace, std::make_shared<ExactCountApp>(FlowKeyKind::kSrcIp),
                    cfg, AllKeys);
  ASSERT_EQ(result.windows.size(), 4u);
  for (const EmittedWindow& w : result.windows) {
    FlowSet expected;
    for (SubWindowNum sw = w.span.first; sw <= w.span.last; ++sw) {
      for (const std::uint32_t ip : sent[sw]) expected.insert(SrcKey(ip));
    }
    EXPECT_TRUE(w.partial || w.detected == expected)
        << "window " << w.span.first << " emitted short and unflagged";
    EXPECT_EQ(w.partial, w.span.Contains(1)) << "window " << w.span.first;
  }
}

TEST(FlowTableLimit, SlidingKeyChurnNeverFillsTheTable) {
  // Sliding 500/100/100 ms, 200 fresh flows per sub-window for 200
  // sub-windows: 40,000 distinct keys through a 4096-slot table that never
  // holds more than 1,200 of them at once.
  WindowSpec spec;
  spec.type = WindowType::kSliding;
  spec.window_size = 500 * kMilli;
  spec.slide = spec.subwindow_size = 100 * kMilli;
  RunConfig cfg = RunConfig::Make(spec);
  cfg.controller.kv_capacity = 4096;
  const RunResult result =
      RunOmniWindow(FreshFlowsPerSubWindow(200, 200, 100 * kMilli),
                    std::make_shared<ExactCountApp>(FlowKeyKind::kSrcIp), cfg,
                    AllKeys);
  ASSERT_EQ(result.windows.size(), 196u);
  for (const EmittedWindow& w : result.windows) {
    EXPECT_FALSE(w.partial) << "window " << w.span.first;
    EXPECT_EQ(w.detected, SentIn(w.span, 200)) << "window " << w.span.first;
  }
  EXPECT_EQ(result.controller.inserts_rejected, 0u);
}

}  // namespace
}  // namespace ow
