// End-to-end tests for the non-timeout window types: counter-driven
// windows, session windows, and retransmission value fidelity; for O5
// eviction across window types: a window that loses keys to a full flow
// table is flagged, sliding key churn never fills the table, and a
// non-invertible table rebuilt in place equals a fresh merge of the
// sub-windows it still reflects; and for sequence tracking: out-of-order
// and repeated sequence numbers complete a sub-window exactly once.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
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
  // holds K1-K8: P1-P7 fill the table, so K1-K8 are refused in both
  // sub-windows. The windows over sub-window 1 must be flagged, and
  // evicting sub-window 0 (a non-invertible rebuild, which never inserts)
  // must not throw.
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

// ------------------------------------- controller driven by report packets

/// A report-path packet for sub-window `sw`.
Packet ToController(OwFlag flag, SubWindowNum sw, std::uint32_t payload) {
  Packet p;
  p.ow.present = true;
  p.ow.flag = flag;
  p.ow.subwindow_num = sw;
  p.ow.payload = payload;
  return p;
}

/// A report packet carrying `rec` as a record of sub-window `sw`.
Packet Report(SubWindowNum sw, const FlowRecord& rec) {
  Packet p = ToController(OwFlag::kAfrReport, sw, 0);
  p.ow.afrs.push_back(rec);
  p.ow.afrs.back().subwindow = sw;
  return p;
}

/// Feed sub-window `sw` to `ctl` as the switch reports it: the trigger, one
/// report per record (seq i for records[i]), then the completion
/// notification carrying the final count.
void Collect(OmniWindowController& ctl, SubWindowNum sw,
             const std::vector<FlowRecord>& records) {
  const auto n = std::uint32_t(records.size());
  const Nanos at = Nanos(sw + 1) * 100 * kMilli;
  ctl.OnPacket(ToController(OwFlag::kTrigger, sw, n), at);
  for (std::uint32_t i = 0; i < n; ++i) {
    FlowRecord rec = records[i];
    rec.seq_id = i;
    ctl.OnPacket(Report(sw, rec), at);
  }
  ctl.OnPacket(ToController(OwFlag::kAfrReport, sw, n), at);
}

/// Every live slot of `table` holds the key, attrs, num_attrs and
/// last_subwindow of the same key in `want`, and they hold the same keys.
void ExpectSameSlots(const KeyValueTable& table, const KeyValueTable& want,
                     const std::string& where) {
  EXPECT_EQ(table.size(), want.size()) << where;
  table.ForEach([&](const KvSlot& slot) {
    const KvSlot* w = want.Find(slot.key);
    ASSERT_NE(w, nullptr) << where << ": stale " << slot.key.ToString();
    EXPECT_EQ(slot.attrs, w->attrs) << where << ": " << slot.key.ToString();
    EXPECT_EQ(slot.num_attrs, w->num_attrs) << where;
    EXPECT_EQ(slot.last_subwindow, w->last_subwindow) << where;
  });
}

TEST(NonInvertibleEvict, InPlaceRebuildEqualsAFreshMergeOfTheRetainedSpan) {
  // Sliding windows of 4 sub-windows (slide 1 and 2) over a 48-key pool:
  // each sub-window carries a random third of the keys with random attrs
  // and attribute counts, so keys churn in and out of every window. After
  // every sub-window, the table must hold exactly what a fresh QueryRange
  // over [table floor, last finalized] merges, slot for slot.
  for (const MergeKind kind :
       {MergeKind::kExistence, MergeKind::kMax, MergeKind::kMin,
        MergeKind::kDistinction, MergeKind::kXorSum}) {
    for (const std::size_t slide : {1, 2}) {
      ControllerConfig cc;
      cc.window.type = WindowType::kSliding;
      cc.window.subwindow_size = 100 * kMilli;
      cc.window.window_size = 400 * kMilli;
      cc.window.slide = Nanos(slide) * 100 * kMilli;
      cc.kv_capacity = 256;
      OmniWindowController ctl(cc, kind);
      SubWindowNum floor = 0;  // first sub-window the table reflects
      std::size_t windows = 0;
      ctl.SetWindowHandler([&](const WindowResult& w) {
        floor = SubWindowNum(w.span.first + slide);
        ++windows;
      });
      Rng rng(std::uint64_t(kind) * 10 + slide);
      for (SubWindowNum sw = 0; sw < 40; ++sw) {
        std::vector<FlowRecord> records;
        for (std::uint32_t k = 1; k <= 48; ++k) {
          if (rng.Uniform(3) != 0) continue;
          FlowRecord rec;
          rec.key = FlowKey(FlowKeyKind::kSrcIp, {.src_ip = k});
          for (auto& a : rec.attrs) a = rng.Uniform(1000);
          rec.num_attrs = std::uint8_t(1 + rng.Uniform(4));
          records.push_back(rec);
        }
        Collect(ctl, sw, records);
        const std::string where = "kind " + std::to_string(int(kind)) +
                                  " slide " + std::to_string(slide) +
                                  " after sub-window " + std::to_string(sw);
        ASSERT_EQ(ctl.next_to_finalize(), sw + 1) << where;
        KeyValueTable want(cc.kv_capacity);
        ASSERT_TRUE(ctl.QueryRange({floor, sw}, want)) << where;
        ExpectSameSlots(ctl.table(), want, where);
      }
      EXPECT_EQ(windows, (40 - 4) / slide + 1);
    }
  }
}

TEST(SequenceTracking, OutOfOrderAndRepeatedSeqsCompleteASubWindowOnce) {
  // Sub-window 0 announces five records, and a sixth (seq 5, a key added
  // after the count) also reports. Reports arrive out of order and with
  // repeats; seq 2 is missing until a retransmission, so the notification
  // alone cannot complete it although six seqs are in. The window must
  // emit once, with each record merged once.
  ControllerConfig cc;
  cc.window.type = WindowType::kTumbling;
  cc.window.window_size = cc.window.subwindow_size = 100 * kMilli;
  OmniWindowController ctl(cc, MergeKind::kFrequency);
  std::vector<std::uint64_t> totals;
  ctl.SetWindowHandler([&](const WindowResult& w) {
    std::uint64_t total = 0;
    w.table->ForEach([&](const KvSlot& slot) { total += slot.attrs[0]; });
    totals.push_back(total);
  });
  const auto record = [](std::uint32_t seq) {
    FlowRecord rec;
    rec.key = FlowKey(FlowKeyKind::kSrcIp, {.src_ip = seq + 1});
    rec.attrs[0] = std::uint64_t(1) << seq;  // each seq its own bit
    rec.num_attrs = 1;
    rec.seq_id = seq;
    return rec;
  };
  ctl.OnPacket(ToController(OwFlag::kTrigger, 0, 5), kMilli);
  for (const std::uint32_t seq : {3u, 5u, 0u, 4u, 0u, 1u, 3u}) {
    ctl.OnPacket(Report(0, record(seq)), kMilli);
  }
  ctl.OnPacket(ToController(OwFlag::kAfrReport, 0, 5), kMilli);
  EXPECT_TRUE(totals.empty()) << "completed without seq 2";
  EXPECT_EQ(ctl.next_to_finalize(), 0u);
  ctl.OnPacket(Report(0, record(2)), 2 * kMilli);
  ctl.OnPacket(Report(0, record(2)), 2 * kMilli);  // late repeat: stale
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_EQ(totals[0], 0b111111u);
  EXPECT_EQ(ctl.next_to_finalize(), 1u);
  EXPECT_EQ(ctl.stats().subwindows_finalized, 1u);
  EXPECT_EQ(ctl.stats().afrs_received, 6u);
  EXPECT_EQ(ctl.stats().duplicate_afrs, 2u);
}

}  // namespace
}  // namespace ow
