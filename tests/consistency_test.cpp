// Focused tests for the Lamport-style consistency model (§5) at the
// data-plane program level: embedded sub-window propagation, out-of-order
// tolerance, the preserve horizon, and latency-spike escalation.
#include <gtest/gtest.h>

#include <memory>

#include "src/core/network_runner.h"
#include "src/telemetry/query.h"

namespace ow {
namespace {

QueryDef CountDef() {
  QueryDef def;
  def.name = "count";
  def.key_kind = FlowKeyKind::kDstIp;
  def.aggregate = QueryAggregate::kCount;
  def.threshold = 1;
  return def;
}

struct Fixture {
  std::shared_ptr<QueryAdapter> app;
  std::shared_ptr<OmniWindowProgram> program;
  Switch sw{0};
  std::vector<Packet> to_controller;

  explicit Fixture(OmniWindowConfig cfg = {}) {
    cfg.signal.kind = SignalKind::kTimeout;
    cfg.signal.subwindow_size = 100 * kMilli;
    app = std::make_shared<QueryAdapter>(CountDef(), 256);
    program = std::make_shared<OmniWindowProgram>(cfg, app);
    sw.SetProgram(program);
    sw.SetControllerHandler(
        [this](const Packet& p, Nanos) { to_controller.push_back(p); });
  }

  /// One pass through the pipeline; returns the forwarded packet.
  Packet Pass(Packet p, Nanos at) {
    Packet forwarded;
    bool got = false;
    sw.SetPortHandler(0, [&](const Packet& out, Nanos) {
      forwarded = out;
      got = true;
    });
    sw.EnqueueFromWire(std::move(p), at);
    sw.RunBatch(at + kSecond);
    EXPECT_TRUE(got);
    return forwarded;
  }
};

Packet At(Nanos, std::uint32_t dst = 5) {
  Packet p;
  p.ft = {1, dst, 10, 20, 17};
  return p;
}

TEST(Consistency, FirstHopStampsHeader) {
  Fixture f;
  const Packet out = f.Pass(At(0), 10 * kMilli);
  EXPECT_TRUE(out.ow.present);
  EXPECT_EQ(out.ow.subwindow_num, 0u);
  EXPECT_EQ(out.ow.flag, OwFlag::kNormal);
}

TEST(Consistency, TimeoutAdvancesStampedNumber) {
  Fixture f;
  f.Pass(At(0), 10 * kMilli);
  const Packet out = f.Pass(At(0), 250 * kMilli);  // crossed two boundaries
  EXPECT_EQ(out.ow.subwindow_num, 2u);
  EXPECT_EQ(f.program->current_subwindow(), 2u);
}

TEST(Consistency, DownstreamFollowsEmbeddedNumber) {
  OmniWindowConfig cfg;
  cfg.first_hop = false;  // never consults its own clock/signals
  Fixture f(cfg);
  Packet p = At(0);
  p.ow.present = true;
  p.ow.subwindow_num = 7;
  const Packet out = f.Pass(std::move(p), 3 * kSecond);
  EXPECT_EQ(out.ow.subwindow_num, 7u);
  // The embedded number also moved this switch's window forward (it
  // terminated sub-windows 0..6).
  EXPECT_EQ(f.program->current_subwindow(), 7u);
  // One trigger clone per terminated sub-window.
  std::size_t triggers = 0;
  for (const auto& c : f.to_controller) {
    if (c.ow.flag == OwFlag::kTrigger) ++triggers;
  }
  EXPECT_EQ(triggers, 7u);
}

TEST(Consistency, OldPacketWithinPreserveIsMeasuredIntoItsSubWindow) {
  OmniWindowConfig cfg;
  cfg.first_hop = false;
  cfg.preserve_subwindows = 1;
  Fixture f(cfg);
  // Move to sub-window 2.
  Packet fresh = At(0);
  fresh.ow.present = true;
  fresh.ow.subwindow_num = 2;
  f.Pass(std::move(fresh), 0);
  // A delayed packet embedded with sub-window 1 (within the horizon).
  Packet late = At(0, /*dst=*/9);
  late.ow.present = true;
  late.ow.subwindow_num = 1;
  f.Pass(std::move(late), kMilli);
  // Measured into region 1 % 2 = 1 under its own sub-window.
  const FlowKey key(FlowKeyKind::kDstIp, FiveTuple{.dst_ip = 9});
  EXPECT_EQ(f.app->Query(key, /*region=*/1, 0).attrs[0], 1u);
  EXPECT_EQ(f.program->stats().stale_packets, 0u);
}

TEST(Consistency, PacketBeyondPreserveHorizonEscalates) {
  OmniWindowConfig cfg;
  cfg.first_hop = false;
  cfg.preserve_subwindows = 1;
  Fixture f(cfg);
  Packet fresh = At(0);
  fresh.ow.present = true;
  fresh.ow.subwindow_num = 5;
  f.Pass(std::move(fresh), 0);

  Packet ancient = At(0, /*dst=*/9);
  ancient.ow.present = true;
  ancient.ow.subwindow_num = 2;  // 2 + 1 < 5: beyond the horizon
  f.Pass(std::move(ancient), kMilli);
  EXPECT_EQ(f.program->stats().stale_packets, 1u);
  // A latency-spike copy went to the controller carrying the sub-window.
  bool spike_seen = false;
  for (const auto& c : f.to_controller) {
    if (c.ow.flag == OwFlag::kLatencySpike) {
      spike_seen = true;
      EXPECT_EQ(c.ow.payload, 2u);
    }
  }
  EXPECT_TRUE(spike_seen);
  // And it was NOT measured into any region.
  const FlowKey key(FlowKeyKind::kDstIp, FiveTuple{.dst_ip = 9});
  EXPECT_EQ(f.app->Query(key, 0, 0).attrs[0], 0u);
  EXPECT_EQ(f.app->Query(key, 1, 0).attrs[0], 0u);
}

TEST(Consistency, ControllerFoldsSpikesIntoPendingSubWindow) {
  // End-to-end: a spike copy for a sub-window still pending at the
  // controller contributes to the merged frequency result.
  Trace trace;
  const auto arrive = [&](Packet p, Nanos at) {
    p.ts = at;
    trace.packets.push_back(std::move(p));
  };
  // 10 packets in sub-window 0.
  for (int i = 0; i < 10; ++i) arrive(At(0), Nanos(i) * kMilli);
  // Advance two sub-windows, then deliver an ancient packet embedded with
  // sub-window 0 — it escalates as a spike while sub-window 0 is pending.
  arrive(At(0, 6), 120 * kMilli);
  Packet ancient = At(0);
  ancient.ow.present = true;
  ancient.ow.subwindow_num = 0;
  arrive(std::move(ancient), 121 * kMilli);
  arrive(At(0, 6), 200 * kMilli);  // flush boundaries

  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = spec.subwindow_size = 50 * kMilli;
  NetworkRunConfig cfg{.base = RunConfig::Make(spec),
                       .topology = {.line_switches = 1}};
  std::vector<std::uint64_t> totals;
  const FlowKey victim(FlowKeyKind::kDstIp, FiveTuple{.dst_ip = 5});
  cfg.window_observer = [&](std::size_t, const WindowResult& w) {
    const KvSlot* slot = w.table->Find(victim);
    totals.push_back(slot ? slot->attrs[0] : 0);
  };
  const NetworkRunResult result = RunOmniWindowFabric(
      trace,
      [](std::size_t) {
        return std::make_shared<QueryAdapter>(CountDef(), 256);
      },
      std::move(cfg));

  ASSERT_FALSE(totals.empty());
  EXPECT_EQ(totals[0], 11u);  // 10 measured + 1 folded-in spike
  EXPECT_EQ(result.per_switch[0].controller.spike_packets, 1u);
}

}  // namespace
}  // namespace ow
