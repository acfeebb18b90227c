// End-to-end lossy collection regression: sweep report-path loss through the
// line-topology runner and check that (a) the retransmission machinery —
// including trigger-gap recovery and completion-notification re-requests —
// recovers every record, so window results match the lossless run, and
// (b) the totals FabricSession::Finish publishes to the obs registry equal
// the Stats structs they are summed from, once per finished session. Also
// pins the force-finalize accounting: a sub-window whose reports never
// arrive is counted in subwindows_force_finalized, not subwindows_finalized.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/network_runner.h"
#include "src/obs/obs.h"
#include "src/telemetry/query.h"

namespace ow {
namespace {

QueryDef CountDef() {
  QueryDef def;
  def.name = "count";
  def.key_kind = FlowKeyKind::kDstIp;
  def.aggregate = QueryAggregate::kCount;
  def.threshold = 8;
  return def;
}

/// 1 s of deterministic traffic: five steady flows (10 pkts per 50 ms
/// sub-window each) plus one heavy hitter, so every window has non-trivial
/// detections.
Trace MakeTrace() {
  Trace trace;
  for (int ms = 0; ms < 1000; ++ms) {
    Packet p;
    p.ft = {1, std::uint32_t(ms % 5 + 1), 10, 20, 17};
    p.ts = Nanos(ms) * kMilli;
    trace.packets.push_back(p);
    if (ms % 2 == 0) {
      Packet hh;
      hh.ft = {2, 99, 10, 20, 17};
      hh.ts = Nanos(ms) * kMilli + kMicro;
      trace.packets.push_back(hh);
    }
  }
  trace.SortByTime();
  return trace;
}

struct Outcome {
  NetworkRunResult net;
  std::uint64_t obs_link_dropped = 0;
  std::uint64_t obs_afrs = 0;
  std::uint64_t obs_retransmissions = 0;
  std::uint64_t obs_forced = 0;
  std::uint64_t obs_merge_records = 0;
};

/// A two-switch line whose report links drop `loss` of their packets.
NetworkRunConfig LineConfig(double loss) {
  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = 100 * kMilli;
  spec.slide = spec.window_size;
  spec.subwindow_size = 50 * kMilli;

  NetworkRunConfig cfg;
  cfg.base = RunConfig::Make(spec);
  cfg.topology.line_switches = 2;
  cfg.report_link.loss_rate = loss;
  cfg.report_link_seed = 777;
  return cfg;
}

Outcome RunAtLoss(const Trace& trace, double loss) {
  // Each run starts from a clean global registry so counters are
  // attributable to this run alone (instrument addresses stay valid).
  obs::Global().Reset();
  const NetworkRunConfig cfg = LineConfig(loss);

  std::vector<std::shared_ptr<QueryAdapter>> apps;
  Outcome out;
  out.net = RunOmniWindowFabric(
      trace,
      [&](std::size_t) {
        apps.push_back(std::make_shared<QueryAdapter>(CountDef(), 2048));
        return apps.back();
      },
      cfg,
      [&](TableView table) { return apps[0]->Detect(table); });

  obs::Registry& reg = obs::Global();
  out.obs_link_dropped = reg.GetCounter("link.dropped").value();
  out.obs_afrs = reg.GetCounter("controller.afrs_received").value();
  out.obs_retransmissions =
      reg.GetCounter("controller.retransmissions").value();
  out.obs_forced =
      reg.GetCounter("controller.subwindows_force_finalized").value();
  out.obs_merge_records = reg.GetCounter("merge.records").value();
  return out;
}

TEST(LossyCollection, SweepRecoversAndObsAgreesWithStats) {
  const Trace trace = MakeTrace();
  const Outcome lossless = RunAtLoss(trace, 0.0);
  ASSERT_EQ(lossless.net.report_dropped, 0u);
  ASSERT_EQ(lossless.net.per_switch.size(), 2u);
  ASSERT_GE(lossless.net.per_switch[0].windows.size(), 8u);
  EXPECT_EQ(lossless.obs_forced, 0u);
  EXPECT_EQ(lossless.obs_retransmissions, 0u);

  for (const double loss : {0.01, 0.1}) {
    SCOPED_TRACE(loss);
    const Outcome lossy = RunAtLoss(trace, loss);
    EXPECT_GT(lossy.net.report_dropped, 0u);

    // The published totals are the Stats structs' sums.
    EXPECT_EQ(lossy.obs_link_dropped,
              lossy.net.link_dropped + lossy.net.report_dropped);
    std::uint64_t afrs = 0, retrans = 0, forced = 0, spikes = 0;
    for (const auto& sw : lossy.net.per_switch) {
      afrs += sw.controller.afrs_received;
      retrans += sw.controller.retransmissions_requested;
      forced += sw.controller.subwindows_force_finalized;
      spikes += sw.controller.spike_packets;
    }
    EXPECT_EQ(lossy.obs_afrs, afrs);
    EXPECT_EQ(lossy.obs_retransmissions, retrans);
    EXPECT_EQ(lossy.obs_forced, forced);
    // Every record handed to the merge engine arrived as an AFR or a
    // folded-in latency-spike copy.
    EXPECT_EQ(lossy.obs_merge_records, afrs + spikes);

    // Losses occurred, so recovery must have chased them.
    EXPECT_GT(retrans, 0u);
    // Retransmissions (plus trigger-gap / notification recovery) recover
    // everything at these rates: no sub-window is ever given up on, and the
    // per-switch window results are identical to the lossless run.
    EXPECT_EQ(forced, 0u);
    for (std::size_t s = 0; s < lossy.net.per_switch.size(); ++s) {
      const auto& got = lossy.net.per_switch[s].windows;
      const auto& want = lossless.net.per_switch[s].windows;
      ASSERT_EQ(got.size(), want.size()) << "switch " << s;
      for (std::size_t w = 0; w < got.size(); ++w) {
        EXPECT_EQ(got[w].span.first, want[w].span.first);
        EXPECT_EQ(got[w].span.last, want[w].span.last);
        EXPECT_EQ(got[w].detected, want[w].detected)
            << "switch " << s << " window " << w;
      }
    }
  }
}

TEST(LossyCollection, SessionPublishesItsTotalsOnceAtFinish) {
  // FabricSession::Finish is the one place a session writes event counts
  // to the registry: nothing before it, each element's total once at it,
  // and nothing at all from a session destroyed unfinished.
  const Trace trace = MakeTrace();
  const NetworkRunConfig cfg = LineConfig(0.1);
  const auto make_app = [](std::size_t) {
    return std::make_shared<QueryAdapter>(CountDef(), 2048);
  };
  const char* const kPublished[] = {
      "controller.afrs_received", "controller.retransmissions",
      "controller.subwindows_force_finalized", "controller.windows_emitted",
      "link.transmitted", "link.dropped", "switch.passes"};
  obs::Registry& reg = obs::Global();
  reg.Reset();

  FabricSession session(trace, make_app, cfg);
  session.DriveUntil(trace.Duration() / 2);
  ASSERT_GT(session.partial_result().per_switch[0].windows.size(), 0u);
  for (const char* name : kPublished) {
    EXPECT_EQ(reg.GetCounter(name).value(), 0u) << name << " before Finish";
  }

  const NetworkRunResult net = session.Finish();
  std::uint64_t afrs = 0, retrans = 0, forced = 0;
  for (const SwitchRun& sw : net.per_switch) {
    afrs += sw.controller.afrs_received;
    retrans += sw.controller.retransmissions_requested;
    forced += sw.controller.subwindows_force_finalized;
  }
  ASSERT_GT(afrs, 0u);
  ASSERT_GT(retrans, 0u);
  ASSERT_GT(net.report_dropped, 0u);
  EXPECT_EQ(reg.GetCounter("controller.afrs_received").value(), afrs);
  EXPECT_EQ(reg.GetCounter("controller.retransmissions").value(), retrans);
  EXPECT_EQ(reg.GetCounter("controller.subwindows_force_finalized").value(),
            forced);
  EXPECT_EQ(reg.GetCounter("link.dropped").value(),
            net.link_dropped + net.report_dropped);

  std::vector<std::uint64_t> published;
  for (const char* name : kPublished) {
    published.push_back(reg.GetCounter(name).value());
  }
  {
    FabricSession unfinished(trace, make_app, cfg);
    unfinished.DriveUntil(trace.Duration());
  }
  for (std::size_t i = 0; i < published.size(); ++i) {
    EXPECT_EQ(reg.GetCounter(kPublished[i]).value(), published[i])
        << kPublished[i] << " after an unfinished session";
  }
}

TEST(LossyCollection, UnrecoverableSubWindowIsForceFinalized) {
  // Deterministic total blackout of sub-window 0's reports (AFRs AND the
  // completion notification, retransmitted or not): the controller must
  // exhaust kMaxRetransmitAttempts, force-finalize exactly that sub-window
  // and account for it separately from the clean finalizes.
  Trace trace;
  for (int ms = 0; ms < 200; ++ms) {
    Packet p;
    p.ft = {1, std::uint32_t(ms % 3 + 1), 10, 20, 17};
    p.ts = Nanos(ms) * kMilli;
    trace.packets.push_back(p);
  }

  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = spec.subwindow_size = 50 * kMilli;  // W = 1
  RunConfig cfg = RunConfig::Make(spec);

  Switch sw(0);
  auto app = std::make_shared<QueryAdapter>(CountDef(), 512);
  auto program = std::make_shared<OmniWindowProgram>(cfg.data_plane, app);
  sw.SetProgram(program);
  OmniWindowController controller(cfg.controller, app->merge_kind());
  controller.AttachSwitch(&sw);
  sw.SetControllerHandler([&](const Packet& p, Nanos t) {
    if (p.ow.flag == OwFlag::kAfrReport && p.ow.subwindow_num == 0) return;
    controller.OnPacket(p, t);
  });
  std::size_t emitted = 0;
  controller.SetWindowHandler([&](const WindowResult&) { ++emitted; });

  sw.FeedTrace(trace.packets);
  Packet sentinel;
  sentinel.ts = trace.Duration() + 60 * kMilli;
  sw.EnqueueFromWire(sentinel, sentinel.ts);
  const Nanos horizon = trace.Duration() + 10 * kSecond;
  sw.RunBatch(horizon);
  for (int round = 0; round < 32; ++round) {
    if (controller.Flush(trace.Duration())) break;
    sw.RunBatch(horizon);
  }

  const auto& stats = controller.stats();
  EXPECT_EQ(stats.subwindows_force_finalized, 1u);
  EXPECT_GE(stats.subwindows_finalized, 3u);  // sub-windows 1..3 are clean
  EXPECT_GT(stats.retransmissions_requested, 0u);
  EXPECT_GE(emitted, 4u);  // the blacked-out window still emits (empty)
}

}  // namespace
}  // namespace ow
