// Deterministic fault-injection subsystem (src/fault) end to end: injector
// stream discipline, zero-intensity-armed == unarmed bit-identity, phase
// schedules, the fixed retry budgets (8 retransmission rounds per
// sub-window, 8 attempts per switch-OS RPC), and the graceful-degradation
// contract on every faulted substrate — lossy report links (windows exact
// or flagged partial, never silently divergent), RDMA write faults (holes
// detected and chased back to exactness), and switch-OS RPC timeouts
// (contents intact, time inflated deterministically).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/network_runner.h"
#include "src/core/runner.h"
#include "src/fault/fault.h"
#include "src/net/link.h"
#include "src/obs/obs.h"
#include "src/switchsim/switch_os.h"
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

/// 1 s of deterministic traffic: five steady flows plus a heavy hitter.
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

WindowSpec Spec() {
  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = 100 * kMilli;
  spec.slide = spec.window_size;
  spec.subwindow_size = 50 * kMilli;
  return spec;
}

NetworkRunResult RunLine(const Trace& trace, const fault::FaultPlan& plan,
                         std::vector<std::shared_ptr<QueryAdapter>>& apps,
                         const WindowSpec& spec = Spec()) {
  obs::Global().Reset();
  NetworkRunConfig cfg;
  cfg.base = RunConfig::Make(spec);
  cfg.base.fault = plan;
  cfg.topology.line_switches = 2;
  cfg.report_link_seed = 777;
  apps.clear();
  return RunOmniWindowFabric(
      trace,
      [&](std::size_t) {
        apps.push_back(std::make_shared<QueryAdapter>(CountDef(), 2048));
        return apps.back();
      },
      cfg, [&](TableView table) { return apps[0]->Detect(table); });
}

// --- Injector stream discipline -------------------------------------------

TEST(LinkFaultInjector, SeedDeterministicAndFeatureIndependent) {
  obs::Global().Reset();
  fault::LinkFaultProfile full;
  full.drop_rate = 0.3;
  full.dup_rate = 0.2;
  full.reorder_rate = 0.1;
  fault::LinkFaultProfile no_dup = full;
  no_dup.dup_rate = 0.0;

  fault::LinkFaultInjector a(full, 99), b(full, 99), c(no_dup, 99);
  for (int i = 0; i < 2000; ++i) {
    const Nanos now = Nanos(i) * kMicro;
    const auto da = a.Decide(now);
    const auto db = b.Decide(now);
    const auto dc = c.Decide(now);
    // Identical seed + profile -> identical decisions.
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.duplicate, db.duplicate);
    EXPECT_EQ(da.extra_delay, db.extra_delay);
    // Per-feature streams: disabling duplication must not perturb the drop
    // or reorder schedules.
    EXPECT_EQ(da.drop, dc.drop);
    EXPECT_EQ(da.extra_delay, dc.extra_delay);
    EXPECT_FALSE(dc.duplicate);
  }
  EXPECT_GT(a.drops(), 0u);
  EXPECT_GT(a.duplicates(), 0u);
  EXPECT_GT(a.reorders(), 0u);
}

TEST(LinkFaultInjector, PhasesGateTheSchedule) {
  obs::Global().Reset();
  fault::LinkFaultProfile profile;
  profile.drop_rate = 1.0;
  profile.phases.push_back({10 * kMilli, 20 * kMilli, 1.0});
  fault::LinkFaultInjector inj(profile, 5);
  EXPECT_FALSE(inj.Decide(0).drop);              // before the phase
  EXPECT_TRUE(inj.Decide(15 * kMilli).drop);     // inside
  EXPECT_FALSE(inj.Decide(25 * kMilli).drop);    // after
}

TEST(ZeroIntensity, ArmedLinkIsBitIdenticalToUnarmed) {
  obs::Global().Reset();
  // Two links with the same base params and seed; one armed with an
  // all-zero-rate profile. Delivery schedules must match exactly.
  LinkParams params;
  params.latency = 100 * kMicro;
  params.jitter = 30 * kMicro;
  params.loss_rate = 0.05;  // base loss stays active in both
  std::vector<std::pair<Nanos, std::uint32_t>> got_a, got_b;
  Link a(
      params,
      [&](Packet p, Nanos at) { got_a.emplace_back(at, p.ft.dst_ip); }, 123);
  Link b(
      params,
      [&](Packet p, Nanos at) { got_b.emplace_back(at, p.ft.dst_ip); }, 123);
  fault::LinkFaultProfile zero;  // Any() == false, rates all 0
  b.ArmFaults(zero, 77);
  ASSERT_NE(b.faults(), nullptr);
  for (int i = 0; i < 1000; ++i) {
    Packet p;
    p.ft = {1, std::uint32_t(i), 10, 20, 17};
    const Nanos now = Nanos(i) * 10 * kMicro;
    a.Transmit(p, now);
    b.Transmit(p, now);
  }
  EXPECT_EQ(got_a, got_b);
  EXPECT_EQ(a.dropped(), b.dropped());
}

// --- End-to-end graceful degradation --------------------------------------

TEST(FaultInjection, LossyReportPathWindowsExactOrFlagged) {
  const Trace trace = MakeTrace();
  std::vector<std::shared_ptr<QueryAdapter>> apps;
  const NetworkRunResult base = RunLine(trace, fault::FaultPlan{}, apps);

  const fault::FaultPlan plan =
      fault::MakeChaosPlan(fault::ChaosKind::kLoss, 0.35, 0xBEEF);
  const NetworkRunResult got = RunLine(trace, plan, apps);
  EXPECT_GT(obs::Global().GetCounter("fault.link.injected_drops").value(),
            0u);

  ASSERT_EQ(got.per_switch.size(), base.per_switch.size());
  for (std::size_t s = 0; s < got.per_switch.size(); ++s) {
    const auto& gw = got.per_switch[s].windows;
    const auto& bw = base.per_switch[s].windows;
    ASSERT_EQ(gw.size(), bw.size()) << "switch " << s;
    for (std::size_t w = 0; w < gw.size(); ++w) {
      const bool exact = gw[w].span.first == bw[w].span.first &&
                         gw[w].span.last == bw[w].span.last &&
                         gw[w].detected == bw[w].detected;
      EXPECT_TRUE(exact || gw[w].partial)
          << "switch " << s << " window " << w
          << " silently diverged under injected loss";
    }
    // The partial accounting matches the emitted flags.
    std::uint64_t flagged = 0;
    for (const auto& w : gw) flagged += w.partial ? 1 : 0;
    EXPECT_EQ(flagged, got.per_switch[s].controller.windows_partial);
  }
}

TEST(FaultInjection, TotalReportBlackoutFlagsEveryWindow) {
  const Trace trace = MakeTrace();
  std::vector<std::shared_ptr<QueryAdapter>> apps;
  const NetworkRunResult base = RunLine(trace, fault::FaultPlan{}, apps);

  fault::FaultPlan plan;
  plan.report_link.drop_rate = 1.0;
  const NetworkRunResult got = RunLine(trace, plan, apps);

  for (std::size_t s = 0; s < got.per_switch.size(); ++s) {
    const auto& sw = got.per_switch[s];
    // Window cadence survives on the management path (EnsureCollectedThrough
    // chases the data plane's own sub-window counter)...
    ASSERT_EQ(sw.windows.size(), base.per_switch[s].windows.size());
    // ...but with zero reports delivered, every window must be explicitly
    // degraded — that is the whole graceful-degradation contract.
    for (const auto& w : sw.windows) {
      EXPECT_TRUE(w.partial) << "switch " << s;
    }
    EXPECT_EQ(sw.controller.windows_partial, sw.windows.size());
    EXPECT_GT(sw.controller.subwindows_force_finalized, 0u);
  }
  // A chase gives up after kMaxRetransmitAttempts rounds; the longest ran
  // exactly that many.
  EXPECT_EQ(obs::Global().GetHistogram("controller.retry_attempts").max(), 8u);
}

TEST(FaultInjection, PhasedBlackoutDegradesOnlyItsSpanAndRecoversAfter) {
  const Trace trace = MakeTrace();
  std::vector<std::shared_ptr<QueryAdapter>> apps;
  const NetworkRunResult base = RunLine(trace, fault::FaultPlan{}, apps);

  // Report path dead for the first 260 ms only: early triggers are lost, so
  // their collections run late, enumerate regions newer sub-windows already
  // re-wrote, and must surface the damage via the degraded bit instead of
  // announcing under-counts as final.
  fault::FaultPlan plan;
  plan.report_link.drop_rate = 1.0;
  plan.report_link.phases.push_back({0, 260 * kMilli, 1.0});
  const NetworkRunResult got = RunLine(trace, plan, apps);

  std::uint64_t degraded_by_switch = 0;
  for (std::size_t s = 0; s < got.per_switch.size(); ++s) {
    const auto& gw = got.per_switch[s].windows;
    const auto& bw = base.per_switch[s].windows;
    ASSERT_EQ(gw.size(), bw.size());
    for (std::size_t w = 0; w < gw.size(); ++w) {
      const bool exact = gw[w].detected == bw[w].detected;
      EXPECT_TRUE(exact || gw[w].partial) << "switch " << s << " window " << w;
      // The blackout covers sub-windows 0..4. The catch-up collections it
      // forces can spill damage one window past the healing point (a late
      // C&R of sub-window 4 resets a region sub-window 6 already wrote, so
      // [6,7] is conservatively flagged even when detection happens to
      // match). By [8,9] the system must be fully recovered: exact AND
      // unflagged.
      if (gw[w].span.first >= 8) {
        EXPECT_TRUE(exact) << "late window " << w;
        EXPECT_FALSE(gw[w].partial) << "late window " << w;
      }
    }
    degraded_by_switch +=
        got.per_switch[s].controller.subwindows_degraded_by_switch;
  }
  // At least one switch had to invoke the late-collection degraded-bit
  // machinery (region re-written before its C&R ran).
  EXPECT_GT(degraded_by_switch, 0u);
}

TEST(FaultInjection, SlidingWindowsFlagEveryWindowCoveringADegradedSub) {
  // Sliding windows overlap: one degraded sub-window taints every window
  // whose span covers it (W/S consecutive windows), so its mark must
  // survive until no future window can reach it — eviction at
  // span.first + S — not be dropped after the first emission the way
  // tumbling windows may. The controller records every mark in
  // stats().degraded_subwindows; the partial flag must satisfy the exact
  // biconditional: partial(w) <=> span(w) intersects the marked set.
  const Trace trace = MakeTrace();
  WindowSpec spec;
  spec.type = WindowType::kSliding;
  spec.window_size = 150 * kMilli;
  spec.slide = 50 * kMilli;
  spec.subwindow_size = 50 * kMilli;

  std::vector<std::shared_ptr<QueryAdapter>> apps;
  const NetworkRunResult base = RunLine(trace, fault::FaultPlan{}, apps, spec);

  // Report path dead for the first 180 ms: the early sub-windows' triggers
  // are lost, their late collections hit rewritten regions, and the damage
  // must surface as degraded marks covering several overlapping windows.
  fault::FaultPlan plan;
  plan.report_link.drop_rate = 1.0;
  plan.report_link.phases.push_back({0, 180 * kMilli, 1.0});
  const NetworkRunResult got = RunLine(trace, plan, apps, spec);

  std::size_t partial_windows = 0, clean_windows = 0;
  for (std::size_t s = 0; s < got.per_switch.size(); ++s) {
    const auto& marks = got.per_switch[s].controller.degraded_subwindows;
    const auto& gw = got.per_switch[s].windows;
    const auto& bw = base.per_switch[s].windows;
    ASSERT_EQ(gw.size(), bw.size());
    for (std::size_t w = 0; w < gw.size(); ++w) {
      bool tainted = false;
      for (const SubWindowNum d : marks) tainted |= gw[w].span.Contains(d);
      EXPECT_EQ(gw[w].partial, tainted)
          << "switch " << s << " window [" << gw[w].span.first << ","
          << gw[w].span.last << "]";
      // Unflagged windows carry no excuse: they must be exact.
      if (!gw[w].partial) {
        EXPECT_EQ(gw[w].detected, bw[w].detected)
            << "switch " << s << " window " << w;
      }
      (gw[w].partial ? partial_windows : clean_windows) += 1;
    }
  }
  // The scenario must actually exercise both sides of the biconditional.
  EXPECT_GT(partial_windows, 0u);
  EXPECT_GT(clean_windows, 0u);
}

TEST(FaultInjection, RdmaWriteFaultsAreChasedBackToExactness) {
  Trace trace = MakeTrace();
  obs::Global().Reset();
  RunConfig cfg = RunConfig::Make(Spec());
  cfg.data_plane.rdma = true;
  cfg.controller.rdma = true;
  auto app = std::make_shared<QueryAdapter>(CountDef(), 1 << 14);
  const RunResult base = RunOmniWindow(
      trace, app, cfg, [&](TableView t) { return app->Detect(t); });

  obs::Global().Reset();
  RunConfig faulted = cfg;
  faulted.fault = fault::MakeChaosPlan(fault::ChaosKind::kRdmaFail, 0.3, 7);
  auto app2 = std::make_shared<QueryAdapter>(CountDef(), 1 << 14);
  const RunResult got = RunOmniWindow(
      trace, app2, faulted, [&](TableView t) { return app2->Detect(t); });

  // Faults fired and the drain saw the holes...
  EXPECT_GT(obs::Global().GetCounter("fault.rdma.dropped_writes").value() +
                obs::Global().GetCounter("fault.rdma.partial_writes").value(),
            0u);
  EXPECT_GT(got.controller.rdma_holes_detected, 0u);
  // ...and the report-path seq chase recovered every record: windows are
  // exact, not merely flagged.
  ASSERT_EQ(got.windows.size(), base.windows.size());
  for (std::size_t w = 0; w < got.windows.size(); ++w) {
    EXPECT_EQ(got.windows[w].detected, base.windows[w].detected);
    EXPECT_FALSE(got.windows[w].partial);
  }
}

/// A 4096-entry register array with distinct control-plane contents.
RegisterArray MakeRegs() {
  RegisterArray reg("regs", 4096, 8);
  // Control-plane writes: the SALU path allows one access per pass.
  for (std::size_t i = 0; i < reg.size(); ++i) {
    reg.ControlWrite(i, i * 2654435761u);
  }
  return reg;
}

/// Chain `ops` ReadAll RPCs through a driver armed with `profile`; returns
/// the completion time of the last one, its contents in `out`.
Nanos ChainReads(const RegisterArray& reg,
                 const fault::SwitchOsFaultProfile& profile,
                 std::uint64_t seed, int ops, std::vector<std::uint64_t>& out) {
  SwitchOsDriver os;
  os.ArmFaults(profile, seed);
  Nanos t = 0;
  for (int i = 0; i < ops; ++i) {
    out.clear();
    t = os.ReadAll(reg, out, t);
  }
  return t;
}

TEST(FaultInjection, SwitchOsTimeoutsPreserveContentsDeterministically) {
  obs::Global().Reset();
  const RegisterArray reg = MakeRegs();
  SwitchOsDriver clean;
  std::vector<std::uint64_t> want;
  const Nanos t_clean = clean.ReadAll(reg, want, 0);
  EXPECT_EQ(t_clean, clean.ReadCost(reg.size()));

  // Chain 16 RPCs so the Bernoulli draws must fire: each op draws once per
  // fault feature, so a single ReadAll could legitimately sail through.
  constexpr int kOps = 16;
  for (const double intensity : {0.0, 0.05, 0.15, 0.3, 0.5}) {
    for (std::uint64_t s = 0; s < 3; ++s) {
      const std::uint64_t seed = 0xC0A5'0000u + s * 7919;
      SCOPED_TRACE("intensity " + std::to_string(intensity) + " seed " +
                   std::to_string(seed));
      fault::SwitchOsFaultProfile profile;
      profile.timeout_rate = intensity;
      profile.slow_rate = intensity;
      std::vector<std::uint64_t> got1, got2;
      const Nanos t1 = ChainReads(reg, profile, seed, kOps, got1);
      const Nanos t2 = ChainReads(reg, profile, seed, kOps, got2);
      EXPECT_EQ(got1, want);  // contents are never corrupted by timing faults
      EXPECT_EQ(got2, want);
      EXPECT_EQ(t1, t2);  // bit-reproducible in the seed
      if (intensity == 0.0) {
        EXPECT_EQ(t1, Nanos(kOps) * t_clean);  // armed but idle
      } else {
        EXPECT_GE(t1, Nanos(kOps) * t_clean);  // faults only inflate time
      }
    }
  }

  fault::SwitchOsFaultProfile profile;
  profile.timeout_rate = 0.4;
  profile.slow_rate = 0.3;
  std::vector<std::uint64_t> got;
  EXPECT_GT(ChainReads(reg, profile, 11, kOps, got), Nanos(kOps) * t_clean);
  EXPECT_EQ(got, want);
}

TEST(FaultInjection, SwitchOsRpcIsDegradedAfterEightTimedOutAttempts) {
  obs::Global().Reset();
  const RegisterArray reg = MakeRegs();
  SwitchOsDriver clean;
  std::vector<std::uint64_t> want;
  const Nanos per_op = clean.ReadAll(reg, want, 0);

  fault::SwitchOsFaultProfile profile;
  profile.timeout_rate = 1.0;  // every attempt times out
  SwitchOsDriver os;
  os.ArmFaults(profile, 5);
  constexpr std::uint64_t kOps = 16;
  Nanos t = 0;
  std::vector<std::uint64_t> got;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    got.clear();
    const Nanos done = os.ReadAll(reg, got, t);
    // kMaxRpcAttempts (8) timed-out attempts of kRpcTimeoutPenalty
    // (100 ms), reissued with no delay in between.
    EXPECT_EQ(done - t, per_op + 8 * (100 * kMilli)) << "op " << i;
    EXPECT_EQ(got, want);
    t = done;
  }
  EXPECT_EQ(os.faults()->timeouts(), 8 * kOps);
  EXPECT_EQ(os.faults()->degraded_ops(), kOps);
  EXPECT_EQ(os.faults()->slow_ops(), 0u);
  obs::Registry& reg_obs = obs::Global();
  EXPECT_EQ(reg_obs.GetCounter("fault.switch_os.degraded_ops").value(), kOps);
  const obs::Histogram& attempts =
      reg_obs.GetHistogram("fault.switch_os.rpc_attempts");
  EXPECT_EQ(attempts.count(), kOps);
  EXPECT_EQ(attempts.max(), 8u);
}

}  // namespace
}  // namespace ow
