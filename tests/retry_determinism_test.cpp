// Retry/backoff determinism (the reproducibility contract of the fault
// subsystem): for a fixed FaultPlan seed, two runs produce identical retry
// counts, identical flagged-window sets, identical detections and
// identical obs deltas.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/network_runner.h"
#include "src/fault/fault.h"
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

/// Everything a run is allowed to vary: window results, retry accounting
/// and the fault/controller obs counters.
struct Fingerprint {
  struct Win {
    SubWindowNum first = 0, last = 0;
    bool partial = false;
    FlowSet detected;
    bool operator==(const Win&) const = default;
  };
  std::vector<Win> windows;
  std::uint64_t retransmissions = 0;
  std::uint64_t forced = 0;
  std::uint64_t finalized = 0;
  std::uint64_t windows_partial = 0;
  std::uint64_t degraded_by_switch = 0;
  std::vector<std::pair<std::string, std::uint64_t>> obs;
  std::uint64_t retry_hist_count = 0;
  std::uint64_t retry_hist_sum = 0;
  std::uint64_t retry_hist_max = 0;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint RunOnce(const Trace& trace, const fault::FaultPlan& plan) {
  obs::Global().Reset();
  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = 100 * kMilli;
  spec.slide = spec.window_size;
  spec.subwindow_size = 50 * kMilli;

  NetworkRunConfig cfg;
  cfg.base = RunConfig::Make(spec);
  cfg.base.fault = plan;
  cfg.topology.line_switches = 2;
  cfg.report_link_seed = 777;

  std::vector<std::shared_ptr<QueryAdapter>> apps;
  const NetworkRunResult net = RunOmniWindowFabric(
      trace,
      [&](std::size_t) {
        apps.push_back(std::make_shared<QueryAdapter>(CountDef(), 2048));
        return apps.back();
      },
      cfg, [&](TableView table) { return apps[0]->Detect(table); });

  Fingerprint fp;
  for (const auto& sw : net.per_switch) {
    for (const auto& w : sw.windows) {
      fp.windows.push_back({w.span.first, w.span.last, w.partial, w.detected});
    }
    fp.retransmissions += sw.controller.retransmissions_requested;
    fp.forced += sw.controller.subwindows_force_finalized;
    fp.finalized += sw.controller.subwindows_finalized;
    fp.windows_partial += sw.controller.windows_partial;
    fp.degraded_by_switch += sw.controller.subwindows_degraded_by_switch;
  }
  obs::Registry& reg = obs::Global();
  for (const char* name :
       {"fault.link.injected_drops", "fault.link.duplicates",
        "fault.link.reorders", "controller.retransmissions",
        "controller.subwindows_force_finalized", "controller.windows_partial",
        "controller.subwindows_degraded_by_switch", "controller.afrs_received",
        "link.dropped"}) {
    fp.obs.emplace_back(name, reg.GetCounter(name).value());
  }
  const obs::Histogram& h = reg.GetHistogram("controller.retry_attempts");
  fp.retry_hist_count = h.count();
  fp.retry_hist_sum = h.sum();
  fp.retry_hist_max = h.max();
  return fp;
}

TEST(RetryDeterminism, SameSeedSameOutcomeAcrossRuns) {
  const Trace trace = MakeTrace();
  fault::FaultPlan plan =
      fault::MakeChaosPlan(fault::ChaosKind::kLoss, 0.25, 0xD57E12);
  // Exercise the full backoff machinery, not just immediate reissue.
  // (Delays are simulated time, so this costs no wall clock.)

  const Fingerprint a = RunOnce(trace, plan);
  const Fingerprint b = RunOnce(trace, plan);
  EXPECT_EQ(a, b) << "identical runs diverged";
  // Faults really fired and recovery really ran.
  EXPECT_GT(a.retransmissions, 0u);
  EXPECT_GT(a.retry_hist_count, 0u);
}

TEST(RetryDeterminism, BackoffWithJitterIsStillReproducible) {
  const Trace trace = MakeTrace();
  fault::FaultPlan plan =
      fault::MakeChaosPlan(fault::ChaosKind::kLoss, 0.35, 0xA11CE);

  auto with_backoff = [&] {
    obs::Global().Reset();
    WindowSpec spec;
    spec.type = WindowType::kTumbling;
    spec.window_size = 100 * kMilli;
    spec.slide = spec.window_size;
    spec.subwindow_size = 50 * kMilli;
    NetworkRunConfig cfg;
    cfg.base = RunConfig::Make(spec);
    cfg.base.fault = plan;
    cfg.base.controller.retry.base_delay = 200 * kMicro;
    cfg.base.controller.retry.jitter_frac = 0.5;
    cfg.topology.line_switches = 2;
    cfg.report_link_seed = 777;
    std::vector<std::shared_ptr<QueryAdapter>> apps;
    const NetworkRunResult net = RunOmniWindowFabric(
        trace,
        [&](std::size_t) {
          apps.push_back(std::make_shared<QueryAdapter>(CountDef(), 2048));
          return apps.back();
        },
        cfg, [&](TableView table) { return apps[0]->Detect(table); });
    std::vector<std::tuple<SubWindowNum, bool, std::size_t>> sig;
    std::uint64_t retx = 0;
    for (const auto& sw : net.per_switch) {
      for (const auto& w : sw.windows) {
        sig.emplace_back(w.span.first, w.partial, w.detected.size());
      }
      retx += sw.controller.retransmissions_requested;
    }
    return std::make_pair(sig, retx);
  };

  const auto r1 = with_backoff();
  const auto r2 = with_backoff();
  EXPECT_EQ(r1, r2);
  EXPECT_GT(r1.second, 0u);
}

}  // namespace
}  // namespace ow
