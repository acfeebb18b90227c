// Golden fingerprints of full single-switch OmniWindow replays. Each
// workload runs RunOmniWindow over a fixed trace and folds everything
// observable about the run into one 64-bit value: per window its span,
// completed_at, partial flag and sorted detections; every data-plane and
// controller Stats field; and the switch.* obs counter deltas. A change to
// window contents, simulated timing, recovery rounds or pass counts shows
// up as a mismatch. Only integers are hashed, so every compiler and build
// type computes the same values.
//
// The constants were recorded from the replay engine these tests pin. Re-
// record one (the failure message prints the new value) only for a
// deliberate change of observable behaviour, and say why in the change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/hash.h"
#include "src/core/runner.h"
#include "src/fault/fault.h"
#include "src/obs/obs.h"
#include "src/telemetry/query.h"
#include "src/trace/generator.h"

namespace ow {
namespace {

const char* const kObsCounters[] = {
    "switch.passes",
    "switch.recirc_passes",
    "switch.to_controller_packets",
    "switch.forwarded",
    "switch.dropped_in_pipeline",
};

struct Replay {
  RunResult run;
  std::vector<std::uint64_t> obs_deltas;  ///< kObsCounters order
};

std::uint64_t Fingerprint(const Replay& r) {
  std::uint64_t h = 0;
  const auto add = [&h](std::uint64_t v) { h = Mix64(h ^ v); };
  add(r.run.windows.size());
  for (const EmittedWindow& w : r.run.windows) {
    add(w.span.first);
    add(w.span.last);
    add(std::uint64_t(w.completed_at));
    add(w.partial);
    std::vector<FlowKey> keys(w.detected.begin(), w.detected.end());
    std::sort(keys.begin(), keys.end());
    add(keys.size());
    for (const FlowKey& k : keys) {
      add(std::uint64_t(k.kind()));
      add(k.bytes().size());
      for (const std::uint8_t b : k.bytes()) add(b);
    }
  }
  const OmniWindowProgram::Stats& dp = r.run.data_plane;
  for (const std::uint64_t v :
       {dp.packets_measured, dp.terminations, dp.afr_generated, dp.reset_passes,
        dp.spilled_keys, dp.stale_packets, dp.collect_overruns, dp.rdma_writes,
        dp.rdma_fetch_adds}) {
    add(v);
  }
  const OmniWindowController::Stats& c = r.run.controller;
  for (const std::uint64_t v :
       {c.afrs_received, c.subwindows_finalized, c.subwindows_force_finalized,
        c.windows_emitted, c.spilled_keys_stored, c.retransmissions_requested,
        c.spike_packets, c.duplicate_afrs, c.inserts_rejected,
        c.windows_partial, c.rdma_holes_detected,
        c.subwindows_degraded_by_switch}) {
    add(v);
  }
  add(c.degraded_subwindows.size());
  for (const SubWindowNum s : c.degraded_subwindows) add(s);
  for (const std::uint64_t d : r.obs_deltas) add(d);
  return h;
}

Replay RunQuery(const Trace& trace, const QueryDef& def, std::size_t cells,
                const RunConfig& cfg) {
  std::vector<std::uint64_t> before;
  for (const char* name : kObsCounters) {
    before.push_back(obs::Global().GetCounter(name).value());
  }
  auto app = std::make_shared<QueryAdapter>(def, cells);
  Replay r;
  r.run = RunOmniWindow(trace, app, cfg,
                        [&](TableView t) { return app->Detect(t); });
  for (std::size_t i = 0; i < before.size(); ++i) {
    r.obs_deltas.push_back(obs::Global().GetCounter(kObsCounters[i]).value() -
                           before[i]);
  }
  return r;
}

WindowSpec TumblingSpec(Nanos window, Nanos sub) {
  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = window;
  spec.subwindow_size = sub;
  spec.slide = window;
  return spec;
}

/// Exp#1-style trace: a SYN-flood victim over background traffic.
Trace SynFloodTrace() {
  TraceConfig tc;
  tc.seed = 3;
  tc.duration = 500 * kMilli;
  tc.packets_per_sec = 5'000;
  tc.num_flows = 500;
  TraceGenerator gen(tc);
  Trace trace = gen.GenerateBackground();
  gen.InjectSynFlood(trace, 50 * kMilli, 300 * kMilli, 600);
  trace.SortByTime();
  return trace;
}

/// RDMA collection (§7) over the SYN-flood trace: recurring flows turn hot
/// and land in the mirror, fresh ones take the append buffer.
RunConfig RdmaConfig() {
  RunConfig cfg = RunConfig::Make(TumblingSpec(100 * kMilli, 50 * kMilli));
  cfg.controller.rdma = true;
  return cfg;
}

void ExpectGolden(const Replay& r, std::uint64_t golden) {
  const std::uint64_t fingerprint = Fingerprint(r);
  EXPECT_EQ(fingerprint, golden) << "fingerprint 0x" << std::hex
                                 << fingerprint;
}

TEST(PipelineFastPath, QueryDrivenRunIsBitIdentical) {
  const Replay r =
      RunQuery(SynFloodTrace(), StandardQuery(5), 4096,
               RunConfig::Make(TumblingSpec(100 * kMilli, 50 * kMilli)));
  ASSERT_GE(r.run.windows.size(), 4u);
  ASSERT_GT(r.run.data_plane.afr_generated, 0u);
  ExpectGolden(r, 0xf86388ded1998416);
}

TEST(PipelineFastPath, RecirculationHeavyRunIsBitIdentical) {
  // Many flows + short sub-windows maximize AFR enumeration recirculation,
  // the traffic the heap lane carries even on the fast path.
  TraceConfig tc;
  tc.seed = 21;
  tc.duration = 300 * kMilli;
  tc.packets_per_sec = 20'000;
  tc.num_flows = 2'000;
  TraceGenerator gen(tc);
  const Replay r =
      RunQuery(gen.GenerateBackground(), StandardQuery(3), 1 << 13,
               RunConfig::Make(TumblingSpec(50 * kMilli, 25 * kMilli)));
  ASSERT_GT(r.obs_deltas[1], 1'000u);  // switch.recirc_passes
  ExpectGolden(r, 0xe0b65b8dfe30d699);
}

TEST(PipelineFastPath, RdmaRunIsBitIdentical) {
  const Replay r = RunQuery(SynFloodTrace(), StandardQuery(5), 4096,
                            RdmaConfig());
  ASSERT_GT(r.run.data_plane.rdma_writes, 0u);
  ASSERT_EQ(r.run.controller.rdma_holes_detected, 0u);
  ExpectGolden(r, 0x40cc480050f8d1ea);
}

TEST(PipelineFastPath, RdmaFaultRunIsBitIdentical) {
  RunConfig cfg = RdmaConfig();
  cfg.fault = fault::MakeChaosPlan(fault::ChaosKind::kRdmaFail, 0.3, 7);
  const Replay r = RunQuery(SynFloodTrace(), StandardQuery(5), 4096, cfg);
  ASSERT_GT(r.run.controller.rdma_holes_detected, 0u);
  ExpectGolden(r, 0x8983b1c970021796);
}

TEST(PipelineFastPath, SlidingRunIsBitIdentical) {
  // Sonata Q4 (DDoS victims) over sliding windows: O5 retires a sub-window
  // from the merged table at every emission.
  TraceConfig tc;
  tc.seed = 77;
  tc.duration = kSecond;
  tc.packets_per_sec = 10'000;
  tc.num_flows = 1'000;
  TraceGenerator gen(tc);
  Trace trace = gen.GenerateBackground();
  gen.InjectDdos(trace, 300 * kMilli, 400 * kMilli, 200);
  trace.SortByTime();

  WindowSpec spec;
  spec.type = WindowType::kSliding;
  spec.window_size = 500 * kMilli;
  spec.slide = 100 * kMilli;
  spec.subwindow_size = 100 * kMilli;
  const Replay r =
      RunQuery(trace, StandardQuery(4), 1 << 13, RunConfig::Make(spec));
  ASSERT_GE(r.run.windows.size(), 5u);
  ExpectGolden(r, 0xfb120cfd08b4e438);
}

}  // namespace
}  // namespace ow
