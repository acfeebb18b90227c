// Exp#4 (Figure 10): controller time usage breakdown.
//
// Runs Q1 through the full pipeline under tumbling and sliding windows and
// prints, per window type, the controller's five operations as its phase
// histograms recorded them (docs/observability.md): O1 collect AFRs
// (simulated DPDK I/O model), O2 insert into the key-value table, O3 merge,
// O4 process each completed window, O5 evict retired sub-windows (O2–O5 are
// measured wall time of the real data-structure work). Per phase: samples,
// total, mean and max per sample, and the mean per sub-window of the run.
// Expected shape: a few ms per sub-window at most, orders of magnitude below
// the 100 ms sub-window; sliding adds O4/O5 work, since every emission
// processes a window and retires a sub-window from the merged table.
//
// Exits non-zero when the obs layer is compiled out (-DOW_OBS=OFF) or any
// phase histogram recorded nothing.
#include <cstdio>

#include "bench/harness.h"

namespace {

using namespace ow;
using namespace ow::bench;

struct Phase {
  const char* label;
  const char* histogram;
};

constexpr Phase kPhases[] = {
    {"O1-collect", "controller.o1_collect_ns"},
    {"O2-insert", "controller.o2_insert_ns"},
    {"O3-merge", "controller.o3_merge_ns"},
    {"O4-process", "controller.o4_process_ns"},
    {"O5-evict", "controller.o5_evict_ns"},
};

/// Print the phase histograms of one run over `subwindows` sub-windows.
/// Returns false if any phase recorded no sample.
bool Report(const char* title, std::uint64_t subwindows) {
  std::printf("%s: %llu sub-windows\n", title,
              static_cast<unsigned long long>(subwindows));
  std::printf("%-11s %8s %14s %11s %11s %15s\n", "phase", "samples",
              "total-ns", "mean-us", "max-us", "us/sub-window");
  bool ok = true;
  double per_subwindow_us = 0;
  for (const Phase& phase : kPhases) {
    const obs::Histogram& h = obs::Global().GetHistogram(phase.histogram);
    const double sum_us = double(h.sum()) / 1e3;
    const double mean_us = h.count() ? sum_us / double(h.count()) : 0.0;
    const double per_sub_us = subwindows ? sum_us / double(subwindows) : 0.0;
    per_subwindow_us += per_sub_us;
    std::printf("%-11s %8llu %14llu %11.3f %11.3f %15.3f\n", phase.label,
                static_cast<unsigned long long>(h.count()),
                static_cast<unsigned long long>(h.sum()), mean_us,
                double(h.max()) / 1e3, per_sub_us);
    if (h.count() == 0) {
      std::printf("FAIL: %s recorded no sample\n", phase.histogram);
      ok = false;
    }
  }
  std::printf("total per sub-window: %.3f ms\n\n", per_subwindow_us / 1e3);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (!obs::kEnabled) {
    std::fprintf(stderr,
                 "exp4 reads the controller phase histograms: rebuild with "
                 "-DOW_OBS=ON\n");
    return 1;
  }
  // --obs-out=<prefix>: arm span tracing and dump <prefix>.stats.json +
  // <prefix>.trace.json at exit (docs/observability.md).
  const std::optional<std::string> obs_out = ObsOutFromArgs(argc, argv);
  const Trace trace = MakeEvalTrace(/*seed=*/4004);
  std::printf("Exp#4: controller time breakdown, Q1 (trace: %zu packets)\n\n",
              trace.packets.size());
  EvalParams params;
  const QueryDef def = StandardQuery(1);

  bool ok = true;
  for (const bool sliding : {false, true}) {
    // Each run reads its own samples; the dump keeps the last run's.
    for (const Phase& phase : kPhases) {
      obs::Global().GetHistogram(phase.histogram).Reset();
    }
    auto app = std::make_shared<QueryAdapter>(def, params.window_cells / 4);
    const WindowSpec spec =
        sliding ? SlidingSpec(params) : TumblingSpec(params);
    const RunResult result = RunOmniWindow(
        trace, app, RunConfig::Make(spec),
        [&](TableView table) { return app->Detect(table); });
    const OmniWindowController::Stats& c = result.controller;
    ok &= Report(sliding ? "(b) sliding window" : "(a) tumbling window",
                 c.subwindows_finalized + c.subwindows_force_finalized);
  }

  if (obs_out && !DumpObs(*obs_out)) {
    std::fprintf(stderr, "failed to write obs dump to %s.*\n",
                 obs_out->c_str());
    return 1;
  }
  return ok ? 0 : 1;
}
