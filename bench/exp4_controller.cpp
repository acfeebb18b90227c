// Exp#4 (Figure 10): controller time usage breakdown.
//
// Runs Q1 through the full pipeline under tumbling and sliding windows and
// prints, per sub-window of one complete window, the controller's five
// operations: O1 collect AFRs (simulated I/O model), O2 insert into the
// key-value table, O3 merge, O4 process the completed window, O5 evict the
// oldest sub-window (sliding only; O2–O5 are measured wall time of the real
// data-structure work). Expected shape: totals of a few ms, insertion (O2)
// dominant, sliding adds O4/O5 overhead but stays orders of magnitude below
// the 100 ms sub-window.
#include <cstdio>

#include "bench/harness.h"

namespace {

using namespace ow;
using namespace ow::bench;

void Report(const char* title, const std::vector<SubWindowTiming>& timings,
            std::size_t first, std::size_t count) {
  std::printf("%s\n", title);
  std::printf("%6s %12s %12s %12s %12s %12s %12s\n", "sub", "O1-collect",
              "O2-insert", "O3-merge", "O4-process", "O5-evict", "total");
  double avg_total = 0;
  std::size_t n = 0;
  for (const auto& t : timings) {
    if (t.subwindow < first || t.subwindow >= first + count) continue;
    std::printf("%6u %9.3f ms %9.3f ms %9.3f ms %9.3f ms %9.3f ms %9.3f ms\n",
                t.subwindow, double(t.o1_collect) / 1e6,
                double(t.o2_insert) / 1e6, double(t.o3_merge) / 1e6,
                double(t.o4_process) / 1e6, double(t.o5_evict) / 1e6,
                double(t.Total()) / 1e6);
    avg_total += double(t.Total()) / 1e6;
    ++n;
  }
  if (n) std::printf("average per sub-window: %.3f ms\n\n", avg_total / n);
}

}  // namespace

int main(int argc, char** argv) {
  // --obs-out=<prefix>: arm span tracing and dump <prefix>.stats.json +
  // <prefix>.trace.json at exit (docs/observability.md).
  const std::optional<std::string> obs_out = ObsOutFromArgs(argc, argv);
  const Trace trace = MakeEvalTrace(/*seed=*/4004);
  std::printf("Exp#4: controller time breakdown, Q1 (trace: %zu packets)\n\n",
              trace.packets.size());
  EvalParams params;
  const QueryDef def = StandardQuery(1);

  for (const bool sliding : {false, true}) {
    auto app = std::make_shared<QueryAdapter>(def, params.window_cells / 4);
    const WindowSpec spec =
        sliding ? SlidingSpec(params) : TumblingSpec(params);
    const RunResult result = RunOmniWindow(
        trace, app, RunConfig::Make(spec),
        [&](TableView table) { return app->Detect(table); });
    // Report the second complete window's five sub-windows (the first is
    // warm-up).
    Report(sliding ? "(b) sliding window" : "(a) tumbling window",
           result.timings, 5, 5);
  }

  if (obs_out && !DumpObs(*obs_out)) {
    std::fprintf(stderr, "failed to write obs dump to %s.*\n",
                 obs_out->c_str());
    return 1;
  }
  return 0;
}
