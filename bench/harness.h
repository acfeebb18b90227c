// Shared experiment harness for the bench/ binaries.
//
// Provides the six window mechanisms of the paper's evaluation —
// ITW / ISW (ideal), TW1 / TW2 (conventional tumbling) and OTW / OSW
// (OmniWindow tumbling/sliding) — as uniform runners over a trace, plus
// the evaluation trace builder and precision/recall scoring against the
// ideal sliding window (the ground truth convention of Exp#1/#2/#10).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/core/runner.h"
#include "src/telemetry/baselines.h"
#include "src/telemetry/query.h"
#include "src/telemetry/sketch_apps.h"
#include "src/trace/generator.h"

namespace ow::bench {

/// The window parameters of §9.1: 500 ms windows, 100 ms slide and
/// sub-windows, 1/4 window memory per sub-window.
struct EvalParams {
  Nanos window_size = 500 * kMilli;
  Nanos slide = 100 * kMilli;
  Nanos subwindow_size = 100 * kMilli;
  /// Whole-window state cells for the baselines; OmniWindow sub-windows get
  /// a quarter of this.
  std::size_t window_cells = 1 << 15;
  /// Conventional C&R blackout (switch-OS path) for TW1.
  Nanos cr_time = 60 * kMilli;
};

/// One standard evaluation trace (background + all anomalies + boundary
/// bursts), deterministic in `seed`.
Trace MakeEvalTrace(std::uint64_t seed, Nanos duration = 2 * kSecond,
                    double pps = 60'000, std::size_t flows = 8'000);

enum class Mechanism { kItw, kIsw, kTw1, kTw2, kOtw, kOsw };

const char* MechanismName(Mechanism m);

/// Per-window detections of `def` under mechanism `m`.
std::vector<BaselineWindowResult> RunQueryMechanism(Mechanism m,
                                                    const QueryDef& def,
                                                    const Trace& trace,
                                                    const EvalParams& params);

/// Precision/recall of a mechanism against the ideal sliding window.
PrecisionRecall ScoreQueryMechanism(Mechanism m, const QueryDef& def,
                                    const Trace& trace,
                                    const EvalParams& params);

/// Convert OmniWindow's emitted windows to baseline-result form (time spans
/// derived from sub-window indices).
std::vector<BaselineWindowResult> ToBaselineResults(
    const RunResult& result, Nanos subwindow_size);

/// WindowSpec helpers.
WindowSpec TumblingSpec(const EvalParams& p);
WindowSpec SlidingSpec(const EvalParams& p);

/// `--obs-out=<prefix>` support shared by the bench binaries. When the flag
/// is present, arms span tracing on the global obs registry and returns the
/// prefix; pass it to DumpObs after the run. Returns nullopt (and leaves
/// tracing off) otherwise.
std::optional<std::string> ObsOutFromArgs(int argc, char** argv);

/// Write `<prefix>.stats.json` + `<prefix>.trace.json` from the global obs
/// registry (see docs/observability.md for the schemas). Returns false if
/// either file could not be written.
bool DumpObs(const std::string& prefix);

/// BENCH_*.json emission (schema family shared by perf_merge and
/// perf_pipeline: a "bench" tag, a "trace" descriptor, host_cpus and a
/// "results" array of per-workload rows) --------------------------------

struct BenchThroughputRow {
  std::string workload;
  std::uint64_t items = 0;       ///< items (packets/records) per round
  int rounds = 0;
  double ns_per_item = 0;
  double items_per_sec = 0;
  /// Heap allocations (operator new calls) per item inside the timed
  /// region, measured via the OW_ALLOC_TRACE hook. Emitted when >= 0;
  /// negative means the build has no tracing. The steady-state target — and
  /// the regression-gated baseline — is exactly 0.
  double allocs_per_item = -1;
};

/// Write rows as `{"bench": <bench>, "trace": {...<trace_desc>...},
/// "min_time_sec": ..., "host_cpus": ..., "results": [...]}` with the row
/// fields named `ns_per_<item_name>` / `<item_name>s_per_sec`. Returns
/// false if the file could not be written.
bool WriteThroughputJson(const std::string& path, const std::string& bench,
                         const std::string& trace_desc, double min_time_sec,
                         const std::string& item_name,
                         const std::vector<BenchThroughputRow>& rows);

/// `--min-time=<seconds>` flag (perf smoke runs pass a small value);
/// returns `def` when absent or malformed.
double MinTimeFromArgs(int argc, char** argv, double def);

/// `--out=<path>` flag; returns `def` when absent.
std::string OutPathFromArgs(int argc, char** argv, const std::string& def);

}  // namespace ow::bench
