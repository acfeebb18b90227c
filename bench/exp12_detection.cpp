// Exp#12: always-on streaming anomaly detection over sliding windows.
//
// The consumer that justifies cheap sliding windows (§3): a DetectionService
// subscribes to every controller's WindowResult stream on a fabric and keeps
// per-entity EWMA/hysteresis health state online — windows are scored as
// they complete, never post-hoc. The trace is GenerateEvaluationTrace (all
// eight anomaly classes plus window-boundary bursts), and the emitted alert
// stream is matched against TraceGenerator::injected() ground truth for
// streaming precision / recall / detection latency.
//
// Part A scores the detector on a line fabric and a leaf-spine fabric.
// Part B re-runs the leaf-spine fabric on the parallel engine (4 threads)
// and asserts the alert stream is bit-identical to the sequential
// reference.
//
// Emits BENCH_detect.json (--out=) and exits non-zero if leaf-spine
// precision < 0.9, recall < 0.8, or the parallel run mismatches —
// the CI detection smoke job runs this binary on a thinned trace (--pps=).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/core/network_runner.h"
#include "src/detect/detect.h"
#include "src/detect/score.h"
#include "src/telemetry/exact_count.h"
#include "src/trace/generator.h"

namespace {

using namespace ow;

constexpr std::uint64_t kSeed = 2027;
constexpr Nanos kDuration = 6 * kSecond;

double PpsFromArgs(int argc, char** argv, double def) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--pps=", 0) == 0) return std::stod(arg.substr(6));
  }
  return def;
}

struct LabeledTrace {
  Trace trace;
  std::vector<InjectedAnomaly> labels;
};

LabeledTrace MakeTrace(double pps) {
  TraceConfig tc;
  tc.seed = kSeed;
  tc.duration = kDuration;
  tc.packets_per_sec = pps;
  tc.num_flows = 8'000;
  TraceGenerator gen(tc);
  LabeledTrace out;
  out.trace = gen.GenerateEvaluationTrace();
  out.labels = gen.injected();
  return out;
}

NetworkRunConfig BaseConfig(TopologyConfig topo) {
  // The paper's evaluation window geometry (§9.1): 500 ms sliding windows,
  // 100 ms slide over 100 ms sub-windows.
  WindowSpec spec;
  spec.type = WindowType::kSliding;
  spec.window_size = 500 * kMilli;
  spec.slide = 100 * kMilli;
  spec.subwindow_size = 100 * kMilli;
  NetworkRunConfig cfg;
  cfg.base = RunConfig::Make(spec);
  cfg.base.controller.kv_capacity = 1 << 16;
  cfg.topology = topo;
  cfg.link.latency = 20 * kMicro;
  cfg.link.jitter = 0;
  return cfg;
}

struct RunOutcome {
  std::vector<detect::Alert> alerts;
  detect::EntityDetector::Stats stats;
  std::size_t windows = 0;
  std::size_t switches = 0;
  double wall_ms = 0;
};

RunOutcome RunDetection(const Trace& trace, NetworkRunConfig cfg,
                        const detect::DetectorConfig& dcfg) {
  const std::size_t n = TopologySwitchCount(cfg.topology);
  detect::DetectionService service(dcfg, n);
  cfg.window_observer = service.Observer();
  const auto t0 = std::chrono::steady_clock::now();
  const NetworkRunResult net = RunOmniWindowFabric(
      trace, [](std::size_t) { return std::make_shared<ExactCountApp>(); },
      cfg);
  RunOutcome out;
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  out.alerts = service.Alerts();
  out.stats = service.TotalStats();
  out.switches = n;
  for (const SwitchRun& sw : net.per_switch) out.windows += sw.windows.size();
  return out;
}

struct ResultRow {
  std::string fabric;
  std::size_t switches = 0;
  std::size_t threads = 0;
  RunOutcome run;
  detect::StreamingScore score;
  bool identical = true;  ///< alert stream == the threads=0 reference
};

void PrintAlert(const char* tag, const detect::Alert& a) {
  std::printf(
      "  %s sw=%d entity=(kind=%u src=%08x dst=%08x) %s->%s score=%.4f "
      "value=%llu span=[%llu,%llu] win=[%lld,%lld]ms done=%lld partial=%d\n",
      tag, a.switch_id, unsigned(a.entity.kind()), a.entity.src_ip(),
      a.entity.dst_ip(), detect::HealthStateName(a.from),
      detect::HealthStateName(a.to), a.score, (unsigned long long)a.value,
      (unsigned long long)a.span.first, (unsigned long long)a.span.last,
      (long long)(a.window_start / kMilli), (long long)(a.window_end / kMilli),
      (long long)a.completed_at, int(a.partial));
}

/// Diagnostic for determinism failures: show the first differing alert.
void PrintFirstDiff(const std::vector<detect::Alert>& ref,
                    const std::vector<detect::Alert>& got) {
  const std::size_t n = std::min(ref.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (ref[i] == got[i]) continue;
    std::printf("  first difference at alert %zu:\n", i);
    PrintAlert("ref", ref[i]);
    PrintAlert("got", got[i]);
    return;
  }
  std::printf("  streams diverge in length: ref=%zu got=%zu\n", ref.size(),
              got.size());
}

void PrintRow(const ResultRow& r) {
  std::printf(
      "%15s thr=%zu  windows=%-5zu alerts=%-4zu p=%.3f r=%.3f "
      "(%zu/%zu labels) lat=%.0f/%.0f ms  tracked-peak=%zu  %s\n",
      r.fabric.c_str(), r.threads, r.run.windows,
      r.score.actionable_alerts, r.score.pr.precision, r.score.pr.recall,
      r.score.labels_detected, r.score.labels,
      double(r.score.mean_detection_latency) / double(kMilli),
      double(r.score.max_detection_latency) / double(kMilli),
      r.run.stats.tracked_peak,
      r.identical ? "bit-identical" : "DETERMINISM MISMATCH");
}

bool WriteJson(const std::string& path, const LabeledTrace& lt,
               const detect::DetectorConfig& dcfg,
               const std::vector<ResultRow>& rows) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"bench\": \"detection\",\n";
  out << "  \"trace\": {\"name\": \"GenerateEvaluationTrace(" << kSeed
      << ")\", \"packets\": " << lt.trace.packets.size()
      << ", \"duration_ms\": " << kDuration / kMilli
      << ", \"labels\": " << lt.labels.size() << "},\n";
  out << "  \"host_cpus\": " << std::thread::hardware_concurrency() << ",\n";
  out << "  \"detector\": {\"max_entities\": " << dcfg.max_entities
      << ", \"enter_score\": " << dcfg.fsm.enter_score
      << ", \"down_score\": " << dcfg.fsm.down_score
      << ", \"exit_score\": " << dcfg.fsm.exit_score
      << ", \"enter_dwell\": " << dcfg.fsm.enter_dwell
      << ", \"exit_dwell\": " << dcfg.fsm.exit_dwell
      << ", \"ewma_alpha\": " << dcfg.score.alpha
      << ", \"baseline_lag\": " << dcfg.score.baseline_lag
      << ", \"min_baseline\": " << dcfg.score.min_baseline << "},\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ResultRow& r = rows[i];
    out << "    {\"fabric\": \"" << r.fabric << "\""
        << ", \"switches\": " << r.switches
        << ", \"threads\": " << r.threads
        << ", \"windows\": " << r.run.windows
        << ", \"alerts\": " << r.run.alerts.size()
        << ", \"actionable_alerts\": " << r.score.actionable_alerts
        << ", \"matched_alerts\": " << r.score.matched_alerts
        << ", \"labels\": " << r.score.labels
        << ", \"labels_detected\": " << r.score.labels_detected
        << ", \"precision\": " << r.score.pr.precision
        << ", \"recall\": " << r.score.pr.recall
        << ", \"mean_latency_ms\": "
        << double(r.score.mean_detection_latency) / double(kMilli)
        << ", \"max_latency_ms\": "
        << double(r.score.max_detection_latency) / double(kMilli)
        << ", \"tracked_peak\": " << r.run.stats.tracked_peak
        << ", \"tracked_cap\": " << dcfg.max_entities * r.switches
        << ", \"evictions\": " << r.run.stats.evictions
        << ", \"wall_ms\": " << r.run.wall_ms
        << ", \"identical_to_reference\": "
        << (r.identical ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return bool(out);
}

}  // namespace

int main(int argc, char** argv) {
  const double pps = PpsFromArgs(argc, argv, 30'000);
  const std::string out_path =
      bench::OutPathFromArgs(argc, argv, "BENCH_detect.json");
  const LabeledTrace lt = MakeTrace(pps);
  std::printf(
      "Exp#12: streaming detection over sliding windows "
      "(%zu packets, %lld ms, %zu ground-truth labels)\n\n",
      lt.trace.packets.size(), (long long)(kDuration / kMilli),
      lt.labels.size());

  detect::DetectorConfig dcfg;  // defaults documented in docs/detection.md

  TopologyConfig line;
  line.kind = TopologyKind::kLine;
  line.line_switches = 2;
  TopologyConfig leafspine;
  leafspine.kind = TopologyKind::kLeafSpine;
  leafspine.leaves = 4;
  leafspine.spines = 3;

  std::vector<ResultRow> rows;

  std::printf("-- Part A: streaming precision/recall by fabric --\n");
  for (const auto& [name, topo] :
       std::vector<std::pair<std::string, TopologyConfig>>{
           {"line-2", line}, {"leafspine-4x3", leafspine}}) {
    ResultRow row;
    row.fabric = name;
    row.run = RunDetection(lt.trace, BaseConfig(topo), dcfg);
    row.switches = row.run.switches;
    row.score = detect::ScoreAlertStream(row.run.alerts, lt.labels);
    PrintRow(row);
    rows.push_back(std::move(row));
  }

  std::printf(
      "\n-- Part B: leaf-spine determinism "
      "(parallel engine vs thr=0 reference) --\n");
  NetworkRunConfig parallel_cfg = BaseConfig(leafspine);
  parallel_cfg.parallel.threads = 4;
  ResultRow parallel;
  parallel.fabric = "leafspine-4x3";
  parallel.threads = parallel_cfg.parallel.threads;
  parallel.run = RunDetection(lt.trace, parallel_cfg, dcfg);
  parallel.switches = parallel.run.switches;
  parallel.score = detect::ScoreAlertStream(parallel.run.alerts, lt.labels);
  const std::vector<detect::Alert>& reference = rows.back().run.alerts;
  const bool identical = parallel.run.alerts == reference;
  parallel.identical = identical;
  PrintRow(parallel);
  if (!identical) PrintFirstDiff(reference, parallel.run.alerts);
  rows.push_back(std::move(parallel));

  if (WriteJson(out_path, lt, dcfg, rows)) {
    std::printf("\nwrote %s\n", out_path.c_str());
  } else {
    std::printf("\nFAILED to write %s\n", out_path.c_str());
    return 2;
  }

  // Acceptance floors (the leaf-spine quality row + the determinism row).
  const ResultRow& headline = rows[1];
  bool ok = identical;
  if (headline.score.pr.precision < 0.9) {
    std::printf("FAIL: leaf-spine precision %.3f < 0.9\n",
                headline.score.pr.precision);
    ok = false;
  }
  if (headline.score.pr.recall < 0.8) {
    std::printf("FAIL: leaf-spine recall %.3f < 0.8\n",
                headline.score.pr.recall);
    ok = false;
  }
  if (!identical) std::printf("FAIL: alert streams not bit-identical\n");
  return ok ? 0 : 1;
}
