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
//
// Emits BENCH_detect.json (--out=) and exits non-zero if leaf-spine
// precision < 0.9 or recall < 0.8 — the CI detection smoke job runs this
// binary on a thinned trace (--pps=).
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
  RunOutcome run;
  detect::StreamingScore score;
};

void PrintRow(const ResultRow& r) {
  std::printf(
      "%15s  windows=%-5zu alerts=%-4zu p=%.3f r=%.3f "
      "(%zu/%zu labels) lat=%.0f/%.0f ms  tracked-peak=%zu\n",
      r.fabric.c_str(), r.run.windows,
      r.score.actionable_alerts, r.score.pr.precision, r.score.pr.recall,
      r.score.labels_detected, r.score.labels,
      double(r.score.mean_detection_latency) / double(kMilli),
      double(r.score.max_detection_latency) / double(kMilli),
      r.run.stats.tracked_peak);
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
        << ", \"wall_ms\": " << r.run.wall_ms << "}"
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

  if (WriteJson(out_path, lt, dcfg, rows)) {
    std::printf("\nwrote %s\n", out_path.c_str());
  } else {
    std::printf("\nFAILED to write %s\n", out_path.c_str());
    return 2;
  }

  // Acceptance floors on the leaf-spine quality row.
  const ResultRow& headline = rows[1];
  bool ok = true;
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
  return ok ? 0 : 1;
}
