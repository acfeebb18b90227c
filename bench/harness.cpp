#include "bench/harness.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "src/obs/obs.h"

namespace ow::bench {

std::optional<std::string> ObsOutFromArgs(int argc, char** argv) {
  constexpr const char* kFlag = "--obs-out=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      std::string prefix = argv[i] + std::strlen(kFlag);
      if (prefix.empty()) return std::nullopt;
      obs::Global().SetTracing(true);
      return prefix;
    }
  }
  return std::nullopt;
}

bool DumpObs(const std::string& prefix) {
  return obs::Global().DumpToFiles(prefix);
}

bool WriteThroughputJson(const std::string& path, const std::string& bench,
                         const std::string& trace_desc, double min_time_sec,
                         const std::string& item_name,
                         const std::vector<BenchThroughputRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"%s\",\n", bench.c_str());
  std::fprintf(f, "  \"trace\": %s,\n", trace_desc.c_str());
  std::fprintf(f, "  \"min_time_sec\": %.3f,\n", min_time_sec);
  std::fprintf(f, "  \"host_cpus\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchThroughputRow& r = rows[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"%ss\": %llu, \"rounds\": %d, "
                 "\"ns_per_%s\": %.1f, \"%ss_per_sec\": %.0f",
                 r.workload.c_str(), item_name.c_str(),
                 static_cast<unsigned long long>(r.items), r.rounds,
                 item_name.c_str(), r.ns_per_item, item_name.c_str(),
                 r.items_per_sec);
    if (r.allocs_per_item >= 0) {
      std::fprintf(f, ", \"allocs_per_%s\": %.4f", item_name.c_str(),
                   r.allocs_per_item);
    }
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

double MinTimeFromArgs(int argc, char** argv, double def) {
  constexpr const char* kFlag = "--min-time=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      const double v = std::atof(argv[i] + std::strlen(kFlag));
      if (v > 0) return v;
    }
  }
  return def;
}

std::string OutPathFromArgs(int argc, char** argv, const std::string& def) {
  constexpr const char* kFlag = "--out=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0 &&
        argv[i][std::strlen(kFlag)] != '\0') {
      return argv[i] + std::strlen(kFlag);
    }
  }
  return def;
}

Trace MakeEvalTrace(std::uint64_t seed, Nanos duration, double pps,
                    std::size_t flows) {
  TraceConfig cfg;
  cfg.seed = seed;
  cfg.duration = duration;
  cfg.packets_per_sec = pps;
  cfg.num_flows = flows;
  TraceGenerator gen(cfg);
  return gen.GenerateEvaluationTrace();
}

const char* MechanismName(Mechanism m) {
  switch (m) {
    case Mechanism::kItw: return "ITW";
    case Mechanism::kIsw: return "ISW";
    case Mechanism::kTw1: return "TW1";
    case Mechanism::kTw2: return "TW2";
    case Mechanism::kOtw: return "OTW";
    case Mechanism::kOsw: return "OSW";
  }
  return "?";
}

WindowSpec TumblingSpec(const EvalParams& p) {
  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = p.window_size;
  spec.slide = p.window_size;
  spec.subwindow_size = p.subwindow_size;
  return spec;
}

WindowSpec SlidingSpec(const EvalParams& p) {
  WindowSpec spec;
  spec.type = WindowType::kSliding;
  spec.window_size = p.window_size;
  spec.slide = p.slide;
  spec.subwindow_size = p.subwindow_size;
  return spec;
}

std::vector<BaselineWindowResult> ToBaselineResults(const RunResult& result,
                                                    Nanos subwindow_size) {
  std::vector<BaselineWindowResult> out;
  out.reserve(result.windows.size());
  for (const auto& w : result.windows) {
    out.push_back({Nanos(w.span.first) * subwindow_size,
                   Nanos(w.span.last + 1) * subwindow_size, w.detected});
  }
  return out;
}

std::vector<BaselineWindowResult> RunQueryMechanism(Mechanism m,
                                                    const QueryDef& def,
                                                    const Trace& trace,
                                                    const EvalParams& params) {
  switch (m) {
    case Mechanism::kItw:
      return RunIdealTumbling(def, trace, params.window_size);
    case Mechanism::kIsw:
      return RunIdealSliding(def, trace, params.window_size, params.slide);
    case Mechanism::kTw1:
      return RunTumblingBaseline(TumblingBaselineKind::kTw1, def, trace,
                                 params.window_size, params.window_cells,
                                 params.cr_time);
    case Mechanism::kTw2:
      return RunTumblingBaseline(TumblingBaselineKind::kTw2, def, trace,
                                 params.window_size, params.window_cells,
                                 params.cr_time);
    case Mechanism::kOtw:
    case Mechanism::kOsw: {
      // Paper §9.1: each sub-window gets 1/4 of the original window memory.
      auto app =
          std::make_shared<QueryAdapter>(def, params.window_cells / 4);
      const WindowSpec spec =
          m == Mechanism::kOtw ? TumblingSpec(params) : SlidingSpec(params);
      const RunResult result = RunOmniWindow(
          trace, app, RunConfig::Make(spec),
          [&](TableView table) { return app->Detect(table); });
      return ToBaselineResults(result, params.subwindow_size);
    }
  }
  return {};
}

PrecisionRecall ScoreQueryMechanism(Mechanism m, const QueryDef& def,
                                    const Trace& trace,
                                    const EvalParams& params) {
  const auto got = RunQueryMechanism(m, def, trace, params);
  const auto truth =
      RunIdealSliding(def, trace, params.window_size, params.slide);
  return WindowedPrecisionRecall(got, truth);
}

}  // namespace ow::bench
