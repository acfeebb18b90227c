// In-application traffic monitoring with user-defined window signals
// (the Exp#3 case study).
//
// Simulates a parameter-server training job whose packets embed the current
// iteration number. OmniWindow turns each iteration into its own window and
// the switch records per-worker iteration times, which this example prints
// against ground truth. The stepwise drop in iteration time as the gradient
// compression ratio doubles is clearly visible.
#include <cstdio>
#include <map>

#include "src/core/network_runner.h"
#include "src/dml/dml.h"
#include "src/dml/iteration_app.h"

int main() {
  using namespace ow;

  DmlConfig cfg;
  cfg.workers = 3;
  cfg.iterations = 64;
  cfg.gradient_bytes = 8 << 20;
  DmlWorkload workload(cfg);
  const Trace trace = workload.Generate();
  std::printf("training trace: %zu packets over %zu iterations\n\n",
              trace.packets.size(), cfg.iterations);

  WindowSpec spec;
  spec.type = WindowType::kUserDefined;
  spec.window_size = spec.subwindow_size = 100 * kMilli;  // W = 1

  NetworkRunConfig nc{.base = RunConfig::Make(spec),
                      .topology = {.line_switches = 1}};
  nc.base.data_plane.signal.kind = SignalKind::kUserDefined;
  nc.base.controller.grace_period = 100 * kMicro;

  std::vector<std::map<std::uint32_t, Nanos>> per_iter(cfg.iterations);
  std::size_t window_index = 0;
  nc.window_observer = [&](std::size_t, const WindowResult& w) {
    if (window_index >= per_iter.size()) return;
    w.table->ForEach([&](const KvSlot& slot) {
      const Nanos dur = Nanos(slot.attrs[1]) - Nanos(slot.attrs[0]);
      per_iter[window_index][slot.key.src_ip()] = dur;
    });
    ++window_index;
  };
  RunOmniWindowFabric(
      trace,
      [](std::size_t) { return std::make_shared<IterationTimeApp>(4096); },
      std::move(nc));

  std::printf("%5s %12s %14s %14s\n", "iter", "compression",
              "measured(ms)", "truth(ms)");
  const auto& truth = workload.truth();
  for (std::size_t it = 0; it < cfg.iterations; it += 4) {
    double measured = 0;
    int n = 0;
    for (const auto& [worker, dur] : per_iter[it]) {
      measured += double(dur);
      ++n;
    }
    double expected = 0;
    for (int w = 0; w < cfg.workers; ++w) {
      expected += double(truth.iteration_times[std::size_t(w)][it]);
    }
    std::printf("%5zu %12.0f %14.3f %14.3f\n", it,
                truth.compression_ratio[it],
                n ? measured / n / double(kMilli) : 0.0,
                expected / cfg.workers / double(kMilli));
  }
  return 0;
}
