// Exp#3 (Figure 9): case study — monitoring distributed ML training with
// user-defined window signals.
//
// The simulated parameter-server job embeds its iteration number in every
// packet; OmniWindow turns each iteration into a window and the switch
// measures per-worker iteration (gradient transmission) times. Output: per
// iteration, the measured time of each worker vs the workload's ground
// truth, showing the stepwise drop as the compression ratio doubles every
// 16 iterations (2 -> 2048).
#include <cmath>
#include <cstdio>
#include <map>

#include "src/core/network_runner.h"
#include "src/dml/dml.h"
#include "src/dml/iteration_app.h"

int main() {
  using namespace ow;

  DmlConfig cfg;
  cfg.workers = 3;
  cfg.iterations = 96;
  cfg.gradient_bytes = 8 << 20;
  DmlWorkload workload(cfg);
  const Trace trace = workload.Generate();
  std::printf("Exp#3: DML case study (%zu packets, %d workers, %zu iters)\n\n",
              trace.packets.size(), cfg.workers, cfg.iterations);

  WindowSpec spec;
  spec.type = WindowType::kUserDefined;
  spec.window_size = spec.subwindow_size = 100 * kMilli;  // W = 1
  NetworkRunConfig nc{.base = RunConfig::Make(spec),
                      .topology = {.line_switches = 1}};
  nc.base.data_plane.signal.kind = SignalKind::kUserDefined;
  nc.base.controller.grace_period = 100 * kMicro;

  // Windows arrive in iteration order (W = 1, user-defined signal).
  std::vector<std::map<std::uint32_t, Nanos>> measured(cfg.iterations);
  std::size_t window_index = 0;
  nc.window_observer = [&](std::size_t, const WindowResult& w) {
    if (window_index >= measured.size()) return;
    w.table->ForEach([&](const KvSlot& slot) {
      measured[window_index][slot.key.src_ip()] =
          Nanos(slot.attrs[1]) - Nanos(slot.attrs[0]);
    });
    ++window_index;
  };
  RunOmniWindowFabric(
      trace,
      [](std::size_t) { return std::make_shared<IterationTimeApp>(4096); },
      std::move(nc));

  const auto& truth = workload.truth();
  std::printf("%5s %6s", "iter", "ratio");
  for (int w = 0; w < cfg.workers; ++w) {
    std::printf("  w%d-meas(ms) w%d-true(ms)", w, w);
  }
  std::printf("\n");
  double total_err = 0;
  std::size_t n_err = 0;
  for (std::size_t it = 0; it < cfg.iterations; ++it) {
    const bool print = it % 8 == 0 || it == cfg.iterations - 1;
    if (print) std::printf("%5zu %6.0f", it, truth.compression_ratio[it]);
    for (int w = 0; w < cfg.workers; ++w) {
      const std::uint32_t ip = 0x0AC80001u + std::uint32_t(w);
      const auto& m = measured[it];
      auto found = m.find(ip);
      const double meas =
          found == m.end() ? 0.0 : double(found->second) / double(kMilli);
      const double tru =
          double(truth.iteration_times[std::size_t(w)][it]) / double(kMilli);
      if (print) std::printf("  %10.3f %11.3f", meas, tru);
      if (tru > 0 && meas > 0) {
        total_err += std::abs(meas - tru) / tru;
        ++n_err;
      }
    }
    if (print) std::printf("\n");
  }
  std::printf("\nmean relative measurement error: %.2f%% over %zu samples\n",
              n_err ? 100.0 * total_err / double(n_err) : 0.0, n_err);
  std::printf("windows emitted: %zu (one per iteration)\n", window_index);
  return 0;
}
