#include "src/core/runner.h"

#include "src/core/network_runner.h"

namespace ow {

RunConfig RunConfig::Make(WindowSpec spec) {
  RunConfig cfg;
  cfg.window = spec;
  cfg.data_plane.signal.kind = SignalKind::kTimeout;
  cfg.data_plane.signal.subwindow_size = spec.subwindow_size;
  cfg.controller.window = spec;
  return cfg;
}

FlowSet RunResult::AllDetected() const {
  FlowSet all;
  for (const auto& w : windows) {
    all.insert(w.detected.begin(), w.detected.end());
  }
  return all;
}

RunResult RunOmniWindow(const Trace& trace, AdapterPtr app, RunConfig cfg,
                        std::function<FlowSet(TableView)> detect) {
  FabricSession session(
      trace, [&app](std::size_t) { return app; },
      {.base = std::move(cfg), .topology = {.line_switches = 1}},
      std::move(detect));
  SwitchRun run = std::move(session.Finish().per_switch[0]);
  return RunResult{std::move(run.windows), run.data_plane, run.controller};
}

}  // namespace ow
