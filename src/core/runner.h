// Single-switch end-to-end harness.
//
// Replays a trace through one OmniWindow switch and its controller and
// returns every emitted window along with the detections the caller's query
// extracts from the merged table. This is the canonical "run OmniWindow
// over a trace" entry point used by the examples, the accuracy experiments
// and the integration tests. It is a one-switch line FabricSession
// (src/core/network_runner.h), the repository's only replay engine, so
// single-switch and fabric runs share wiring, RDMA set-up and flushing.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/common/metrics.h"
#include "src/core/controller.h"
#include "src/core/data_plane.h"
#include "src/core/window.h"
#include "src/fault/fault.h"
#include "src/trace/trace.h"

namespace ow {

struct RunConfig {
  WindowSpec window;
  OmniWindowConfig data_plane;
  ControllerConfig controller;
  /// Fault-injection plan threaded through the substrates the run builds
  /// (RDMA NICs, links). Inert by default; the runner arms nothing when no
  /// rate is set, so the unarmed path stays hook-free. The report-link
  /// profile applies to every switch's report link, the single switch of
  /// RunOmniWindow included; the inner-link profile applies to fabric
  /// links only.
  fault::FaultPlan fault;

  /// Convenience constructor keeping the window spec and signal period in
  /// sync.
  static RunConfig Make(WindowSpec spec);
};

struct EmittedWindow {
  SubWindowSpan span;
  FlowSet detected;
  Nanos completed_at = 0;
  bool partial = false;  ///< degraded (retry budget exhausted), not exact
};

struct RunResult {
  std::vector<EmittedWindow> windows;
  OmniWindowProgram::Stats data_plane;
  OmniWindowController::Stats controller;

  /// Union of detections across all windows.
  FlowSet AllDetected() const;
};

/// Replay `trace` through OmniWindow with `app` plugged in. `detect` maps
/// each completed window's merged table to the detection set (pass {} to
/// record empty sets and rely on stats only). Throws
/// std::invalid_argument where FabricSession does (RDMA collection over a
/// report link that can drop packets).
RunResult RunOmniWindow(
    const Trace& trace, AdapterPtr app, RunConfig cfg,
    std::function<FlowSet(TableView)> detect = {});

}  // namespace ow
