// Multiple telemetry apps on one switch pipeline.
//
// Exp#5 shows an OmniWindow program leaving more than half of the pipeline
// free — "enough resources to support more telemetry solutions". This
// module realizes that: a MultiAppProgram hosts several OmniWindowPrograms
// in ONE pipeline pass (their register arrays live in different stages, so
// the per-array single-access rule still holds), and MultiAppHarness wires
// one controller per app to the shared switch, demultiplexing
// switch-to-controller traffic by the header's app_id.
//
// Sub-window consistency across apps comes for free: the first sub-program
// runs the signals and stamps the packet's sub-window number; the rest are
// configured as followers and adopt the embedded number, exactly like
// downstream switches do (§5).
#pragma once

#include <memory>
#include <vector>

#include "src/core/controller.h"
#include "src/core/data_plane.h"

namespace ow {

class MultiAppProgram final : public SwitchProgram {
 public:
  /// `programs[0]` must be configured with first_hop = true (it drives the
  /// signals); all others must be followers (first_hop = false).
  explicit MultiAppProgram(
      std::vector<std::shared_ptr<OmniWindowProgram>> programs);

  void Process(Packet& p, Nanos now, PacketSource src,
               PipelineActions& act) override;
  std::vector<RegisterArray*> Registers() override;
  void ChargeResources(ResourceLedger& ledger) const override;

  OmniWindowProgram& program(std::size_t i) { return *programs_.at(i); }

 private:
  std::vector<std::shared_ptr<OmniWindowProgram>> programs_;
};

/// Convenience wiring: one switch, N apps, N controllers.
class MultiAppHarness {
 public:
  struct AppSpec {
    AdapterPtr adapter;
    ControllerConfig controller;
  };

  /// Builds the programs (app 0 first-hop, others followers), attaches the
  /// demuxing controller handler and stamps per-app ids.
  MultiAppHarness(Switch& sw, OmniWindowConfig base_config,
                  std::vector<AppSpec> apps);

  OmniWindowController& controller(std::size_t i) {
    return *controllers_.at(i);
  }
  MultiAppProgram& program() { return *program_; }

  /// Flush all controllers (see OmniWindowController::Flush).
  bool FlushAll(Nanos now);

 private:
  std::shared_ptr<MultiAppProgram> program_;
  std::vector<std::unique_ptr<OmniWindowController>> controllers_;
};

}  // namespace ow
