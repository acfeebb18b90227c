// Exp#8 (Figure 13): time of in-switch reset.
//
// Four registers of 64 K two-byte entries are cleared either by the
// conventional switch-OS write path (sequential, so linear in the number of
// registers) or by OmniWindow's recirculating clear packets (OW-4/8/16 =
// number of concurrent clear packets; one pass resets the same position of
// every register, so register count does not matter). Expected shape: OS
// grows linearly into seconds; OmniWindow stays at milliseconds, inversely
// proportional to the clear-packet count.
#include <cstdio>
#include <memory>
#include <vector>

#include "src/switchsim/pipeline.h"
#include "src/switchsim/register_array.h"
#include "src/switchsim/switch_os.h"

namespace {

using namespace ow;

constexpr std::size_t kEntries = 64 * 1024;

/// Minimal clear-packet program: each pass consumes one reset index and
/// clears that position of every attached register (exactly the §4.3
/// data-plane behaviour).
class ResetProgram : public SwitchProgram {
 public:
  explicit ResetProgram(std::size_t registers) {
    for (std::size_t i = 0; i < registers; ++i) {
      regs_.push_back(std::make_unique<RegisterArray>(
          "r" + std::to_string(i), kEntries, 2));
    }
  }

  void Process(Packet& p, Nanos, PacketSource, PipelineActions& act) override {
    if (p.ow.flag != OwFlag::kReset) {
      act.drop = true;
      return;
    }
    const std::uint32_t idx = reset_counter_++;
    if (idx >= kEntries) {
      act.drop = true;
      return;
    }
    // One pass writes the same position of all registers (they live in
    // different stages, one SALU access each).
    for (auto& r : regs_) r->ControlWrite(idx, 0);
    act.recirculate.push_back(p);
    act.drop = true;
  }

  std::vector<RegisterArray*> Registers() override { return {}; }

  std::uint32_t reset_counter_ = 0;
  std::vector<std::unique_ptr<RegisterArray>> regs_;
};

Nanos MeasureOmniReset(std::size_t registers, std::size_t clear_packets) {
  Switch sw(0);
  auto prog = std::make_shared<ResetProgram>(registers);
  sw.SetProgram(prog);
  // Dirty the registers.
  for (auto& r : prog->regs_) {
    for (std::size_t i = 0; i < kEntries; ++i) r->ControlWrite(i, 0xFF);
  }
  for (std::size_t i = 0; i < clear_packets; ++i) {
    Packet p;
    p.ow.present = true;
    p.ow.flag = OwFlag::kReset;
    sw.EnqueueFromWire(p, 0);
  }
  sw.RunBatch(100 * kSecond);
  const Nanos done = sw.last_event_time();
  // Verify the reset completed.
  for (auto& r : prog->regs_) {
    for (std::size_t i = 0; i < kEntries; i += 4'096) {
      if (r->ControlRead(i) != 0) return -1;
    }
  }
  return done;
}

}  // namespace

int main() {
  std::printf("Exp#8: in-switch reset time, registers of 64 K x 2 B\n\n");
  std::printf("%10s %12s %12s %12s %12s\n", "registers", "OS", "OW-4", "OW-8",
              "OW-16");
  SwitchOsDriver os;
  for (std::size_t regs = 1; regs <= 4; ++regs) {
    const Nanos os_time = Nanos(regs) * os.ResetCost(kEntries);
    const Nanos ow4 = MeasureOmniReset(regs, 4);
    const Nanos ow8 = MeasureOmniReset(regs, 8);
    const Nanos ow16 = MeasureOmniReset(regs, 16);
    std::printf("%10zu %9.0f ms %9.2f ms %9.2f ms %9.2f ms\n", regs,
                double(os_time) / 1e6, double(ow4) / 1e6, double(ow8) / 1e6,
                double(ow16) / 1e6);
  }
  std::printf("\n(OS resets registers sequentially -> linear; one clear "
              "packet resets the same index of all registers in one pass -> "
              "flat in register count.)\n");
  return 0;
}
