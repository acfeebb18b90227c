// Network-wide packet-loss detection under the consistency model (the
// Exp#9 scenario).
//
// Two switches run LossRadar meters on the link between them. With
// OmniWindow's Lamport-style sub-window embedding, both meters bin every
// packet into the SAME sub-window, so the IBF difference decodes exactly
// the packets the lossy link dropped. The example also runs the same setup
// with skewed local clocks to show the phantom losses that appear without
// the consistency model.
#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "src/net/network.h"
#include "src/telemetry/loss_radar.h"
#include "src/trace/generator.h"

namespace {

using namespace ow;

constexpr Nanos kSubWindow = 50 * kMilli;

/// Minimal LossRadar meter program: per-sub-window IBF instances keyed by
/// either the embedded sub-window number (consistent mode) or the local
/// clock (baseline mode).
class MeterProgram : public SwitchProgram {
 public:
  MeterProgram(bool first_hop, bool use_embedded, Nanos clock_skew)
      : first_hop_(first_hop),
        use_embedded_(use_embedded),
        skew_(clock_skew) {}

  void Process(Packet& p, Nanos now, PacketSource, PipelineActions&) override {
    SubWindowNum sw;
    if (use_embedded_) {
      if (!p.ow.present) {
        p.ow.present = true;
        p.ow.subwindow_num = SubWindowNum((now + skew_) / kSubWindow);
      }
      sw = p.ow.subwindow_num;
    } else {
      sw = SubWindowNum((now + skew_) / kSubWindow);
    }
    (void)first_hop_;
    auto [it, inserted] = meters_.try_emplace(sw, 4096);
    it->second.Insert({p.Key(FlowKeyKind::kFiveTuple), p.seq});
  }

  std::map<SubWindowNum, LossRadar> meters_;

 private:
  bool first_hop_;
  bool use_embedded_;
  Nanos skew_;
};

std::size_t RunScenario(bool consistent, Nanos skew, std::size_t* truth_out) {
  TraceConfig tc;
  tc.seed = 5;
  tc.duration = kSecond;
  tc.packets_per_sec = 40'000;
  tc.num_flows = 4'000;
  TraceGenerator gen(tc);
  Trace trace = gen.GenerateBackground();

  Network net;
  Switch* up = net.AddSwitch();
  Switch* down = net.AddSwitch();
  auto prog_up = std::make_shared<MeterProgram>(true, consistent, 0);
  auto prog_down = std::make_shared<MeterProgram>(false, consistent, skew);
  up->SetProgram(prog_up);
  down->SetProgram(prog_down);
  Link* link = net.Connect(up, down,
                           {.latency = 20 * kMicro, .jitter = 10 * kMicro,
                            .loss_rate = 0.002});
  up->FeedTrace(trace.packets);
  net.RunUntilQuiescent(10 * kSecond);
  *truth_out = link->dropped();

  // Decode per sub-window and count reported losses.
  std::size_t reported = 0;
  for (auto& [sw, meter] : prog_up->meters_) {
    auto it = prog_down->meters_.find(sw);
    LossRadar diff = meter;
    if (it != prog_down->meters_.end()) diff.Subtract(it->second);
    bool clean = false;
    reported += diff.Decode(clean).size();
  }
  return reported;
}

}  // namespace

int main() {
  std::size_t truth = 0;
  const std::size_t consistent = RunScenario(true, 0, &truth);
  std::printf("OmniWindow consistency: %zu losses reported, %zu actual\n",
              consistent, truth);
  for (const Nanos skew : {64 * kMicro, 256 * kMicro}) {
    std::size_t t2 = 0;
    const std::size_t skewed = RunScenario(false, skew, &t2);
    std::printf("local clocks (skew %lld us): %zu losses reported, %zu "
                "actual (phantoms: %zu)\n",
                (long long)(skew / kMicro), skewed, t2,
                skewed > t2 ? skewed - t2 : 0);
  }
  return 0;
}
