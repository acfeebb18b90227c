// Exp#9 (Figure 14): consistency model vs PTP-synchronized local clocks.
//
// Two adjacent switches run LossRadar on the link between them. Under
// OmniWindow's consistency model the first hop embeds the sub-window number
// and the second follows it, so both meters bin every packet identically
// and the IBF difference decodes only real losses. Under PTP local clocks
// with deviation D, boundary packets land in different sub-windows on the
// two switches and decode as phantom losses, collapsing precision as D
// grows (2 us .. 512 us sweep).
#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "src/net/network.h"
#include "src/net/ptp.h"
#include "src/telemetry/loss_radar.h"
#include "src/trace/generator.h"

namespace {

using namespace ow;

constexpr Nanos kSubWindow = 50 * kMilli;

class MeterProgram : public SwitchProgram {
 public:
  MeterProgram(bool use_embedded, Nanos clock_skew)
      : use_embedded_(use_embedded), skew_(clock_skew) {}

  void Process(Packet& p, Nanos now, PacketSource, PipelineActions&) override {
    SubWindowNum sw;
    if (use_embedded_) {
      if (!p.ow.present) {  // first hop stamps; later hops follow
        p.ow.present = true;
        p.ow.subwindow_num = SubWindowNum((now + skew_) / kSubWindow);
      }
      sw = p.ow.subwindow_num;
    } else {
      sw = SubWindowNum((now + skew_) / kSubWindow);
    }
    auto [it, ins] = meters_.try_emplace(sw, 8192);
    it->second.Insert({p.Key(FlowKeyKind::kFiveTuple), p.seq});
  }

  std::map<SubWindowNum, LossRadar> meters_;

 private:
  bool use_embedded_;
  Nanos skew_;
};

struct Outcome {
  std::size_t reported = 0;
  std::size_t actual = 0;
  std::size_t true_hits = 0;
  double Precision() const {
    return reported ? double(true_hits) / double(reported) : 1.0;
  }
  double Recall() const {
    return actual ? double(true_hits) / double(actual) : 1.0;
  }
};

Outcome RunScenario(bool consistent, Nanos deviation, std::uint64_t seed) {
  TraceConfig tc;
  tc.seed = seed;
  tc.duration = kSecond;
  tc.packets_per_sec = 50'000;
  tc.num_flows = 5'000;
  TraceGenerator gen(tc);
  Trace trace = gen.GenerateBackground();

  Network net;
  Switch* up = net.AddSwitch();
  Switch* down = net.AddSwitch();
  // Split the deviation across the two local clocks.
  auto prog_up = std::make_shared<MeterProgram>(consistent, -deviation / 2);
  auto prog_down = std::make_shared<MeterProgram>(consistent, deviation / 2);
  up->SetProgram(prog_up);
  down->SetProgram(prog_down);

  // Custom link delivery so we know exactly which packets arrived. Keyed by
  // the canonical FlowKey encoding — NOT the raw FiveTuple bytes, whose
  // padding is indeterminate and would poison the hash.
  std::set<std::pair<std::uint64_t, std::uint32_t>> delivered;
  auto id_of = [](const Packet& p) {
    return std::make_pair(p.Key(FlowKeyKind::kFiveTuple).Hash(0x1D0Full),
                          p.seq);
  };
  Link* link = net.ConnectToSink(
      up, {.latency = 20 * kMicro, .jitter = 10 * kMicro, .loss_rate = 0.001},
      [&](Packet p, Nanos t) {
        delivered.insert(id_of(p));
        down->EnqueueFromWire(std::move(p), t);
      },
      seed * 3 + 1);

  up->FeedTrace(trace.packets);
  net.RunUntilQuiescent(10 * kSecond);

  Outcome out;
  out.actual = link->dropped();
  for (auto& [sw, meter] : prog_up->meters_) {
    LossRadar diff = meter;
    auto it = prog_down->meters_.find(sw);
    if (it != prog_down->meters_.end()) diff.Subtract(it->second);
    bool clean = false;
    for (const PacketId& id : diff.Decode(clean)) {
      ++out.reported;
      // A decoded id is a real loss only if the packet never reached the
      // downstream switch; otherwise it was binned into a different
      // sub-window there (a phantom). The IBF preserved the canonical
      // FlowKey, so the delivery id recomputes directly from it.
      const bool arrived =
          delivered.contains({id.key.Hash(0x1D0Full), id.seq});
      if (!arrived) ++out.true_hits;
    }
  }
  return out;
}

}  // namespace

int main() {
  std::printf("Exp#9: consistency model vs PTP clock deviation "
              "(LossRadar on two switches)\n\n");
  std::printf("%14s %12s %10s %10s %10s %10s\n", "deviation(us)", "mechanism",
              "reported", "actual", "precision", "recall");
  const Outcome ow_out = RunScenario(true, 0, 99);
  std::printf("%14s %12s %10zu %10zu %10.3f %10.3f\n", "-", "OmniWindow",
              ow_out.reported, ow_out.actual, ow_out.Precision(),
              ow_out.Recall());
  for (const Nanos dev : {2 * kMicro, 8 * kMicro, 32 * kMicro, 128 * kMicro,
                          512 * kMicro}) {
    const Outcome o = RunScenario(false, dev, 99);
    std::printf("%14lld %12s %10zu %10zu %10.3f %10.3f\n",
                (long long)(dev / kMicro), "PTP-local", o.reported, o.actual,
                o.Precision(), o.Recall());
  }
  std::printf("\n(OmniWindow stays at precision 1.0; local clocks degrade "
              "as deviation grows and boundary packets split.)\n");

  // Where do such deviations come from? Residual offsets of a modelled PTP
  // loop under increasing queueing load (§2 C2: "hundreds of nanoseconds
  // to hundreds of microseconds").
  std::printf("\nPTP residual-offset model (mean |offset| between syncs):\n");
  for (const Nanos jitter :
       {1 * kMicro, 10 * kMicro, 50 * kMicro, 200 * kMicro}) {
    PtpConfig cfg;
    cfg.queue_jitter = jitter;
    cfg.load_asymmetry = 0.7;
    PtpSync ptp(cfg, 7);
    const auto residuals = ptp.ResidualOffsets(2'000);
    double sum = 0;
    for (const Nanos r : residuals) sum += double(r);
    std::printf("  queue jitter %4lld us -> mean residual %8.1f us\n",
                (long long)(jitter / kMicro),
                sum / double(residuals.size()) / 1e3);
  }
  return 0;
}
