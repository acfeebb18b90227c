// Ablation (§5): out-of-order tolerance — preserved sub-windows vs latency
// spikes.
//
// A two-switch line where the inner link suffers latency spikes that push
// packets past sub-window boundaries. The downstream switch follows the
// embedded (Lamport) sub-window numbers; packets older than the preserve
// horizon cannot be measured into their (recycled) region and escalate to
// the controller as latency-spike copies. The sweep shows the §5 trade-off:
// a larger preserve horizon absorbs more delay in-band, and the
// spike-escalation path catches the rest so frequency results stay exact.
#include <cstdio>
#include <memory>

#include "src/core/network_runner.h"
#include "src/telemetry/query_builder.h"
#include "src/trace/generator.h"

namespace {

using namespace ow;

struct Outcome {
  std::uint64_t measured = 0;
  std::uint64_t stale = 0;
  std::uint64_t spikes_folded = 0;
  double count_agreement = 0;  // downstream/upstream total counts
};

Outcome RunSweep(double spike_rate, Nanos spike_extra,
                 std::uint32_t preserve) {
  TraceConfig tc;
  tc.seed = 31;
  tc.duration = 800 * kMilli;
  tc.packets_per_sec = 20'000;
  tc.num_flows = 2'000;
  TraceGenerator gen(tc);
  const Trace trace = gen.GenerateBackground();

  const QueryDef def = QueryBuilder("count_all")
                           .KeyBy(FlowKeyKind::kDstIp)
                           .Count()
                           .Threshold(1)
                           .Build();

  NetworkRunConfig cfg;
  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = 50 * kMilli;
  spec.subwindow_size = 50 * kMilli;
  spec.slide = spec.window_size;
  cfg.base = RunConfig::Make(spec);
  cfg.base.data_plane.preserve_subwindows = preserve;
  cfg.topology.line_switches = 2;
  cfg.link = {.latency = 20 * kMicro, .jitter = 10 * kMicro,
              .spike_rate = spike_rate, .spike_extra = spike_extra};

  std::vector<std::uint64_t> totals(2, 0);
  std::size_t which = 0;
  const NetworkRunResult result = RunOmniWindowFabric(
      trace,
      [&](std::size_t) {
        return std::make_shared<QueryAdapter>(def, 1 << 14);
      },
      cfg, {});
  (void)which;

  // Total measured packets per switch (from data-plane stats).
  Outcome out;
  out.measured = result.per_switch[1].data_plane.packets_measured;
  out.stale = result.per_switch[1].data_plane.stale_packets;
  out.spikes_folded = result.per_switch[1].controller.spike_packets;
  const double up =
      double(result.per_switch[0].data_plane.packets_measured);
  const double down = double(out.measured + out.spikes_folded);
  out.count_agreement = up > 0 ? down / up : 1.0;
  (void)totals;
  return out;
}

}  // namespace

int main() {
  std::printf("Ablation (§5): preserve horizon vs latency spikes "
              "(two-switch line, 50 ms sub-windows)\n\n");
  std::printf("%10s %12s %9s %10s %8s %14s %11s\n", "spike", "extra(ms)",
              "preserve", "measured", "stale", "spike-folded",
              "agreement");
  for (const double rate : {0.0, 0.01, 0.05}) {
    for (const Nanos extra : {60 * kMilli, 120 * kMilli}) {
      for (const std::uint32_t preserve : {0u, 1u, 2u}) {
        const Outcome o = RunSweep(rate, extra, preserve);
        std::printf("%10.2f %12lld %9u %10llu %8llu %14llu %10.4f\n", rate,
                    (long long)(extra / kMilli), preserve,
                    (unsigned long long)o.measured,
                    (unsigned long long)o.stale,
                    (unsigned long long)o.spikes_folded, o.count_agreement);
      }
      if (rate == 0.0) break;  // extra delay is irrelevant with no spikes
    }
    std::fflush(stdout);
  }
  std::printf("\n(stale = packets past the preserve horizon; they escalate "
              "to the controller and are folded back into pending "
              "sub-windows, so the downstream/upstream agreement stays at "
              "1.0 — no packet is silently lost.)\n");
  return 0;
}
