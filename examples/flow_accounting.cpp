// Per-flow accounting with FlowRadar — the §8 no-AFR integration.
//
// FlowRadar's encoded flowset cannot be queried per flow in the data plane;
// OmniWindow migrates its raw cells to the controller every sub-window,
// where they are DECODED into exact per-flow packet counts and then merged
// into windows like any other AFRs. This example runs it end to end and
// compares the decoded window counts against ground truth.
#include <cstdio>

#include "src/core/network_runner.h"
#include "src/telemetry/flow_radar.h"
#include "src/trace/generator.h"

int main() {
  using namespace ow;

  TraceConfig tc;
  tc.seed = 11;
  tc.duration = kSecond;
  tc.packets_per_sec = 15'000;
  tc.num_flows = 1'200;  // within FlowRadar's decodable load
  TraceGenerator gen(tc);
  const Trace trace = gen.GenerateBackground();
  std::printf("trace: %zu packets, %zu flows\n", trace.packets.size(),
              tc.num_flows);

  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = 200 * kMilli;
  spec.subwindow_size = 100 * kMilli;
  // The session hands each controller the app's SubWindowDecoder(), which
  // decodes every sub-window's cells before the merge.
  const NetworkRunResult result = RunOmniWindowFabric(
      trace,
      [](std::size_t) {
        return std::make_shared<FlowRadarApp>(/*k=*/3, /*cells=*/4'096);
      },
      {.base = RunConfig::Make(spec),
       .topology = {.line_switches = 1},
       .capture_counts = true});
  const SwitchRun& run = result.per_switch[0];

  std::printf("\n%8s %10s %12s %12s\n", "window", "flows", "exact-match%",
              "pkts-total");
  for (const EmittedWindow& w : run.windows) {
    const SubWindowSpan span = w.span;
    const FlowCounts& counts = run.counts.at(span.first);
    // Ground truth for the same bounds.
    FlowCounts truth;
    const Nanos start = Nanos(span.first) * spec.subwindow_size;
    const Nanos end = Nanos(span.last + 1) * spec.subwindow_size;
    for (const Packet& p : trace.packets) {
      if (p.ts < start || p.ts >= end) continue;
      ++truth[p.Key(FlowKeyKind::kFiveTuple)];
    }
    std::size_t exact = 0;
    std::uint64_t total = 0;
    for (const auto& [key, v] : truth) {
      auto it = counts.find(key);
      if (it != counts.end() && it->second == v) ++exact;
      total += v;
    }
    std::printf("%3u..%-3u %10zu %11.1f%% %12llu\n", span.first, span.last,
                counts.size(),
                truth.empty() ? 100.0 : 100.0 * double(exact) / truth.size(),
                (unsigned long long)total);
  }
  return 0;
}
