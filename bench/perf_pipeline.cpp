// Simulator performance: packet-processing throughput of the switch model.
//
// Not a paper experiment — this measures THIS repository's data-plane model
// so users can size their runs: packets/second through OmniWindowProgram
// with a Sonata-style count query, a distinct-signature query, an MV-Sketch
// app and FlowRadar. Results go to BENCH_pipeline.json (override with
// --out=<path>) in the same schema family as BENCH_merge.json; --min-time=N
// bounds the measured seconds per workload (CI smoke runs pass a small
// value). Timing covers RunBatch over the fed trace only — switch
// construction and FeedTrace are excluded, as in the historical
// google-benchmark version. The switch copies each trace packet when it
// dispatches it, so that copy is inside the timed region.
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/common/alloc_trace.h"
#include "src/core/data_plane.h"
#include "src/sketch/mv_sketch.h"
#include "src/telemetry/flow_radar.h"
#include "src/telemetry/query_builder.h"
#include "src/telemetry/sketch_apps.h"
#include "src/trace/generator.h"

namespace {

using namespace ow;
using namespace ow::bench;

Trace& TestTrace() {
  static Trace trace = [] {
    TraceConfig cfg;
    cfg.seed = 77;
    cfg.duration = 500 * kMilli;
    cfg.packets_per_sec = 100'000;
    cfg.num_flows = 10'000;
    TraceGenerator gen(cfg);
    return gen.GenerateBackground();
  }();
  return trace;
}

/// One timed round: build a fresh switch + program, feed it the trace, and
/// measure draining it. Returns elapsed nanoseconds of the drain only;
/// `allocs` (when tracing is compiled in) accumulates heap allocations
/// performed inside the timed region — the steady-state target is 0.
double TimedRound(const std::function<AdapterPtr()>& make_app,
                  std::uint64_t* allocs = nullptr) {
  const Trace& trace = TestTrace();
  OmniWindowConfig cfg;
  cfg.signal.kind = SignalKind::kTimeout;
  cfg.signal.subwindow_size = 100 * kMilli;
  Switch sw(0);
  auto program = std::make_shared<OmniWindowProgram>(cfg, make_app());
  sw.SetProgram(program);
  sw.SetControllerHandler([](const Packet&, Nanos) {});
  sw.FeedTrace(trace.packets);
  alloc_trace::Scope trace_scope;
  const auto t0 = std::chrono::steady_clock::now();
  sw.RunBatch(trace.Duration() + kSecond);
  const auto t1 = std::chrono::steady_clock::now();
  if (allocs) *allocs += trace_scope.news();
  // Keep the result alive so the drain cannot be optimized away.
  volatile std::uint64_t sink = program->stats().packets_measured;
  (void)sink;
  return double(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

BenchThroughputRow RunWorkload(const std::string& name, double min_time_sec,
                               const std::function<AdapterPtr()>& make_app) {
  TimedRound(make_app);  // warm-up (page-in, allocator steady state)
  double total_ns = 0;
  std::uint64_t allocs = 0;
  int rounds = 0;
  while (total_ns < min_time_sec * 1e9 || rounds < 2) {
    total_ns += TimedRound(make_app, &allocs);
    ++rounds;
  }
  BenchThroughputRow row;
  row.workload = name;
  row.items = TestTrace().packets.size();
  row.rounds = rounds;
  row.ns_per_item = total_ns / (double(rounds) * double(row.items));
  row.items_per_sec = 1e9 / row.ns_per_item;
  if (alloc_trace::Enabled()) {
    row.allocs_per_item = double(allocs) / (double(rounds) * double(row.items));
  }
  std::printf("  %-16s %8.1f ns/packet  %8.2f Mpkt/s  (%d rounds", name.c_str(),
              row.ns_per_item, row.items_per_sec / 1e6, rounds);
  if (alloc_trace::Enabled()) {
    std::printf(", %.4f allocs/packet", row.allocs_per_item);
  }
  std::printf(")\n");
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out = OutPathFromArgs(argc, argv, "BENCH_pipeline.json");
  const double min_time = MinTimeFromArgs(argc, argv, 2.0);
  const Trace& trace = TestTrace();
  std::printf("perf_pipeline: %zu packets, min-time %.2fs per workload\n",
              trace.packets.size(), min_time);

  std::vector<BenchThroughputRow> rows;
  rows.push_back(RunWorkload("count_query", min_time, [] {
    const QueryDef def = QueryBuilder("count")
                             .KeyBy(FlowKeyKind::kDstIp)
                             .Count()
                             .Threshold(100)
                             .Build();
    return std::make_shared<QueryAdapter>(def, 1 << 14);
  }));
  rows.push_back(RunWorkload("distinct_query", min_time, [] {
    const QueryDef def = QueryBuilder("distinct")
                             .KeyBy(FlowKeyKind::kDstIp)
                             .Distinct(elements::SrcIp)
                             .Threshold(100)
                             .Build();
    return std::make_shared<QueryAdapter>(def, 1 << 14);
  }));
  rows.push_back(RunWorkload("mv_sketch", min_time, [] {
    return std::make_shared<FrequencySketchApp>(
        "mv", FlowKeyKind::kFiveTuple, FrequencyValue::kPackets,
        [] { return std::make_unique<MvSketch>(4, 4096); });
  }));
  rows.push_back(RunWorkload("flow_radar", min_time, [] {
    return std::make_shared<FlowRadarApp>(3, 8192);
  }));

  char trace_desc[128];
  std::snprintf(trace_desc, sizeof(trace_desc),
                "{\"name\": \"GenerateBackground(77)\", \"packets\": %zu}",
                trace.packets.size());
  if (!WriteThroughputJson(out, "switch_pipeline", trace_desc, min_time,
                           "packet", rows)) {
    std::perror("perf_pipeline: fopen");
    return 1;
  }
  std::printf("  wrote %s\n", out.c_str());
  return 0;
}
