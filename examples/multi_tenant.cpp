// Multiple telemetry apps on ONE switch pipeline.
//
// Exp#5 shows OmniWindow + one query using under half of a Tofino-class
// pipeline; this example deploys THREE telemetry apps side by side — a
// SYN-flood counter, a DDoS distinct-source query and an MV-Sketch heavy
// hitter — each with its own controller and merged windows, all fed by the
// same packets in a single pipeline pass.
#include <cstdio>
#include <memory>

#include "src/core/multi_app.h"
#include "src/core/runner.h"
#include "src/sketch/mv_sketch.h"
#include "src/telemetry/query_builder.h"
#include "src/telemetry/sketch_apps.h"
#include "src/trace/generator.h"

int main() {
  using namespace ow;

  TraceConfig tc;
  tc.seed = 123;
  tc.duration = 1'500 * kMilli;
  tc.packets_per_sec = 40'000;
  tc.num_flows = 5'000;
  TraceGenerator gen(tc);
  Trace trace = gen.GenerateBackground();
  gen.InjectSynFlood(trace, 200 * kMilli, 600 * kMilli, 500);
  gen.InjectDdos(trace, 400 * kMilli, 600 * kMilli, 400);
  gen.InjectBoundaryBurst(trace, 500 * kMilli, 50 * kMilli, 600);
  trace.SortByTime();
  std::printf("trace: %zu packets, 3 anomalies injected\n\n",
              trace.packets.size());

  auto syn_app = std::make_shared<QueryAdapter>(
      QueryBuilder("syn_flood")
          .Filter(predicates::Syn)
          .KeyBy(FlowKeyKind::kDstIp)
          .Count()
          .Threshold(150)
          .Build(),
      1 << 13);
  auto ddos_app = std::make_shared<QueryAdapter>(
      QueryBuilder("ddos")
          .KeyBy(FlowKeyKind::kDstIp)
          .Distinct(elements::SrcIp)
          .Threshold(150)
          .Build(),
      1 << 13);
  auto hh_app = std::make_shared<FrequencySketchApp>(
      "mv_heavy_hitter", FlowKeyKind::kFiveTuple, FrequencyValue::kPackets,
      [] { return std::make_unique<MvSketch>(4, 4096); });

  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = 500 * kMilli;
  spec.subwindow_size = 100 * kMilli;

  Switch sw(0);
  RunConfig base = RunConfig::Make(spec);
  MultiAppHarness harness(sw, base.data_plane,
                          {{syn_app, base.controller},
                           {ddos_app, base.controller},
                           {hh_app, base.controller}});

  std::size_t detections[3] = {0, 0, 0};
  harness.controller(0).SetWindowHandler([&](const WindowResult& w) {
    detections[0] += syn_app->Detect(*w.table).size();
  });
  harness.controller(1).SetWindowHandler([&](const WindowResult& w) {
    detections[1] += ddos_app->Detect(*w.table).size();
  });
  harness.controller(2).SetWindowHandler([&](const WindowResult& w) {
    std::size_t heavies = 0;
    w.table->ForEach([&](const KvSlot& slot) {
      if (slot.attrs[0] >= 400) ++heavies;
    });
    detections[2] += heavies;
  });

  sw.FeedTrace(trace.packets);
  Packet sentinel;
  sentinel.ts = trace.Duration() + 100 * kMilli;
  sw.EnqueueFromWire(sentinel, sentinel.ts);
  const Nanos horizon = trace.Duration() + 10 * kSecond;
  sw.RunBatch(horizon);
  while (!harness.FlushAll(horizon)) sw.RunBatch(horizon);

  std::printf("app 0 (syn flood):    %zu window-detections\n", detections[0]);
  std::printf("app 1 (ddos):         %zu window-detections\n", detections[1]);
  std::printf("app 2 (heavy hitter): %zu window-detections\n", detections[2]);

  // The combined footprint still fits the pipeline.
  ResourceLedger ledger;
  harness.program().ChargeResources(ledger);
  const auto total = ledger.Total();
  std::printf("\ncombined pipeline usage: %zu stages, %zu KB SRAM, %d SALUs "
              "(budget: 12 stages, %d SALUs)\n",
              total.stages.size(), total.sram_bytes / 1024, total.salus,
              ResourceBudget{}.salus_per_stage * ResourceBudget{}.stages);
  std::printf("fits: %s\n", ledger.Fits(ResourceBudget{}) ? "yes" : "NO");
  return 0;
}
