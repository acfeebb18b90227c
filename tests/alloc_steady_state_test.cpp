// Steady-state zero-allocation assertions (OW_ALLOC_TRACE builds).
//
// The arena/pool layer exists so that, after a warm-up pass has grown every
// buffer to its working-set size, the windowed hot paths never touch the
// global heap again. These tests pin that property with the operator
// new/delete counting hook: they run one warm-up round, then re-run the
// same region under an alloc_trace::Scope and require the allocation count
// inside the region to be exactly zero. In builds without OW_ALLOC_TRACE
// the hook is compiled out, so the tests skip (the bench JSONs and the CI
// alloc-gate job run the traced configuration).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/alloc_trace.h"
#include "src/controller/merge.h"
#include "src/core/data_plane.h"
#include "src/sketch/mv_sketch.h"
#include "src/telemetry/query_builder.h"
#include "src/telemetry/sketch_apps.h"
#include "src/trace/generator.h"

namespace ow {
namespace {

FlowKey Key(std::uint32_t v) {
  return FlowKey(FlowKeyKind::kFiveTuple, FiveTuple{v, ~v, 7, 9, 17});
}

/// Synthetic AFR batches: `flows` frequency records per sub-window across
/// `subwindows` sub-windows — the batch shape the controller feeds
/// MergeBatch once per collection.
std::vector<std::vector<FlowRecord>> MakeBatches(std::uint32_t flows,
                                                 std::uint32_t subwindows) {
  std::vector<std::vector<FlowRecord>> batches;
  for (std::uint32_t sw = 0; sw < subwindows; ++sw) {
    std::vector<FlowRecord> batch;
    batch.reserve(flows);
    for (std::uint32_t i = 0; i < flows; ++i) {
      FlowRecord rec;
      rec.key = Key(i * 7919u + sw);
      rec.attrs = {i + 1, (i + 1) * 64ull, 0, 0};
      rec.num_attrs = 2;
      rec.subwindow = SubWindowNum(sw);
      rec.seq_id = i;
      batch.push_back(rec);
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

/// Merge region: everything MergeBatch does (pass-1 scratch, slot growth)
/// must recycle through the pool after one full warm-up pass.
TEST(AllocSteadyState, MergeBatchHeapSilent) {
  if (!alloc_trace::Enabled()) {
    GTEST_SKIP() << "OW_ALLOC_TRACE not compiled in";
  }
  const auto batches = MakeBatches(/*flows=*/4000, /*subwindows=*/6);
  MergeScratch scratch;
  {  // Warm-up: grows the scratch, pool bins, and table slot storage.
    KeyValueTable table(1 << 14);
    for (const auto& b : batches) {
      MergeBatch(MergeKind::kFrequency, b, table, scratch);
    }
  }
  // Steady state: a fresh table of the same shape plus the same batches must
  // be served entirely from recycled pool blocks.
  KeyValueTable table(1 << 14);
  const alloc_trace::Scope scope;
  for (const auto& b : batches) {
    MergeBatch(MergeKind::kFrequency, b, table, scratch);
  }
  EXPECT_EQ(scope.news(), 0u)
      << "MergeBatch allocated on the heap after warm-up";
}

Trace& SteadyTrace() {
  static Trace trace = [] {
    TraceConfig cfg;
    cfg.seed = 91;
    cfg.duration = 300 * kMilli;
    cfg.packets_per_sec = 50'000;
    cfg.num_flows = 3'000;
    TraceGenerator gen(cfg);
    return gen.GenerateBackground();
  }();
  return trace;
}

/// Switch drain region (the perf_pipeline timed region): preload the trace,
/// then RunBatch across multiple sub-window terminations. A prior throwaway
/// round warms the pool; the measured round must be heap-silent.
void ExpectDrainHeapSilent(const std::function<AdapterPtr()>& make_app) {
  if (!alloc_trace::Enabled()) {
    GTEST_SKIP() << "OW_ALLOC_TRACE not compiled in";
  }
  const Trace& trace = SteadyTrace();
  std::uint64_t news = 0;
  for (int round = 0; round < 2; ++round) {  // round 0 warms up
    OmniWindowConfig cfg;
    cfg.signal.kind = SignalKind::kTimeout;
    cfg.signal.subwindow_size = 50 * kMilli;
    Switch sw(0);
    auto program = std::make_shared<OmniWindowProgram>(cfg, make_app());
    sw.SetProgram(program);
    sw.SetControllerHandler([](const Packet&, Nanos) {});
    for (const Packet& p : trace.packets) sw.EnqueueFromWire(p, p.ts);
    const alloc_trace::Scope scope;
    sw.RunBatch(trace.Duration() + kSecond);
    if (round == 1) news = scope.news();
    ASSERT_GT(program->stats().packets_measured, 0u);
  }
  EXPECT_EQ(news, 0u) << "switch drain allocated on the heap after warm-up";
}

TEST(AllocSteadyState, CountQueryDrainHeapSilent) {
  ExpectDrainHeapSilent([] {
    const QueryDef def = QueryBuilder("count")
                             .KeyBy(FlowKeyKind::kDstIp)
                             .Count()
                             .Threshold(100)
                             .Build();
    return std::make_shared<QueryAdapter>(def, 1 << 13);
  });
}

TEST(AllocSteadyState, MvSketchDrainHeapSilent) {
  ExpectDrainHeapSilent([] {
    return std::make_shared<FrequencySketchApp>(
        "mv", FlowKeyKind::kFiveTuple, FrequencyValue::kPackets,
        [] { return std::make_unique<MvSketch>(4, 2048); });
  });
}

}  // namespace
}  // namespace ow
