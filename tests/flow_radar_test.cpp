// Tests for FlowRadar under OmniWindow's state-migration + controller
// decode (§8): exact flow recovery, overload detection, and the full
// pipeline with the app's sub-window decoder.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/core/network_runner.h"
#include "src/telemetry/flow_radar.h"

namespace ow {
namespace {

Packet Pkt(std::uint32_t flow, Nanos ts) {
  Packet p;
  p.ft = {flow, flow ^ 0xFFFF, std::uint16_t(flow % 60'000 + 1), 80, 17};
  p.ts = ts;
  return p;
}

TEST(FlowRadar, DecodeRecoversExactFlowsAndCounts) {
  FlowRadarApp app(3, 1024);
  // 300 flows, i-th flow sends i%7+1 packets, all region 0.
  std::map<std::uint32_t, std::uint64_t> truth;
  for (std::uint32_t f = 1; f <= 300; ++f) {
    const std::uint64_t n = f % 7 + 1;
    truth[f] = n;
    for (std::uint64_t i = 0; i < n; ++i) {
      for (RegisterArray* r : app.Registers()) r->BeginPass();
      app.Update(Pkt(f, 0), 0);
    }
  }
  // Migrate all slices, then decode.
  RecordVec cells;
  for (std::size_t s = 0; s < app.NumResetSlices(); ++s) {
    cells.push_back(app.MigrateSlice(0, s, 0));
  }
  bool clean = false;
  const auto flows = app.Decode(cells, clean);
  EXPECT_TRUE(clean);
  ASSERT_EQ(flows.size(), truth.size());
  for (const FlowRecord& rec : flows) {
    const std::uint32_t f = rec.key.src_ip();
    ASSERT_TRUE(truth.contains(f));
    EXPECT_EQ(rec.attrs[0], truth[f]) << "flow " << f;
  }
}

TEST(FlowRadar, OverloadReportedAsUnclean) {
  FlowRadarApp app(3, 64);  // tiny: 2000 flows cannot decode
  for (std::uint32_t f = 1; f <= 2'000; ++f) {
    for (RegisterArray* r : app.Registers()) r->BeginPass();
    app.Update(Pkt(f, 0), 0);
  }
  RecordVec cells;
  for (std::size_t s = 0; s < app.NumResetSlices(); ++s) {
    cells.push_back(app.MigrateSlice(0, s, 0));
  }
  bool clean = true;
  app.Decode(cells, clean);
  EXPECT_FALSE(clean);
}

TEST(FlowRadar, RegionsIndependentAndResettable) {
  FlowRadarApp app(3, 512);
  for (RegisterArray* r : app.Registers()) r->BeginPass();
  app.Update(Pkt(1, 0), 0);
  for (RegisterArray* r : app.Registers()) r->BeginPass();
  app.Update(Pkt(2, 0), 1);

  auto decode_region = [&](int region) {
    RecordVec cells;
    for (std::size_t s = 0; s < app.NumResetSlices(); ++s) {
      cells.push_back(app.MigrateSlice(region, s, 0));
    }
    bool clean = false;
    return app.Decode(cells, clean);
  };
  auto r0 = decode_region(0);
  auto r1 = decode_region(1);
  ASSERT_EQ(r0.size(), 1u);
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_EQ(r0[0].key.src_ip(), 1u);
  EXPECT_EQ(r1[0].key.src_ip(), 2u);

  for (std::size_t s = 0; s < app.NumResetSlices(); ++s) app.ResetSlice(0, s);
  EXPECT_TRUE(decode_region(0).empty());
  EXPECT_EQ(decode_region(1).size(), 1u);  // untouched
}

TEST(FlowRadar, EndToEndWindowCountsViaTransform) {
  // Full pipeline: FlowRadar state migrates per sub-window, the session
  // hands the app's SubWindowDecoder() to the controller, which decodes it
  // into per-flow AFRs, frequency-merged into 100 ms windows of two 50 ms
  // sub-windows.
  Trace trace;
  // Flow 42 sends 20 packets per sub-window across 4 sub-windows; 100
  // background flows send 2 each.
  for (int sub = 0; sub < 4; ++sub) {
    for (int i = 0; i < 20; ++i) {
      trace.packets.push_back(
          Pkt(42, Nanos(sub) * 50 * kMilli + Nanos(i) * kMilli));
    }
    for (std::uint32_t f = 100; f < 200; ++f) {
      for (int i = 0; i < 2; ++i) {
        trace.packets.push_back(
            Pkt(f, Nanos(sub) * 50 * kMilli + Nanos(i) * kMilli + kMicro));
      }
    }
  }
  trace.SortByTime();

  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = 100 * kMilli;
  spec.subwindow_size = 50 * kMilli;
  NetworkRunConfig cfg{.base = RunConfig::Make(spec),
                       .topology = {.line_switches = 1}};

  std::vector<std::map<std::uint32_t, std::uint64_t>> windows;
  cfg.window_observer = [&](std::size_t, const WindowResult& w) {
    EXPECT_FALSE(w.partial);
    std::map<std::uint32_t, std::uint64_t> counts;
    w.table->ForEach([&](const KvSlot& slot) {
      counts[slot.key.src_ip()] = slot.attrs[0];
    });
    windows.push_back(std::move(counts));
  };
  RunOmniWindowFabric(
      trace,
      [](std::size_t) { return std::make_shared<FlowRadarApp>(3, 1024); },
      std::move(cfg));

  ASSERT_GE(windows.size(), 2u);
  // Each 100 ms window = two sub-windows: flow 42 has 40 packets, the
  // background flows 4 each — decoded per sub-window and summed exactly.
  for (std::size_t w = 0; w < 2; ++w) {
    ASSERT_TRUE(windows[w].contains(42)) << "window " << w;
    EXPECT_EQ(windows[w][42], 40u);
    ASSERT_TRUE(windows[w].contains(150));
    EXPECT_EQ(windows[w][150], 4u);
    EXPECT_EQ(windows[w].size(), 101u);
  }
}

}  // namespace
}  // namespace ow
