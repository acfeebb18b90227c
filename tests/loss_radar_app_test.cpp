// End-to-end LossRadar-as-app: IBF cells migrate per sub-window, XOR-sum
// merge assembles window IBFs, and cross-switch subtraction decodes the
// exact lost packets.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "src/controller/merge.h"
#include "src/core/network_runner.h"
#include "src/telemetry/loss_radar_app.h"
#include "src/trace/generator.h"

namespace ow {
namespace {

TEST(XorSumMerge, MergedCellsEqualUnionStream) {
  // Insert disjoint packet sets into two LossRadar instances; XOR-sum of
  // their cells must equal one instance that saw everything.
  LossRadarApp app(512);
  Packet p;
  for (std::uint32_t f = 0; f < 100; ++f) {
    p.ft = {f + 1, 9, 10, 80, 17};
    p.seq = 0;
    app.Update(p, f % 2);  // alternate regions = "two sub-windows"
  }
  // Merge both regions' cells through the controller merge path.
  KeyValueTable table(2048);
  for (int region = 0; region < 2; ++region) {
    for (std::size_t i = 0; i < app.NumResetSlices(); ++i) {
      const FlowRecord rec = app.MigrateSlice(region, i, SubWindowNum(region));
      bool created = false;
      KvSlot& slot = table.FindOrInsert(rec.key, created);
      ApplyMerge(MergeKind::kXorSum, slot, created, rec);
    }
  }
  LossRadar merged = app.FromTable(table);
  // Reference: a single meter fed everything.
  LossRadar reference(app.cells(), app.seed());
  for (std::uint32_t f = 0; f < 100; ++f) {
    p.ft = {f + 1, 9, 10, 80, 17};
    reference.Insert({p.Key(FlowKeyKind::kFiveTuple), 0});
  }
  // merged - reference must decode to nothing, cleanly.
  merged.Subtract(reference);
  bool clean = false;
  EXPECT_TRUE(merged.Decode(clean).empty());
  EXPECT_TRUE(clean);
}

TEST(LossRadarApp, TwoSwitchWindowDiffDecodesDrops) {
  TraceConfig tc;
  tc.seed = 83;
  tc.duration = 300 * kMilli;
  tc.packets_per_sec = 10'000;
  tc.num_flows = 1'000;
  TraceGenerator gen(tc);
  const Trace trace = gen.GenerateBackground();

  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = 100 * kMilli;
  spec.subwindow_size = 50 * kMilli;
  NetworkRunConfig cfg{
      .base = RunConfig::Make(spec),
      .link = {.latency = 15 * kMicro, .jitter = 5 * kMicro,
               .loss_rate = 0.003},
      .link_seed = 991};
  cfg.base.controller.kv_capacity = 1 << 16;

  std::vector<std::shared_ptr<LossRadarApp>> apps;
  std::map<SubWindowNum, LossRadar> up_windows, down_windows;
  cfg.window_observer = [&](std::size_t i, const WindowResult& w) {
    (i == 0 ? up_windows : down_windows)
        .emplace(w.span.first, apps[i]->FromTable(*w.table));
  };
  const NetworkRunResult result = RunOmniWindowFabric(
      trace,
      [&](std::size_t) {
        apps.push_back(std::make_shared<LossRadarApp>(8192));
        return apps.back();
      },
      std::move(cfg));
  const std::uint64_t dropped = result.links[0].dropped;

  ASSERT_GE(up_windows.size(), 2u);
  std::size_t decoded_losses = 0;
  bool all_clean = true;
  for (auto& [span, up_ibf] : up_windows) {
    auto it = down_windows.find(span);
    if (it == down_windows.end()) continue;
    LossRadar diff = up_ibf;
    diff.Subtract(it->second);
    bool clean = false;
    decoded_losses += diff.Decode(clean).size();
    all_clean = all_clean && clean;
  }
  EXPECT_TRUE(all_clean);
  EXPECT_GT(dropped, 5u);
  // The sentinel traverses the lossy link too; tolerate off-by-a-few from
  // the final partial window not being emitted by both controllers.
  EXPECT_NEAR(double(decoded_losses), double(dropped),
              double(dropped) * 0.15 + 3);
}

}  // namespace
}  // namespace ow
