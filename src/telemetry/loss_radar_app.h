// LossRadar as an OmniWindow telemetry app (state migration, §8).
//
// Each switch runs a per-region LossRadar meter; the raw IBF cells migrate
// to the controller every sub-window and merge across sub-windows with the
// XOR-sum pattern (the merge of IBF cells over disjoint packet sets is the
// IBF of their union, so a W-sub-window window's table is exactly the IBF
// of the window's traffic). Loss detection then subtracts two switches'
// window tables and peels — the network-wide use case the consistency
// model exists for (§5, Exp#9).
#pragma once

#include <array>
#include <memory>

#include "src/controller/key_value_table.h"
#include "src/core/adapter.h"
#include "src/telemetry/loss_radar.h"

namespace ow {

class LossRadarApp final : public TelemetryAppAdapter {
 public:
  /// `cells` IBF cells per region. All meters that will be diffed must use
  /// the same cells and seed.
  explicit LossRadarApp(std::size_t cells, std::uint64_t seed = 0x10553ull);

  std::string name() const override { return "loss_radar"; }
  FlowKeyKind key_kind() const override { return FlowKeyKind::kFiveTuple; }
  MergeKind merge_kind() const override { return MergeKind::kXorSum; }
  bool SupportsAfr() const override { return false; }

  void Update(const Packet& p, int region) override;
  FlowRecord MigrateSlice(int region, std::size_t index,
                          SubWindowNum subwindow) const override;
  void ResetSlice(int region, std::size_t index) override;
  std::size_t NumResetSlices() const override { return cells_; }
  void ChargeResources(ResourceLedger& ledger) const override;

  /// Rebuild an IBF from a merged window table (cells keyed by SliceKey).
  LossRadar FromTable(TableView table) const;

  std::size_t cells() const noexcept { return cells_; }
  std::uint64_t seed() const noexcept { return seed_; }

 private:
  std::size_t cells_;
  std::uint64_t seed_;
  std::array<std::unique_ptr<LossRadar>, 2> meters_;  // per region
};

}  // namespace ow
