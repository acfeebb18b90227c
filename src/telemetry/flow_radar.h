// FlowRadar (Li et al., NSDI 2016) under OmniWindow's state-migration path.
//
// FlowRadar's encoded flowset cannot answer per-flow queries in the data
// plane — flows are only recoverable by DECODING the whole structure, which
// §8 of the OmniWindow paper cites as the canonical no-AFR integration:
// migrate the raw state per sub-window, let the controller construct the
// AFRs (decode) and merge them.
//
// Data-plane structure: a flow filter (Bloom) plus `k` counting-table
// groups. Each group holds, per cell, {FlowXOR, FlowCount, PacketCount}.
// A new flow is XOR-folded into one cell of every group; every packet
// increments the PacketCount of its k cells. Decoding peels pure cells
// (FlowCount == 1) to recover the exact flow set and per-flow packet
// counts while the load stays below ~1.2 flows/cell.
//
// Each migrated slice is one cell: attrs = {flowxor_lo, flowxor_hi,
// flow_count, packet_count}; the controller-side transform decodes a
// sub-window's cells into per-flow frequency AFRs.
#pragma once

#include <memory>
#include <vector>

#include "src/core/adapter.h"
#include "src/core/state_layout.h"
#include "src/sketch/bloom.h"

namespace ow {

class FlowRadarApp final : public TelemetryAppAdapter {
 public:
  /// `k` counting-table groups of `cells_per_group` cells per region.
  FlowRadarApp(std::size_t k, std::size_t cells_per_group,
               FlowKeyKind key_kind = FlowKeyKind::kFiveTuple,
               std::uint64_t seed = 0xF10083Da8ull);

  std::string name() const override { return "flow_radar"; }
  FlowKeyKind key_kind() const override { return key_kind_; }
  /// Post-decode records are per-flow packet counts.
  MergeKind merge_kind() const override { return MergeKind::kFrequency; }
  bool SupportsAfr() const override { return false; }

  void Update(const Packet& p, int region) override;
  FlowRecord MigrateSlice(int region, std::size_t index,
                          SubWindowNum subwindow) const override;
  void ResetSlice(int region, std::size_t index) override;
  std::size_t NumResetSlices() const override {
    return groups_ * cells_;
  }
  std::vector<RegisterArray*> Registers() override;
  void ChargeResources(ResourceLedger& ledger) const override;

  /// Controller-side decode of one sub-window's migrated cell records into
  /// per-flow AFRs (packet counts). `clean` reports full decode (false
  /// when the structure was overloaded and residue remains).
  RecordVec Decode(const RecordVec& cells, bool& clean) const;

  /// Decode() bound to this app, stamping the cells' sub-window on every
  /// decoded flow.
  SubWindowTransform SubWindowDecoder() const override;

  std::size_t groups() const noexcept { return groups_; }
  std::size_t cells_per_group() const noexcept { return cells_; }

 private:
  struct CellRef {
    RegionedArray xor_lo;
    RegionedArray xor_hi;
    RegionedArray flow_count;
    RegionedArray packet_count;
    CellRef(const std::string& base, std::size_t cells)
        : xor_lo(base + "_xlo", cells, 8),
          xor_hi(base + "_xhi", cells, 8),
          flow_count(base + "_fc", cells, 4),
          packet_count(base + "_pc", cells, 8) {}
  };

  static void PackKey(const FlowKey& key, std::uint64_t& lo,
                      std::uint64_t& hi);
  static FlowKey UnpackKey(std::uint64_t lo, std::uint64_t hi);
  std::size_t CellOf(std::size_t group, const FlowKey& key) const;

  std::size_t groups_;
  std::size_t cells_;
  FlowKeyKind key_kind_;
  HashFamily hashes_;
  std::array<std::unique_ptr<BloomFilter>, 2> filters_;  // per region
  std::vector<std::unique_ptr<CellRef>> tables_;         // one per group
};

}  // namespace ow
