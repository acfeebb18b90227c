// Cardinality monitoring apps over the state-migration path (§8).
//
// Linear Counting and HyperLogLog answer a STREAM-wide question (how many
// distinct flows), so there is no per-flow query to derive AFRs from.
// These adapters instead migrate their raw state to the controller slice by
// slice: LC bitmap words merge across sub-windows by OR (kDistinction),
// HLL registers by max (kMax) — both unions are exact, so the merged window
// estimate equals a single instance that saw the whole window.
//
// State lives in shared-region register arrays (RegionedArray), so the
// one-SALU-access-per-pass constraint applies to updates as on hardware.
#pragma once

#include <memory>

#include "src/controller/key_value_table.h"
#include "src/core/adapter.h"
#include "src/core/state_layout.h"

namespace ow {

/// Synthetic per-slice key used by migrated state records.
FlowKey SliceKey(std::uint32_t index);

/// Linear Counting over a region-shared bitmap. One slice = 256 bits
/// (four 64-bit words in the record attrs).
class LinearCountingApp final : public TelemetryAppAdapter {
 public:
  /// `bits` per region, rounded up to a multiple of 256.
  explicit LinearCountingApp(std::size_t bits,
                             FlowKeyKind counted = FlowKeyKind::kFiveTuple);

  std::string name() const override { return "lc_cardinality"; }
  FlowKeyKind key_kind() const override { return counted_; }
  MergeKind merge_kind() const override { return MergeKind::kDistinction; }
  bool SupportsAfr() const override { return false; }

  void Update(const Packet& p, int region) override;
  FlowRecord MigrateSlice(int region, std::size_t index,
                          SubWindowNum subwindow) const override;
  void ResetSlice(int region, std::size_t index) override;
  std::size_t NumResetSlices() const override { return bits_ / 256; }
  std::vector<RegisterArray*> Registers() override {
    return {&words_.register_array()};
  }
  void ChargeResources(ResourceLedger& ledger) const override;

  /// Controller-side estimate from a table of merged slices.
  static double EstimateFromTable(TableView table,
                                  std::size_t bits);

  std::size_t bits() const noexcept { return bits_; }

 private:
  std::size_t bits_;
  FlowKeyKind counted_;
  RegionedArray words_;  // bits_/64 words per region
};

/// HyperLogLog over region-shared registers. One slice = four registers
/// (one per record attr, so the kMax merge is register-wise max).
class HyperLogLogApp final : public TelemetryAppAdapter {
 public:
  /// m = 2^precision registers per region (4 <= precision <= 16).
  explicit HyperLogLogApp(unsigned precision,
                          FlowKeyKind counted = FlowKeyKind::kFiveTuple);

  std::string name() const override { return "hll_cardinality"; }
  FlowKeyKind key_kind() const override { return counted_; }
  MergeKind merge_kind() const override { return MergeKind::kMax; }
  bool SupportsAfr() const override { return false; }

  void Update(const Packet& p, int region) override;
  FlowRecord MigrateSlice(int region, std::size_t index,
                          SubWindowNum subwindow) const override;
  void ResetSlice(int region, std::size_t index) override;
  std::size_t NumResetSlices() const override { return regs_count_ / 4; }
  std::vector<RegisterArray*> Registers() override {
    return {&regs_.register_array()};
  }
  void ChargeResources(ResourceLedger& ledger) const override;

  static double EstimateFromTable(TableView table,
                                  unsigned precision);

  unsigned precision() const noexcept { return precision_; }

 private:
  unsigned precision_;
  std::size_t regs_count_;
  FlowKeyKind counted_;
  RegionedArray regs_;  // one 8-bit register per cell (stored widened)
};

}  // namespace ow
