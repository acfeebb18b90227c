// LossRadar (Li et al., CoNEXT 2016) — per-link packet loss detection.
//
// Each meter summarizes the packets it saw into an Invertible Bloom Filter
// keyed by (flowkey, sequence). Subtracting the downstream meter's IBF from
// the upstream one leaves exactly the lost packets, which peel out of the
// difference one by one. Exp#9 deploys a meter pair on adjacent switches:
// with OmniWindow's consistency model both meters bin a packet into the same
// sub-window, so the difference contains only real losses; with PTP-skewed
// local clocks, boundary packets land in different windows and decode as
// phantom losses.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/packet.h"

namespace ow {

/// Identity of one packet as LossRadar tracks it.
struct PacketId {
  FlowKey key;
  std::uint32_t seq = 0;

  friend auto operator<=>(const PacketId&, const PacketId&) = default;
};

class LossRadar {
 public:
  /// `cells` IBF cells (decode succeeds while losses ≲ cells / 1.3).
  explicit LossRadar(std::size_t cells, std::uint64_t seed = 0x10553ull);

  void Insert(const PacketId& id);

  /// this -= other (cell-wise). Meters must share geometry and seed.
  void Subtract(const LossRadar& other);

  /// Peel the difference. Returns decoded packet ids; `clean` reports
  /// whether the IBF fully decoded (no residual garbage).
  std::vector<PacketId> Decode(bool& clean) const;

  void Reset();

  std::uint64_t inserted() const noexcept { return inserted_; }
  std::size_t MemoryBytes() const noexcept {
    return cells_.size() * sizeof(Cell);
  }

  /// Raw cell access for state migration (§8): the cell's packet count and
  /// three XOR-folded id words.
  struct CellView {
    std::int64_t count = 0;
    std::uint64_t id_xor[3] = {0, 0, 0};
  };
  CellView ViewCell(std::size_t index) const;
  void SetCell(std::size_t index, const CellView& view);
  void ClearCell(std::size_t index);

 private:
  struct Cell {
    std::int64_t count = 0;
    std::uint64_t id_xor[3] = {0, 0, 0};  // key bytes folded + seq + check
  };

  static std::array<std::uint64_t, 3> Encode(const PacketId& id);
  std::size_t CellIndex(std::size_t i, std::uint64_t h) const;

  std::uint64_t seed_;
  std::vector<Cell> cells_;
  std::uint64_t inserted_ = 0;
};

}  // namespace ow
