#include "src/telemetry/flow_radar.h"

#include <cstring>
#include <deque>
#include <stdexcept>

#include "src/telemetry/cardinality_apps.h"

namespace ow {

FlowRadarApp::FlowRadarApp(std::size_t k, std::size_t cells_per_group,
                           FlowKeyKind key_kind, std::uint64_t seed)
    : groups_(k), cells_(cells_per_group), key_kind_(key_kind),
      hashes_(k, seed) {
  if (k == 0 || cells_per_group == 0) {
    throw std::invalid_argument("FlowRadarApp: empty geometry");
  }
  for (std::size_t r = 0; r < 2; ++r) {
    filters_[r] =
        std::make_unique<BloomFilter>(cells_per_group * k * 8, 3, seed + r);
  }
  for (std::size_t g = 0; g < k; ++g) {
    tables_.push_back(std::make_unique<CellRef>(
        "fr_g" + std::to_string(g), cells_per_group));
  }
}

void FlowRadarApp::PackKey(const FlowKey& key, std::uint64_t& lo,
                           std::uint64_t& hi) {
  std::uint8_t buf[16] = {0};
  const auto kb = key.bytes();
  std::memcpy(buf, kb.data(), kb.size());
  buf[13] = std::uint8_t(kb.size());
  buf[14] = std::uint8_t(key.kind());
  std::memcpy(&lo, buf, 8);
  std::memcpy(&hi, buf + 8, 8);
}

FlowKey FlowRadarApp::UnpackKey(std::uint64_t lo, std::uint64_t hi) {
  std::uint8_t buf[16];
  std::memcpy(buf, &lo, 8);
  std::memcpy(buf + 8, &hi, 8);
  return FlowKey::FromRaw(static_cast<FlowKeyKind>(buf[14]),
                          std::span<const std::uint8_t>(buf, buf[13]));
}

std::size_t FlowRadarApp::CellOf(std::size_t group, const FlowKey& key) const {
  return hashes_.Index(group, key.bytes(), cells_);
}

void FlowRadarApp::Update(const Packet& p, int region) {
  const FlowKey key = p.Key(key_kind_);
  const bool seen = filters_[std::size_t(region)]->TestAndSet(key);
  std::uint64_t lo, hi;
  PackKey(key, lo, hi);
  for (std::size_t g = 0; g < groups_; ++g) {
    const std::size_t cell = CellOf(g, key);
    CellRef& t = *tables_[g];
    if (!seen) {
      t.xor_lo.ReadModifyWrite(region, cell,
                               [&](std::uint64_t v) { return v ^ lo; });
      t.xor_hi.ReadModifyWrite(region, cell,
                               [&](std::uint64_t v) { return v ^ hi; });
      t.flow_count.ReadModifyWrite(region, cell,
                                   [](std::uint64_t v) { return v + 1; });
    }
    t.packet_count.ReadModifyWrite(region, cell,
                                   [](std::uint64_t v) { return v + 1; });
  }
}

FlowRecord FlowRadarApp::MigrateSlice(int region, std::size_t index,
                                      SubWindowNum subwindow) const {
  const std::size_t group = index / cells_;
  const std::size_t cell = index % cells_;
  const CellRef& t = *tables_[group];
  FlowRecord rec;
  rec.key = SliceKey(std::uint32_t(index));
  rec.subwindow = subwindow;
  rec.num_attrs = 4;
  rec.attrs[0] = t.xor_lo.ControlRead(region, cell);
  rec.attrs[1] = t.xor_hi.ControlRead(region, cell);
  rec.attrs[2] = t.flow_count.ControlRead(region, cell);
  rec.attrs[3] = t.packet_count.ControlRead(region, cell);
  return rec;
}

void FlowRadarApp::ResetSlice(int region, std::size_t index) {
  const std::size_t group = index / cells_;
  const std::size_t cell = index % cells_;
  CellRef& t = *tables_[group];
  t.xor_lo.ControlWrite(region, cell, 0);
  t.xor_hi.ControlWrite(region, cell, 0);
  t.flow_count.ControlWrite(region, cell, 0);
  t.packet_count.ControlWrite(region, cell, 0);
  if (index == 0) filters_[std::size_t(region)]->Reset();
}

std::vector<RegisterArray*> FlowRadarApp::Registers() {
  std::vector<RegisterArray*> regs;
  for (auto& t : tables_) {
    regs.push_back(&t->xor_lo.register_array());
    regs.push_back(&t->xor_hi.register_array());
    regs.push_back(&t->flow_count.register_array());
    regs.push_back(&t->packet_count.register_array());
  }
  return regs;
}

void FlowRadarApp::ChargeResources(ResourceLedger& ledger) const {
  ResourceUsage u;
  for (std::size_t g = 0; g < groups_; ++g) {
    u.stages.insert(int(4 + g));
    u.sram_bytes += tables_[g]->xor_lo.register_array().MemoryBytes() +
                    tables_[g]->xor_hi.register_array().MemoryBytes() +
                    tables_[g]->flow_count.register_array().MemoryBytes() +
                    tables_[g]->packet_count.register_array().MemoryBytes();
    u.salus += 4;  // one per flattened array (shared-region layout)
    u.vliw += 4;
  }
  u.sram_bytes += 2 * filters_[0]->MemoryBytes();
  u.salus += int(filters_[0]->NumSalus());
  ledger.Charge("App:flow_radar", u);
}

RecordVec FlowRadarApp::Decode(const RecordVec& cells, bool& clean) const {
  struct Cell {
    std::uint64_t lo = 0, hi = 0, flows = 0, packets = 0;
  };
  std::vector<std::vector<Cell>> work(groups_, std::vector<Cell>(cells_));
  for (const FlowRecord& rec : cells) {
    std::uint32_t index;
    const auto kb = rec.key.bytes();
    std::memcpy(&index, kb.data(), 4);
    if (index >= groups_ * cells_) continue;
    Cell& c = work[index / cells_][index % cells_];
    c.lo = rec.attrs[0];
    c.hi = rec.attrs[1];
    c.flows = rec.attrs[2];
    c.packets = rec.attrs[3];
  }

  RecordVec flows;
  // Peel pure cells (FlowCount == 1). SingleDecode from the paper.
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t g = 0; g < groups_; ++g) {
      for (std::size_t i = 0; i < cells_; ++i) {
        Cell& c = work[g][i];
        if (c.flows != 1) continue;
        const FlowKey key = UnpackKey(c.lo, c.hi);
        // Snapshot before subtraction: the pure cell is among the k cells
        // we are about to subtract from, so c mutates mid-loop.
        const std::uint64_t flow_packets = c.packets;
        FlowRecord rec;
        rec.key = key;
        rec.attrs[0] = flow_packets;
        rec.num_attrs = 1;
        flows.push_back(rec);
        // CounterDecode: this flow's packet count is exact in a pure cell;
        // subtract the flow from all its cells.
        std::uint64_t lo, hi;
        PackKey(key, lo, hi);
        for (std::size_t g2 = 0; g2 < groups_; ++g2) {
          Cell& t = work[g2][CellOf(g2, key)];
          t.lo ^= lo;
          t.hi ^= hi;
          t.flows -= 1;
          t.packets -= std::min(t.packets, flow_packets);
        }
        progress = true;
      }
    }
  }
  clean = true;
  for (const auto& group : work) {
    for (const Cell& c : group) {
      if (c.flows != 0) {
        clean = false;
        break;
      }
    }
  }
  return flows;
}

SubWindowTransform FlowRadarApp::SubWindowDecoder() const {
  return [this](RecordVec&& cells) {
    bool clean = false;
    RecordVec flows = Decode(cells, clean);
    if (!cells.empty()) {
      // Preserve sub-window attribution for window assembly.
      for (FlowRecord& f : flows) f.subwindow = cells.front().subwindow;
    }
    return flows;
  };
}

}  // namespace ow
