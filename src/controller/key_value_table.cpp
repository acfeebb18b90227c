#include "src/controller/key_value_table.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "src/common/snapshot.h"

namespace ow {

KeyValueTable::KeyValueTable(std::size_t capacity) {
  if (capacity < 8) capacity = 8;
  capacity = std::bit_ceil(capacity);
  slots_.resize(capacity);
  occupied_.resize((capacity + 63) / 64);
  summary_.resize((occupied_.size() + 63) / 64);
  mask_ = capacity - 1;
}

std::uint64_t KeyValueTable::HashOf(const FlowKey& key) {
  return key.Hash(0x7AB1E0FFull);
}

KvSlot* KeyValueTable::Find(const FlowKey& key) {
  const std::uint64_t h = HashOf(key);
  const std::uint32_t tag = static_cast<std::uint32_t>(h >> 32);
  std::size_t i = static_cast<std::size_t>(h) & mask_;
  for (std::size_t n = 0; n <= mask_; ++n, i = (i + 1) & mask_) {
    KvSlot& s = slots_[i];
    if (s.state == KvSlot::State::kEmpty) return nullptr;
    if (s.hash_tag == tag && s.key == key) return &s;
  }
  return nullptr;
}

const KvSlot* KeyValueTable::Find(const FlowKey& key) const {
  return const_cast<KeyValueTable*>(this)->Find(key);
}

KvSlot& KeyValueTable::FindOrInsert(const FlowKey& key, bool& created) {
  if (KvSlot* s = TryFindOrInsert(key, created)) return *s;
  throw std::length_error("KeyValueTable: load factor exceeded");
}

KvSlot* KeyValueTable::TryFindOrInsert(const FlowKey& key, bool& created) {
  const std::uint64_t h = HashOf(key);
  const std::uint32_t tag = static_cast<std::uint32_t>(h >> 32);
  std::size_t i = static_cast<std::size_t>(h) & mask_;
  for (std::size_t n = 0; n <= mask_; ++n, i = (i + 1) & mask_) {
    KvSlot& s = slots_[i];
    if (s.state == KvSlot::State::kEmpty) {
      if (live_ + 1 > slots_.size() - slots_.size() / 8) break;
      s = KvSlot{.key = key, .hash_tag = tag, .state = KvSlot::State::kLive};
      occupied_[i / 64] |= std::uint64_t{1} << (i % 64);
      summary_[i / 4096] |= std::uint64_t{1} << (i / 64 % 64);
      ++live_;
      created = true;
      return &s;
    }
    if (s.hash_tag == tag && s.key == key) {
      created = false;
      return &s;
    }
  }
  ++rejected_;
  return nullptr;
}

bool KeyValueTable::Erase(const FlowKey& key) {
  KvSlot* s = Find(key);
  if (!s) return false;
  // Walk the rest of the cluster; a slot whose probe path from its home
  // passes the hole moves into it, and its old slot becomes the hole.
  std::size_t hole = static_cast<std::size_t>(s - slots_.data());
  for (std::size_t j = (hole + 1) & mask_;
       slots_[j].state == KvSlot::State::kLive; j = (j + 1) & mask_) {
    const std::size_t home =
        static_cast<std::size_t>(HashOf(slots_[j].key)) & mask_;
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  // Only the final hole changes from live to empty.
  slots_[hole] = KvSlot{};
  occupied_[hole / 64] &= ~(std::uint64_t{1} << (hole % 64));
  if (occupied_[hole / 64] == 0) {
    summary_[hole / 4096] &= ~(std::uint64_t{1} << (hole / 64 % 64));
  }
  --live_;
  return true;
}

void KeyValueTable::Clear() {
  ForEachLiveIndex([this](std::size_t i) { slots_[i] = KvSlot{}; });
  ForEachOccupiedWord([this](std::size_t w) { occupied_[w] = 0; });
  std::fill_n(summary_.data(), summary_.size(), 0);
  live_ = 0;
}

void KeyValueTable::Save(SnapshotWriter& w) const {
  w.Section(snap::kKvTable);
  w.Size(slots_.size());
  w.Size(live_);
  ForEachLiveIndex([&](std::size_t i) {
    w.U64(i);
    w.Pod(slots_[i]);
  });
  w.Size(live_);
  w.U64(rejected_);
}

void KeyValueTable::Load(SnapshotReader& r) {
  r.Section(snap::kKvTable);
  const std::size_t cap = slots_.size();
  // Everything below validates against scratch state; this table is only
  // touched once the whole section (counts included) has checked out, so a
  // caller that catches the throw keeps a usable, unchanged table.
  CheckShape(snap::kKvTable, "KeyValueTable", "capacity", cap, r.Size());
  std::vector<KvSlot> scratch(cap);
  const std::size_t listed = r.Count(8 + sizeof(KvSlot));
  if (listed > cap) {
    throw SnapshotError("KeyValueTable: " + std::to_string(listed) +
                        " listed slots exceed capacity " +
                        std::to_string(cap));
  }
  std::uint64_t prev = 0;
  for (std::size_t n = 0; n < listed; ++n) {
    const std::uint64_t idx = r.U64();
    if (idx >= cap || (n > 0 && idx <= prev)) {
      throw SnapshotError("KeyValueTable: slot index " + std::to_string(idx) +
                          " out of order or beyond capacity " +
                          std::to_string(cap));
    }
    r.Pod(scratch[idx]);
    prev = idx;
  }
  const std::size_t live = r.Size();
  const std::uint64_t rejected = r.U64();
  // Verify the stream's tally against the array it described: a corrupt
  // state byte or dropped entry surfaces here, not as a probe-chain
  // heisenbug three windows later. The same pass rebuilds the occupancy
  // bitmap, committed with the slots.
  std::vector<std::uint64_t> live_bits(occupied_.size());
  std::size_t rebuilt_live = 0;
  for (std::size_t p = 0; p < cap; ++p) {
    // Compare as raw bytes: the state came off an untrusted stream and may
    // hold a value no enumerator names.
    const std::uint8_t st = static_cast<std::uint8_t>(scratch[p].state);
    if (st == static_cast<std::uint8_t>(KvSlot::State::kLive)) {
      live_bits[p / 64] |= std::uint64_t{1} << (p % 64);
      ++rebuilt_live;
    } else if (st != static_cast<std::uint8_t>(KvSlot::State::kEmpty)) {
      throw SnapshotError("KeyValueTable: invalid slot state " +
                          std::to_string(unsigned(st)));
    }
  }
  CheckShape(snap::kKvTable, "KeyValueTable", "live slots", rebuilt_live,
             live);
  const auto corrupt = [](const std::string& what) {
    return SnapshotError("KeyValueTable [section 0x1B]: " + what);
  };
  if (const std::size_t max_live = cap - cap / 8; live > max_live) {
    throw corrupt(std::to_string(live) + " live slots exceed the load limit " +
                  std::to_string(max_live));
  }
  // Every live key must be where Find's walk from its home (to the first
  // empty slot or tag-and-key match) ends: a key past an empty slot, under
  // a wrong tag, or stored twice is unreachable and would be stored again.
  for (std::size_t p = 0; p < cap; ++p) {
    const KvSlot& s = scratch[p];
    if (s.state != KvSlot::State::kLive) continue;
    CheckKey(s.key, snap::kKvTable, "KeyValueTable", "a live slot's key");
    const std::uint64_t h = HashOf(s.key);
    const std::uint32_t tag = static_cast<std::uint32_t>(h >> 32);
    std::size_t i = static_cast<std::size_t>(h) & mask_;
    while (scratch[i].state == KvSlot::State::kLive &&
           !(scratch[i].hash_tag == tag && scratch[i].key == s.key)) {
      i = (i + 1) & mask_;
    }
    if (i != p) {
      throw corrupt("the key in slot " + std::to_string(p) +
                    " is unreachable: its probe ends at slot " +
                    std::to_string(i));
    }
  }
  std::memcpy(slots_.data(), scratch.data(), cap * sizeof(KvSlot));
  std::copy(live_bits.begin(), live_bits.end(), occupied_.begin());
  std::fill(summary_.begin(), summary_.end(), 0);
  for (std::size_t w = 0; w < occupied_.size(); ++w) {
    if (occupied_[w] != 0) summary_[w / 64] |= std::uint64_t{1} << (w % 64);
  }
  live_ = live;
  rejected_ = rejected;
}

}  // namespace ow
