#include "src/controller/key_value_table.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "src/common/snapshot.h"

namespace ow {
namespace {

bool TestBit(const std::uint64_t* words, std::size_t i) {
  return (words[i / 64] >> (i % 64)) & 1;
}

void SetBit(std::uint64_t* words, std::size_t i) {
  words[i / 64] |= std::uint64_t{1} << (i % 64);
}

/// One (index, slot) pair as Save writes it: 64 bytes, no padding, so Load
/// reads the listed pairs in one copy.
struct ListedSlot {
  std::uint64_t index;
  KvSlot slot;
};
static_assert(sizeof(ListedSlot) == 8 + sizeof(KvSlot));

}  // namespace

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
    if (!TestBit(occupied_.data(), i)) return nullptr;
    KvSlot& s = slots_[i];
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
    if (!TestBit(occupied_.data(), i)) {
      if (live_ + 1 > slots_.size() - slots_.size() / 8) break;
      s = KvSlot{.key = key, .hash_tag = tag};
      SetBit(occupied_.data(), i);
      SetBit(summary_.data(), i / 64);
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
  for (std::size_t j = (hole + 1) & mask_; TestBit(occupied_.data(), j);
       j = (j + 1) & mask_) {
    const std::size_t home =
        static_cast<std::size_t>(HashOf(slots_[j].key)) & mask_;
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  // Only the final hole changes from live to empty.
  occupied_[hole / 64] &= ~(std::uint64_t{1} << (hole % 64));
  if (occupied_[hole / 64] == 0) {
    summary_[hole / 4096] &= ~(std::uint64_t{1} << (hole / 64 % 64));
  }
  --live_;
  return true;
}

void KeyValueTable::Clear() {
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
  w.U64(rejected_);
}

void KeyValueTable::Load(SnapshotReader& r) {
  r.Section(snap::kKvTable);
  const std::size_t cap = slots_.size();
  const auto corrupt = [](const std::string& what) {
    return SnapshotError("KeyValueTable [section 0x1B]: " + what);
  };
  // Everything below validates the listed pairs alone; this table is only
  // touched once the whole section has checked out, so a caller that
  // catches the throw keeps a usable, unchanged table.
  CheckShape(snap::kKvTable, "KeyValueTable", "capacity", cap, r.Size());
  const std::size_t live = r.Count(sizeof(ListedSlot));
  if (const std::size_t max_live = cap - cap / 8; live > max_live) {
    throw corrupt(std::to_string(live) + " live slots exceed the load limit " +
                  std::to_string(max_live));
  }
  std::vector<ListedSlot> listed(live);
  if (live != 0) r.Bytes(listed.data(), live * sizeof(ListedSlot));
  for (std::size_t n = 0; n < live; ++n) {
    const std::uint64_t index = listed[n].index;
    if (index >= cap || (n > 0 && index <= listed[n - 1].index)) {
      throw SnapshotError("KeyValueTable: slot index " + std::to_string(index) +
                          " out of order or beyond capacity " +
                          std::to_string(cap));
    }
    CheckRecord(listed[n].slot.key, listed[n].slot.num_attrs, snap::kKvTable,
                "KeyValueTable", "a live slot");
  }
  const std::uint64_t rejected = r.U64();
  // Every listed key must be where Find's walk from its home (to the first
  // unlisted slot or tag-and-key match) ends: a key past an unlisted slot,
  // under a wrong tag, or stored twice is unreachable and would be stored
  // again. The walk from home to the key's slot crosses d slots; they are
  // all listed exactly when the d pairs before it (cyclically) list them,
  // so the check reads only those pairs.
  for (std::size_t n = 0; n < live; ++n) {
    const KvSlot& s = listed[n].slot;
    const std::uint64_t h = HashOf(s.key);
    const std::uint32_t tag = static_cast<std::uint32_t>(h >> 32);
    const std::size_t home = static_cast<std::size_t>(h) & mask_;
    const std::size_t d = (listed[n].index - home) & mask_;
    bool reachable = d < live && s.hash_tag == tag;
    std::size_t at = n + (n < d ? live : 0) - d;
    for (std::size_t j = 0; reachable && j < d; ++j) {
      const ListedSlot& t = listed[at];
      reachable = t.index == ((home + j) & mask_) &&
                  !(t.slot.hash_tag == tag && t.slot.key == s.key);
      at = at + 1 < live ? at + 1 : 0;
    }
    if (!reachable) {
      throw corrupt("the key in slot " + std::to_string(listed[n].index) +
                    " is unreachable from its home slot " +
                    std::to_string(home));
    }
  }
  Clear();
  for (const ListedSlot& l : listed) {
    slots_[l.index] = l.slot;
    SetBit(occupied_.data(), l.index);
    SetBit(summary_.data(), l.index / 64);
  }
  live_ = live;
  rejected_ = rejected;
}

}  // namespace ow
