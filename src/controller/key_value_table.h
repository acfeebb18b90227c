// Controller flow key-value table.
//
// Stand-in for the DPDK rte_hash table the paper's controller uses to store
// merged AFRs (§4.2, §8). Open addressing with linear probing over a flat,
// fixed-capacity slot array. Erase backward-shifts the rest of the probe
// cluster into the freed slot, so no tombstones are left behind: occupancy
// is the live-key count, and insert/erase churn never fills the table. An
// Erase may move live slots (invalidating slot pointers); inserts never do.
//
// A one-bit-per-slot occupancy bitmap is the only record of which slots
// are live, and a summary bitmap holds one bit per non-zero occupancy word.
// Walks over the live slots (ForEach, Save, Clear, Load's commit) read the
// summary, then only the occupancy words it marks, so they cost
// O(live + capacity/4096), not O(capacity).
//
// The slot array is a pool block that is allocated, not constructed: a
// dead slot holds whatever bytes the block held before and is never read
// or written. A slot is written only by an insert, Erase's backward shift
// or Load, so construction zeroes just the bitmaps, O(capacity/64), and a
// table's resident memory follows the slots it has used, not its
// capacity. ASan builds poison dead slots, so a read of one fails.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/arena.h"
#include "src/common/flowkey.h"

namespace ow {

class SnapshotWriter;
class SnapshotReader;

/// Ordered by alignment: 56 bytes and no padding, as checkpoints write it.
struct KvSlot {
  std::array<std::uint64_t, 4> attrs{};
  FlowKey key;
  std::uint8_t num_attrs = 0;
  std::uint32_t last_subwindow = 0;  ///< most recent sub-window contributing
  /// Upper 32 bits of the probe hash, cached at insert. Probing compares
  /// this tag before the full FlowKey — a probe chain walk touches one word
  /// per mismatched slot instead of the whole key. The tag bits are disjoint
  /// from the index bits (low bits & mask), so they discriminate within a
  /// chain.
  std::uint32_t hash_tag = 0;
};

static_assert(sizeof(KvSlot) == 56);

class KeyValueTable {
 public:
  /// Capacity is rounded up to a power of two. The table refuses inserts
  /// beyond a 7/8 load factor (throws) rather than rehashing.
  explicit KeyValueTable(std::size_t capacity);

  /// Find the slot for `key`, or nullptr.
  KvSlot* Find(const FlowKey& key);
  const KvSlot* Find(const FlowKey& key) const;

  /// Find or create the slot for `key`. `created` reports which happened.
  KvSlot& FindOrInsert(const FlowKey& key, bool& created);

  /// Like FindOrInsert, but a rejected insert (the 7/8 load limit) returns
  /// nullptr and bumps rejected_inserts() instead of throwing — the form
  /// the controller's merge and eviction paths use, where dropping one AFR
  /// and flagging its windows beats aborting a collection round. Lookups
  /// of existing keys always succeed, even at the load limit.
  KvSlot* TryFindOrInsert(const FlowKey& key, bool& created);

  /// Remove `key`, shifting later members of its probe cluster back into
  /// the hole. Returns true if it was live.
  bool Erase(const FlowKey& key);

  /// Drop all entries.
  void Clear();

  std::size_t size() const noexcept { return live_; }
  std::size_t capacity() const noexcept { return mask_ + 1; }
  /// Live slots over capacity (the table refuses fresh inserts past 7/8).
  double load_factor() const noexcept {
    return double(live_) / double(capacity());
  }
  /// Inserts refused at the load limit since construction (monotonic;
  /// Clear() does not reset it).
  std::uint64_t rejected_inserts() const noexcept { return rejected_; }

  /// Visit every live slot, in ascending slot index order. `fn` must not
  /// insert into or erase from the table.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    ForEachLiveIndex([&](std::size_t i) { fn(slots_[i]); });
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEachLiveIndex([&](std::size_t i) { fn(slots_[i]); });
  }

  /// Checkpoint the live slots as (index, slot) pairs in ascending index
  /// order, so a restored table probes exactly like the saved one and
  /// checkpoint cost scales with state, not provisioned capacity (at the 7/8
  /// load limit the pairs take the bytes of the whole slot array). Load
  /// checks only the listed pairs (indices, count, records, and that each
  /// key sits where Find's walk over the listed slots ends), then commits
  /// with Clear() and the listed writes: O(live + capacity/4096), and the
  /// table is UNCHANGED if it throws.
  void Save(SnapshotWriter& w) const;
  void Load(SnapshotReader& r);

 private:
  static std::uint64_t HashOf(const FlowKey& key);

  /// Call `fn(word)` for every non-zero word of occupied_, ascending. The
  /// loop reads the summary through a raw pointer: unoptimized builds pay
  /// a call per container access, and most summary words are zero.
  template <typename Fn>
  void ForEachOccupiedWord(Fn&& fn) const {
    const std::uint64_t* summary = summary_.data();
    for (std::size_t s = 0, n = summary_.size(); s < n; ++s) {
      for (std::uint64_t bits = summary[s]; bits != 0; bits &= bits - 1) {
        fn(s * 64 + std::size_t(std::countr_zero(bits)));
      }
    }
  }

  /// Call `fn(index)` for every set bit of occupied_, ascending.
  template <typename Fn>
  void ForEachLiveIndex(Fn&& fn) const {
    ForEachOccupiedWord([&](std::size_t w) {
      for (std::uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
        fn(w * 64 + std::size_t(std::countr_zero(bits)));
      }
    });
  }

  /// Returns the slot array's block to the pool.
  struct SlotRelease {
    std::size_t capacity;
    void operator()(KvSlot* slots) const noexcept;
  };

  // Pool-backed: QueryRange scratch tables recycle slot arrays instead of
  // reallocating.
  std::unique_ptr<KvSlot[], SlotRelease> slots_;
  /// Bit i set <=> slots_[i] is live.
  PooledVector<std::uint64_t> occupied_;
  /// Bit w set <=> occupied_[w] != 0.
  PooledVector<std::uint64_t> summary_;
  std::size_t mask_;
  std::size_t live_ = 0;
  std::uint64_t rejected_ = 0;
};

/// How window consumers (detection queries, cardinality estimators, loss
/// inference) take a merged table: read-only, by reference, valid only for
/// the duration of the call.
using TableView = const KeyValueTable&;

}  // namespace ow
