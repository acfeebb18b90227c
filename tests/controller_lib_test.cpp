// Tests for the controller data structures: key-value table, merge
// strategies, batch kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <optional>
#include <random>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/common/snapshot.h"
#include "src/controller/key_value_table.h"
#include "src/controller/merge.h"

namespace ow {
namespace {

FlowKey Key(std::uint32_t id) {
  return FlowKey(FlowKeyKind::kSrcIp, FiveTuple{.src_ip = id});
}

FlowRecord Rec(std::uint32_t id, std::uint64_t v, SubWindowNum sw = 0) {
  FlowRecord r;
  r.key = Key(id);
  r.attrs[0] = v;
  r.num_attrs = 1;
  r.subwindow = sw;
  return r;
}

TEST(KeyValueTable, InsertFindErase) {
  KeyValueTable table(64);
  bool created = false;
  KvSlot& slot = table.FindOrInsert(Key(1), created);
  EXPECT_TRUE(created);
  slot.attrs[0] = 42;
  EXPECT_EQ(table.size(), 1u);

  KvSlot* found = table.Find(Key(1));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->attrs[0], 42u);

  EXPECT_TRUE(table.Erase(Key(1)));
  EXPECT_EQ(table.Find(Key(1)), nullptr);
  EXPECT_FALSE(table.Erase(Key(1)));
  EXPECT_EQ(table.size(), 0u);
}

TEST(KeyValueTable, TombstoneThenReinsertReusesSlot) {
  KeyValueTable table(64);
  bool created = false;
  table.FindOrInsert(Key(1), created);
  table.Erase(Key(1));
  KvSlot& again = table.FindOrInsert(Key(1), created);
  EXPECT_TRUE(created);
  EXPECT_EQ(again.attrs[0], 0u);  // fresh slot content
  EXPECT_EQ(table.size(), 1u);
}

TEST(KeyValueTable, SurvivesManyKeysWithProbing) {
  KeyValueTable table(4096);
  bool created = false;
  for (std::uint32_t i = 0; i < 3'000; ++i) {
    table.FindOrInsert(Key(i), created).attrs[0] = i;
  }
  EXPECT_EQ(table.size(), 3'000u);
  for (std::uint32_t i = 0; i < 3'000; ++i) {
    KvSlot* s = table.Find(Key(i));
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->attrs[0], i);
  }
}

TEST(KeyValueTable, RefusesOverload) {
  KeyValueTable table(16);
  bool created = false;
  EXPECT_THROW(
      {
        for (std::uint32_t i = 0; i < 16; ++i) {
          table.FindOrInsert(Key(i), created);
        }
      },
      std::length_error);
}

TEST(KeyValueTable, CollisionHeavyChainsResolveCorrectly) {
  // A minimum-size table (8 slots, 7 usable) forces every key into one probe
  // chain, so lookups must walk past slots whose index collides but whose
  // cached hash_tag (and key) differ. Regression for the tag-before-key
  // compare: a wrong/stale tag makes a live key unfindable.
  KeyValueTable table(8);
  ASSERT_EQ(table.capacity(), 8u);
  bool created = false;
  for (std::uint32_t i = 0; i < 7; ++i) {
    table.FindOrInsert(Key(i), created).attrs[0] = 1000 + i;
    EXPECT_TRUE(created);
  }
  for (std::uint32_t i = 0; i < 7; ++i) {
    KvSlot* s = table.Find(Key(i));
    ASSERT_NE(s, nullptr) << "key " << i;
    EXPECT_EQ(s->attrs[0], 1000u + i);
    EXPECT_EQ(s->key, Key(i));
  }
  // Re-lookup through FindOrInsert must not create duplicates.
  for (std::uint32_t i = 0; i < 7; ++i) {
    table.FindOrInsert(Key(i), created);
    EXPECT_FALSE(created) << "key " << i;
  }
  EXPECT_EQ(table.size(), 7u);
  // An absent key must walk the full chain and miss.
  EXPECT_EQ(table.Find(Key(999)), nullptr);
}

TEST(KeyValueTable, TombstoneReuseRefreshesHashTag) {
  // A freed slot taken by a DIFFERENT key must carry that key's tag, or the
  // new key becomes unfindable under the tag-first compare. Cycle 32 keys
  // through an 8-slot table with up to six live at once, so every slot is
  // freed and retaken many times. Erase leaves no tombstones, so no insert
  // may be refused.
  KeyValueTable table(8);
  bool created = false;
  for (std::uint32_t i = 0; i < 32; ++i) {
    KvSlot* s = table.TryFindOrInsert(Key(i), created);
    ASSERT_NE(s, nullptr) << "key " << i << " refused";
    EXPECT_TRUE(created);
    s->attrs[0] = 1000 + i;
    if (i >= 6) {
      EXPECT_TRUE(table.Erase(Key(i - 6)));
      EXPECT_EQ(table.Find(Key(i - 6)), nullptr);
    }
    for (std::uint32_t k = i >= 5 ? i - 5 : 0; k <= i; ++k) {
      KvSlot* found = table.Find(Key(k));
      ASSERT_NE(found, nullptr) << "key " << k << " vanished at step " << i;
      EXPECT_EQ(found->attrs[0], 1000u + k);
    }
  }
  EXPECT_EQ(table.rejected_inserts(), 0u);
  EXPECT_EQ(table.size(), 6u);
}

TEST(KeyValueTable, InsertEraseChurnNeverFillsTheTable) {
  // 400 rounds of 50 fresh keys inserted then erased: 20,000 distinct keys
  // through a 1024-slot table that never holds more than 50.
  KeyValueTable table(1024);
  bool created = false;
  std::size_t erased = 0;
  for (std::uint32_t round = 0; round < 400; ++round) {
    for (std::uint32_t i = 0; i < 50; ++i) {
      table.TryFindOrInsert(Key(round * 50 + i), created);
    }
    for (std::uint32_t i = 0; i < 50; ++i) {
      erased += table.Erase(Key(round * 50 + i));
    }
  }
  EXPECT_EQ(table.rejected_inserts(), 0u);
  EXPECT_EQ(erased, 20'000u);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.load_factor(), 0.0);
}

/// The slot array as a checkpoint records it: the key of the live slot at
/// each listed index, nullopt for every slot the checkpoint does not list.
std::vector<std::optional<FlowKey>> Layout(const KeyValueTable& table) {
  SnapshotWriter w;
  table.Save(w);
  const std::vector<std::uint8_t> bytes = w.Take();
  // Header (8), section tag (4), capacity (8), listed count (8), then one
  // (index, slot) pair per live slot.
  constexpr std::size_t kCountAt = 8 + 4 + 8;
  constexpr std::size_t kPairBytes = 8 + sizeof(KvSlot);
  std::uint64_t listed = 0;
  std::memcpy(&listed, bytes.data() + kCountAt, 8);
  std::vector<std::optional<FlowKey>> out(table.capacity());
  for (std::size_t n = 0; n < listed; ++n) {
    const std::uint8_t* pair = bytes.data() + kCountAt + 8 + n * kPairBytes;
    std::uint64_t index = 0;
    KvSlot s;
    std::memcpy(&index, pair, 8);
    std::memcpy(&s, pair + 8, sizeof(KvSlot));
    out[index] = s.key;
  }
  return out;
}

/// The keys ForEach visits, in visit order.
std::vector<FlowKey> Visited(const KeyValueTable& table) {
  std::vector<FlowKey> keys;
  table.ForEach([&](const KvSlot& s) { keys.push_back(s.key); });
  return keys;
}

/// The live keys of the slot array, in ascending slot order.
std::vector<FlowKey> LiveInSlotOrder(const KeyValueTable& table) {
  std::vector<FlowKey> keys;
  for (const std::optional<FlowKey>& k : Layout(table)) {
    if (k) keys.push_back(*k);
  }
  return keys;
}

/// The home slot of key `id` in a table of `capacity`: where it lands alone.
std::size_t HomeOf(std::uint32_t id, std::size_t capacity) {
  KeyValueTable table(capacity);
  bool created = false;
  table.FindOrInsert(Key(id), created);
  const auto layout = Layout(table);
  return std::size_t(std::find(layout.begin(), layout.end(), Key(id)) -
                     layout.begin());
}

TEST(KeyValueTable, EraseMatchesMapModelIncludingWrappedClusters) {
  for (const std::size_t cap : {std::size_t{8}, std::size_t{64}}) {
    SCOPED_TRACE("capacity=" + std::to_string(cap));
    // A cluster that wraps past the end: three keys homed in the last slot
    // fill it and slots 0 and 1, and a key homed in slot 0 lands in slot 2.
    // Erasing the first shifts all three back by one, across the wrap.
    std::vector<std::uint32_t> last, first;
    for (std::uint32_t id = 0; last.size() < 3 || first.empty(); ++id) {
      const std::size_t home = HomeOf(id, cap);
      if (home == cap - 1 && last.size() < 3) last.push_back(id);
      if (home == 0 && first.empty()) first.push_back(id);
    }
    {
      KeyValueTable table(cap);
      bool created = false;
      for (const std::uint32_t id : {last[0], last[1], last[2], first[0]}) {
        table.FindOrInsert(Key(id), created).attrs[0] = id;
      }
      ASSERT_EQ(Layout(table)[2], Key(first[0]));
      EXPECT_TRUE(table.Erase(Key(last[0])));
      const auto layout = Layout(table);
      EXPECT_EQ(layout[cap - 1], Key(last[1]));
      EXPECT_EQ(layout[0], Key(last[2]));
      EXPECT_EQ(layout[1], Key(first[0]));
      EXPECT_EQ(layout[2], std::nullopt);
      for (const std::uint32_t id : {last[1], last[2], first[0]}) {
        ASSERT_NE(table.Find(Key(id)), nullptr) << "key " << id;
        EXPECT_EQ(table.Find(Key(id))->attrs[0], id);
      }
    }

    // Random insert/erase sequences over a key pool twice the capacity, so
    // the table runs near its load limit and clusters wrap freely.
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("seed=" + std::to_string(seed));
      std::mt19937_64 rng(seed);
      KeyValueTable table(cap);
      std::unordered_map<std::uint32_t, std::uint64_t> model;
      for (std::uint32_t step = 0; step < 4000; ++step) {
        const std::uint32_t id = std::uint32_t(rng() % (2 * cap));
        if (rng() % 2) {
          bool created = false;
          KvSlot* s = table.TryFindOrInsert(Key(id), created);
          const bool present = model.contains(id);
          if (!present && model.size() == cap - cap / 8) {
            EXPECT_EQ(s, nullptr) << "insert past the load limit";
            continue;
          }
          ASSERT_NE(s, nullptr) << "step " << step;
          EXPECT_EQ(created, !present);
          s->attrs[0] = step;
          model[id] = step;
        } else {
          EXPECT_EQ(table.Erase(Key(id)), model.erase(id) == 1)
              << "step " << step;
        }
        ASSERT_EQ(table.size(), model.size());
        std::vector<FlowKey> expected;
        for (const auto& [k, v] : model) {
          const KvSlot* s = table.Find(Key(k));
          ASSERT_NE(s, nullptr) << "key " << k << " lost at step " << step;
          EXPECT_EQ(s->attrs[0], v);
          expected.push_back(Key(k));
        }
        // ForEach visits exactly the live slots, in ascending slot order,
        // and they hold exactly the model's keys.
        const std::vector<FlowKey> visited = Visited(table);
        ASSERT_EQ(visited.size(), table.size()) << "step " << step;
        ASSERT_EQ(visited, LiveInSlotOrder(table)) << "step " << step;
        std::vector<FlowKey> sorted = visited;
        std::sort(sorted.begin(), sorted.end());
        std::sort(expected.begin(), expected.end());
        ASSERT_EQ(sorted, expected) << "step " << step;
      }
      // The final layout passes Load's probe-reachability check.
      SnapshotWriter w;
      table.Save(w);
      const std::vector<std::uint8_t> bytes = w.Take();
      SnapshotReader r(bytes);
      KeyValueTable copy(cap);
      EXPECT_NO_THROW(copy.Load(r));
      EXPECT_EQ(copy.size(), model.size());
      EXPECT_EQ(Visited(copy), Visited(table));
    }
  }
}

TEST(KeyValueTable, HighLoadRandomizedFindAll) {
  // Near the 7/8 load limit, chains are long and wrap the table; every
  // inserted key must remain findable with its own attrs.
  KeyValueTable table(1 << 12);
  const std::size_t n = (1 << 12) * 7 / 8 - 1;
  bool created = false;
  for (std::uint32_t i = 0; i < n; ++i) {
    KvSlot* s = table.TryFindOrInsert(Key(i * 2654435761u), created);
    ASSERT_NE(s, nullptr) << "insert " << i;
    s->attrs[0] = i;
  }
  EXPECT_EQ(table.size(), n);
  for (std::uint32_t i = 0; i < n; ++i) {
    KvSlot* s = table.Find(Key(i * 2654435761u));
    ASSERT_NE(s, nullptr) << "find " << i;
    EXPECT_EQ(s->attrs[0], i);
  }
}

TEST(KeyValueTable, SlotAndRecordAre56BytesWithNoPadding) {
  // Checkpoints write each live KvSlot and every FlowRecord raw, so their
  // layouts are part of the snapshot format, and a padding byte would be
  // an indeterminate byte in every checkpoint. Both are ordered by
  // alignment: the attrs, the 15-byte key, num_attrs, two u32 fields.
  static_assert(std::has_unique_object_representations_v<KvSlot>);
  static_assert(std::has_unique_object_representations_v<FlowRecord>);
  EXPECT_EQ(sizeof(KvSlot), 56u);
  EXPECT_EQ(offsetof(KvSlot, key), 32u);
  EXPECT_EQ(offsetof(KvSlot, num_attrs), 47u);
  EXPECT_EQ(offsetof(KvSlot, last_subwindow), 48u);
  EXPECT_EQ(offsetof(KvSlot, hash_tag), 52u);
  EXPECT_EQ(sizeof(FlowRecord), 56u);
  EXPECT_EQ(offsetof(FlowRecord, key), 32u);
  EXPECT_EQ(offsetof(FlowRecord, num_attrs), 47u);
  EXPECT_EQ(offsetof(FlowRecord, seq_id), 48u);
  EXPECT_EQ(offsetof(FlowRecord, subwindow), 52u);
}

TEST(KeyValueTable, ForEachVisitsOnlyLive) {
  KeyValueTable table(64);
  bool created = false;
  table.FindOrInsert(Key(1), created);
  table.FindOrInsert(Key(2), created);
  table.Erase(Key(1));
  std::size_t visited = 0;
  table.ForEach([&](const KvSlot& s) {
    ++visited;
    EXPECT_EQ(s.key, Key(2));
  });
  EXPECT_EQ(visited, 1u);

  // Clear empties every slot; the table then fills from scratch.
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(Visited(table).empty());
  EXPECT_EQ(table.Find(Key(2)), nullptr);
  table.FindOrInsert(Key(3), created).attrs[0] = 30;
  EXPECT_TRUE(created);
  table.ForEach([](KvSlot& s) { ++s.attrs[0]; });
  EXPECT_EQ(Visited(table), std::vector<FlowKey>{Key(3)});
  EXPECT_EQ(table.Find(Key(3))->attrs[0], 31u);
}

TEST(KeyValueTable, ChurnAcrossSummaryBlocksWalksExactlyTheLiveSlots) {
  // 2^14 slots: 256 occupancy words under four summary words, each summary
  // word covering a 4,096-slot block. A few dozen live keys leave most
  // occupancy words empty or holding one key, so erases empty words (and
  // sometimes whole blocks) and inserts refill them. Every 250 steps
  // tables[1] is cleared and reloaded from tables[0]'s checkpoint, so it
  // walks the summary its Load rebuilt; between reloads it takes the same
  // operations.
  constexpr std::size_t kCap = 1 << 14;
  std::mt19937_64 rng(0x5A11);
  std::array<KeyValueTable, 2> tables{KeyValueTable(kCap),
                                      KeyValueTable(kCap)};
  std::unordered_map<std::uint32_t, std::uint64_t> model;
  const auto save = [](const KeyValueTable& t) {
    SnapshotWriter w;
    t.Save(w);
    return w.Take();
  };
  // The addresses ForEach visits, and the ones it must visit: every model
  // key's slot as Find locates it, in ascending slot (address) order.
  const auto walked = [](const KeyValueTable& t) {
    std::vector<const KvSlot*> v;
    t.ForEach([&v](const KvSlot& s) { v.push_back(&s); });
    return v;
  };
  const auto live = [&model](const KeyValueTable& t) {
    std::vector<const KvSlot*> v;
    for (const auto& [id, value] : model) {
      const KvSlot* s = t.Find(Key(id));
      EXPECT_NE(s, nullptr) << "key " << id;
      if (s == nullptr) continue;
      EXPECT_EQ(s->attrs[0], value) << "key " << id;
      v.push_back(s);
    }
    std::sort(v.begin(), v.end());
    return v;
  };
  // Phases alternate a small key pool (blocks empty out) with larger ones.
  const std::uint32_t pools[] = {12, 300, 40, 8, 120};
  for (std::uint32_t step = 0; step < 10'000; ++step) {
    const std::uint32_t pool = pools[step / 2'000];
    const std::uint32_t id = std::uint32_t(rng() % pool) * 2654435761u;
    if (rng() % 2) {
      for (KeyValueTable& t : tables) {
        bool created = false;
        t.FindOrInsert(Key(id), created).attrs[0] = step;
      }
      model[id] = step;
    } else {
      for (KeyValueTable& t : tables) {
        ASSERT_EQ(t.Erase(Key(id)), model.contains(id)) << "step " << step;
      }
      model.erase(id);
    }
    if (step % 2'000 == 1'999) {
      for (KeyValueTable& t : tables) t.Clear();
      model.clear();
    }
    for (const KeyValueTable& t : tables) {
      ASSERT_EQ(t.size(), model.size()) << "step " << step;
      ASSERT_EQ(walked(t), live(t)) << "step " << step;
    }
    ASSERT_EQ(save(tables[1]), save(tables[0])) << "step " << step;
    if (step % 250 == 0) {
      const std::vector<std::uint8_t> bytes = save(tables[0]);
      SnapshotReader r(bytes);
      tables[1].Clear();
      tables[1].Load(r);
      ASSERT_EQ(walked(tables[1]), live(tables[1])) << "step " << step;
    }
  }
}

TEST(KeyValueTable, LiveWalksCostWhatTheTableHolds) {
  // 4 live keys in 2^21 slots (128 MB). Save, ForEach and Clear walk the
  // summary bitmap (4 KB), then only the occupancy words it marks: 300,000
  // rounds read ~5 GB of summary, 1.4 s in the default build and 7-9 s in
  // a Debug ASan+UBSan build on a 4-vCPU host. Walking every word of the
  // 256 KB occupancy bitmap instead reads ~300 GB and took 51 s in the
  // default build, past the suite's TIMEOUT (tests/CMakeLists.txt);
  // scanning every slot would take far longer.
  constexpr std::uint32_t kKeys = 4;
  constexpr std::uint64_t kRounds = 300'000;
  KeyValueTable table(1 << 21);
  const auto fill = [&table] {
    bool created = false;
    for (std::uint32_t i = 0; i < kKeys; ++i) {
      table.FindOrInsert(Key(i * 2654435761u), created).attrs[0] = i;
    }
  };
  fill();
  SnapshotWriter first;
  table.Save(first);
  const std::vector<std::uint8_t> expected = first.Take();
  // Header (8), tag (4), capacity (8), live count (8), one (index, slot)
  // pair per key, rejected inserts (8): nothing proportional to the 2^21
  // slots.
  ASSERT_EQ(expected.size(),
            8 + 4 + 8 + 8 + kKeys * (8 + sizeof(KvSlot)) + 8);
  std::uint64_t sum = 0;
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    SnapshotWriter w;
    table.Save(w);
    ASSERT_EQ(w.Take(), expected) << "round " << round;
    table.ForEach([&sum](const KvSlot& s) { sum += s.attrs[0]; });
    table.Clear();
    ASSERT_EQ(table.size(), 0u);
    fill();
  }
  EXPECT_EQ(sum, kRounds * (kKeys * (kKeys - 1) / 2));
  EXPECT_EQ(table.size(), kKeys);
}

TEST(KeyValueTable, LoadCostsWhatTheTableHolds) {
  // Two 4-key checkpoints of 2^21-slot tables, loaded in turn into one
  // table: Load checks the listed pairs, then commits with Clear (a walk
  // of the 4 KB summary bitmap) and the listed writes. 300,000 rounds take
  // 0.3 s in the default build and 2.4 s in a Debug ASan+UBSan build on a
  // 4-vCPU host. A Load that allocates and scans a capacity-sized scratch
  // array takes about 0.1 s per round and times out here
  // (tests/CMakeLists.txt).
  constexpr std::uint32_t kKeys = 4;
  constexpr std::uint64_t kRounds = 300'000;
  constexpr std::size_t kCap = std::size_t{1} << 21;
  std::array<std::vector<std::uint8_t>, 2> streams;
  for (std::uint32_t t = 0; t < 2; ++t) {
    KeyValueTable src(kCap);
    bool created = false;
    for (std::uint32_t i = 0; i < kKeys; ++i) {
      src.FindOrInsert(Key((t * kKeys + i) * 2654435761u), created)
          .attrs[0] = t * kKeys + i;
    }
    SnapshotWriter w;
    src.Save(w);
    streams[t] = w.Take();
  }
  KeyValueTable table(kCap);
  std::uint64_t sum = 0;
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    const std::uint32_t t = round % 2;
    SnapshotReader r(streams[t]);
    table.Load(r);
    ASSERT_EQ(table.size(), kKeys) << "round " << round;
    // The other checkpoint's keys are gone; this one's are found.
    ASSERT_EQ(table.Find(Key((1 - t) * kKeys * 2654435761u)), nullptr);
    const KvSlot* s =
        table.Find(Key((t * kKeys + round % kKeys) * 2654435761u));
    ASSERT_NE(s, nullptr) << "round " << round;
    sum += s->attrs[0];
  }
  std::uint64_t want = 0;
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    want += (round % 2) * kKeys + round % kKeys;
  }
  EXPECT_EQ(sum, want);
  SnapshotWriter w;
  table.Save(w);
  EXPECT_EQ(w.Take(), streams[(kRounds - 1) % 2]);
}

// ----------------------------------------------------------------- merge

TEST(Merge, FrequencySums) {
  KeyValueTable table(64);
  bool created = false;
  KvSlot& slot = table.FindOrInsert(Key(1), created);
  ApplyMerge(MergeKind::kFrequency, slot, true, Rec(1, 10, 0));
  ApplyMerge(MergeKind::kFrequency, slot, false, Rec(1, 32, 1));
  EXPECT_EQ(slot.attrs[0], 42u);
  EXPECT_EQ(slot.last_subwindow, 1u);
}

TEST(Merge, MaxAndMin) {
  KeyValueTable table(64);
  bool created = false;
  KvSlot& mx = table.FindOrInsert(Key(1), created);
  ApplyMerge(MergeKind::kMax, mx, true, Rec(1, 10));
  ApplyMerge(MergeKind::kMax, mx, false, Rec(1, 5));
  ApplyMerge(MergeKind::kMax, mx, false, Rec(1, 30));
  EXPECT_EQ(mx.attrs[0], 30u);

  KvSlot& mn = table.FindOrInsert(Key(2), created);
  ApplyMerge(MergeKind::kMin, mn, true, Rec(2, 10));
  ApplyMerge(MergeKind::kMin, mn, false, Rec(2, 5));
  ApplyMerge(MergeKind::kMin, mn, false, Rec(2, 30));
  EXPECT_EQ(mn.attrs[0], 5u);
}

TEST(Merge, ExistenceIsBoolean) {
  KeyValueTable table(64);
  bool created = false;
  KvSlot& slot = table.FindOrInsert(Key(1), created);
  ApplyMerge(MergeKind::kExistence, slot, true, Rec(1, 999));
  EXPECT_EQ(slot.attrs[0], 1u);
  ApplyMerge(MergeKind::kExistence, slot, false, Rec(1, 999));
  EXPECT_EQ(slot.attrs[0], 1u);
}

TEST(Merge, DistinctionOrsSignatures) {
  KeyValueTable table(64);
  bool created = false;
  KvSlot& slot = table.FindOrInsert(Key(1), created);
  FlowRecord r1 = Rec(1, 0);
  r1.attrs = {0x1, 0x2, 0x4, 0x8};
  r1.num_attrs = 4;
  FlowRecord r2 = Rec(1, 0);
  r2.attrs = {0x10, 0x20, 0x40, 0x80};
  r2.num_attrs = 4;
  ApplyMerge(MergeKind::kDistinction, slot, true, r1);
  ApplyMerge(MergeKind::kDistinction, slot, false, r2);
  EXPECT_EQ(slot.attrs[0], 0x11u);
  EXPECT_EQ(slot.attrs[3], 0x88u);
}

TEST(Merge, DistinctionAvoidsDoubleCounting) {
  // The same elements reported from two sub-windows must not inflate the
  // estimate — the property scalar merging cannot provide.
  SpreadSignature sw1{}, sw2{};
  for (std::uint64_t e = 0; e < 120; ++e) {
    LcSignatureInsert(sw1, Mix64(e));
    LcSignatureInsert(sw2, Mix64(e));  // identical elements
  }
  SpreadSignature merged = sw1;
  MergeSpreadSignature(merged, sw2);
  EXPECT_DOUBLE_EQ(LcSignatureEstimate(merged), LcSignatureEstimate(sw1));
}

// ----------------------------------------------------------- batch kernels

TEST(BatchKernels, SumVariantsAgree) {
  std::vector<std::uint64_t> a1(1000), a2(1000), v(1000);
  for (std::size_t i = 0; i < 1000; ++i) {
    a1[i] = a2[i] = i;
    v[i] = i * 3;
  }
  BatchSumScalar(a1, v);
  BatchSumSimd(a2, v);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(a1[10], 10u + 30u);
}

TEST(BatchKernels, MaxVariantsAgree) {
  std::vector<std::uint64_t> a1(1000), a2(1000), v(1000);
  for (std::size_t i = 0; i < 1000; ++i) {
    a1[i] = a2[i] = i % 7;
    v[i] = i % 5;
  }
  BatchMaxScalar(a1, v);
  BatchMaxSimd(a2, v);
  EXPECT_EQ(a1, a2);
}

TEST(BatchKernels, RemainderLanesAgree) {
  // Exercise every tail length around the 4-wide AVX2 stride, including
  // empty spans.
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (std::size_t n = 0; n <= 9; ++n) {
    std::vector<std::uint64_t> a1(n), a2(n), v(n);
    for (std::size_t i = 0; i < n; ++i) {
      a1[i] = a2[i] = next();
      v[i] = next();
    }
    std::vector<std::uint64_t> m1 = a1, m2 = a2;
    BatchSumScalar(a1, v);
    BatchSumSimd(a2, v);
    EXPECT_EQ(a1, a2) << "sum, n=" << n;
    BatchMaxScalar(m1, v);
    BatchMaxSimd(m2, v);
    EXPECT_EQ(m1, m2) << "max, n=" << n;
  }
}

TEST(BatchKernels, MaxIsUnsignedAcrossSignBit) {
  // Values straddling 2^63 catch a signed-compare AVX2 max (the intrinsic
  // set has no unsigned 64-bit compare; the kernel must bias operands).
  std::vector<std::uint64_t> a1 = {0x8000000000000000ull, 1ull,
                                   0xFFFFFFFFFFFFFFFFull, 0ull,
                                   0x7FFFFFFFFFFFFFFFull};
  std::vector<std::uint64_t> v = {1ull, 0x8000000000000000ull, 0ull,
                                  0xFFFFFFFFFFFFFFFFull,
                                  0x8000000000000000ull};
  std::vector<std::uint64_t> a2 = a1;
  BatchMaxScalar(a1, v);
  BatchMaxSimd(a2, v);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(a2[0], 0x8000000000000000ull);
  EXPECT_EQ(a2[1], 0x8000000000000000ull);
  EXPECT_EQ(a2[4], 0x8000000000000000ull);
}

TEST(BatchKernels, SumWrapsModulo64) {
  std::vector<std::uint64_t> a1 = {0xFFFFFFFFFFFFFFFFull, 5},
                             v = {2, 0xFFFFFFFFFFFFFFFBull};
  std::vector<std::uint64_t> a2 = a1;
  BatchSumScalar(a1, v);
  BatchSumSimd(a2, v);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(a2[0], 1u);
  EXPECT_EQ(a2[1], 0u);
}

TEST(BatchKernels, LargeRandomAgree) {
  std::uint64_t rng = 0xA5A5A5A55A5A5A5Aull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  const std::size_t n = 4099;  // prime: misaligned tail
  std::vector<std::uint64_t> a1(n), v(n);
  for (std::size_t i = 0; i < n; ++i) {
    a1[i] = next();
    v[i] = next();
  }
  std::vector<std::uint64_t> a2 = a1, m1 = a1, m2 = a1;
  BatchSumScalar(a1, v);
  BatchSumSimd(a2, v);
  EXPECT_EQ(a1, a2);
  BatchMaxScalar(m1, v);
  BatchMaxSimd(m2, v);
  EXPECT_EQ(m1, m2);
}

TEST(BatchKernels, SizeMismatchThrows) {
  std::vector<std::uint64_t> a(10), v(9);
  EXPECT_THROW(BatchSumScalar(a, v), std::invalid_argument);
  EXPECT_THROW(BatchSumSimd(a, v), std::invalid_argument);
  EXPECT_THROW(BatchMaxScalar(a, v), std::invalid_argument);
  EXPECT_THROW(BatchMaxSimd(a, v), std::invalid_argument);
}

}  // namespace
}  // namespace ow
