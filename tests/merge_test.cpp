// The controller's batch merge (MergeBatch: insert pass, then merge pass)
// against a one-record-at-a-time reference, the table's load accounting,
// and the merge-order algebra of §4.2: the XorSum and Distinction merges
// give the same slot whatever order the sub-windows are folded in.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <numeric>
#include <optional>
#include <vector>

#include "src/common/hash.h"

#include "src/controller/merge.h"

namespace ow {
namespace {

FlowKey Key(std::uint32_t v) {
  return FlowKey(FlowKeyKind::kFiveTuple, FiveTuple{v, ~v, 7, 9, 17});
}

FlowRecord Rec(std::uint32_t key, std::uint64_t a0, SubWindowNum sw,
               std::uint32_t seq) {
  FlowRecord rec;
  rec.key = Key(key);
  rec.attrs = {a0, a0 ^ 0x9E37u, a0 * 3, a0 + 1};
  rec.num_attrs = 4;
  rec.subwindow = sw;
  rec.seq_id = seq;
  return rec;
}

// -------------------------------------------- load accounting (TryFindOrInsert)

TEST(KeyValueTableLoad, TryFindOrInsertCountsRejectionsInsteadOfThrowing) {
  KeyValueTable table(16);
  bool created = false;
  std::size_t accepted = 0;
  for (std::uint32_t i = 0; i < 16; ++i) {
    if (table.TryFindOrInsert(Key(i), created) != nullptr) ++accepted;
  }
  EXPECT_EQ(accepted, 14u);  // 7/8 of 16
  EXPECT_EQ(table.rejected_inserts(), 2u);
  EXPECT_DOUBLE_EQ(table.load_factor(), 14.0 / 16.0);
  // Existing keys still resolve at the load limit, without counting.
  EXPECT_NE(table.TryFindOrInsert(Key(0), created), nullptr);
  EXPECT_FALSE(created);
  EXPECT_EQ(table.rejected_inserts(), 2u);
  // The throwing entry point still throws, and also counts.
  EXPECT_THROW(table.FindOrInsert(Key(99), created), std::length_error);
  EXPECT_EQ(table.rejected_inserts(), 3u);
  // Clear keeps the counter (it is a lifetime stat).
  table.Clear();
  EXPECT_EQ(table.rejected_inserts(), 3u);
  EXPECT_DOUBLE_EQ(table.load_factor(), 0.0);
}

// ----------------------------------------------------------------- MergeBatch

std::vector<FlowRecord> RandomBatch(std::size_t n, std::uint32_t keys,
                                    std::uint64_t seed, SubWindowNum sw) {
  std::vector<FlowRecord> batch;
  batch.reserve(n);
  std::uint64_t s = seed;
  for (std::size_t i = 0; i < n; ++i) {
    s = Mix64(s + 1);
    batch.push_back(Rec(std::uint32_t(s % keys), (s >> 13) % 1000, sw,
                        std::uint32_t(i)));
  }
  return batch;
}

struct SlotDump {
  std::array<std::uint64_t, 4> attrs{};
  std::uint8_t num_attrs = 0;
  std::uint32_t last_subwindow = 0;
  bool operator==(const SlotDump&) const = default;
};

std::map<FlowKey, SlotDump> Dump(const KeyValueTable& table) {
  std::map<FlowKey, SlotDump> out;
  table.ForEach([&](const KvSlot& slot) {
    out[slot.key] = {slot.attrs, slot.num_attrs, slot.last_subwindow};
  });
  return out;
}

/// The per-record merge MergeBatch must reproduce: look up (or insert) the
/// record's slot, then fold the record in, one record at a time.
void MergeOneByOne(MergeKind kind, const std::vector<FlowRecord>& batch,
                   KeyValueTable& table) {
  for (const FlowRecord& rec : batch) {
    bool created = false;
    if (KvSlot* slot = table.TryFindOrInsert(rec.key, created)) {
      ApplyMerge(kind, *slot, created, rec);
    }
  }
}

class MergeBatchEquivalence : public ::testing::TestWithParam<MergeKind> {};

TEST_P(MergeBatchEquivalence, MatchesPerRecordReference) {
  const MergeKind kind = GetParam();
  // 2000 records over 700 keys: most keys repeat inside a batch, so pass 2
  // folds into slots pass 1 created for an earlier record of the same batch.
  std::vector<std::vector<FlowRecord>> batches;
  for (SubWindowNum sw = 0; sw < 6; ++sw) {
    batches.push_back(RandomBatch(2000, 700, 0xB00 + sw, sw));
  }
  KeyValueTable reference(1 << 12);
  for (const auto& batch : batches) MergeOneByOne(kind, batch, reference);

  KeyValueTable table(1 << 12);
  MergeScratch scratch;  // reused across batches, as the controller does
  for (const auto& batch : batches) {
    const MergeTiming timing = MergeBatch(kind, batch, table, scratch);
    EXPECT_GE(timing.insert, 0);
    EXPECT_GE(timing.merge, 0);
  }
  EXPECT_EQ(table.size(), reference.size());
  EXPECT_EQ(Dump(table), Dump(reference));
}

INSTANTIATE_TEST_SUITE_P(AllKinds, MergeBatchEquivalence,
                         ::testing::Values(MergeKind::kFrequency,
                                           MergeKind::kExistence,
                                           MergeKind::kMax, MergeKind::kMin,
                                           MergeKind::kDistinction,
                                           MergeKind::kXorSum));

TEST(MergeBatch, CountsRejectedInsertsAtTheLoadLimit) {
  // A 64-slot table flooded with ~4000 distinct keys: inserts stop at the
  // 7/8 load limit, later records of the admitted keys still fold in, and
  // every other record is counted as rejected, exactly as one by one.
  const auto batch = RandomBatch(4000, 4000, 77, 0);
  KeyValueTable reference(64);
  MergeOneByOne(MergeKind::kFrequency, batch, reference);

  KeyValueTable table(64);
  MergeScratch scratch;
  MergeBatch(MergeKind::kFrequency, batch, table, scratch);
  EXPECT_EQ(table.size(), 56u);  // 7/8 of 64
  EXPECT_GT(table.rejected_inserts(), 0u);
  EXPECT_EQ(table.rejected_inserts(), reference.rejected_inserts());
  EXPECT_EQ(Dump(table), Dump(reference));
}

// ------------------------------------------- merge-order independence (§4.2)

// kXorSum and kDistinction must give the same merged slot regardless of the
// order sub-windows arrive in. Every permutation of the records must yield
// a bit-identical slot.
void CheckAllPermutations(MergeKind kind,
                          const std::vector<FlowRecord>& records) {
  std::vector<std::size_t> order(records.size());
  std::iota(order.begin(), order.end(), 0);

  std::optional<KvSlot> expected;
  std::sort(order.begin(), order.end());
  do {
    KvSlot slot;
    bool first = true;
    for (const std::size_t i : order) {
      ApplyMerge(kind, slot, first, records[i]);
      first = false;
    }
    if (!expected) {
      expected = slot;
    } else {
      EXPECT_EQ(slot.attrs, expected->attrs);
      EXPECT_EQ(slot.num_attrs, expected->num_attrs);
      EXPECT_EQ(slot.last_subwindow, expected->last_subwindow);
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(MergeOrderIndependence, XorSumIsCommutativeAcrossSubWindows) {
  // IBF cells: attr0 counts sum, attrs 1..3 are XOR signatures.
  std::vector<FlowRecord> records;
  for (SubWindowNum sw = 0; sw < 5; ++sw) {
    FlowRecord rec = Rec(42, 100 + sw * 13, sw, sw);
    rec.attrs[1] = Mix64(sw * 3 + 1);
    rec.attrs[2] = Mix64(sw * 3 + 2);
    rec.attrs[3] = Mix64(sw * 3 + 3);
    records.push_back(rec);
  }
  CheckAllPermutations(MergeKind::kXorSum, records);
}

TEST(MergeOrderIndependence, DistinctionIsCommutativeAcrossSubWindows) {
  // 256-bit distinct signatures merge by OR.
  std::vector<FlowRecord> records;
  for (SubWindowNum sw = 0; sw < 5; ++sw) {
    FlowRecord rec = Rec(42, 0, sw, sw);
    for (std::size_t w = 0; w < 4; ++w) {
      rec.attrs[w] = Mix64(0xD15 + sw * 4 + w) & Mix64(0x7E57 + sw + w);
    }
    records.push_back(rec);
  }
  CheckAllPermutations(MergeKind::kDistinction, records);
}

}  // namespace
}  // namespace ow
