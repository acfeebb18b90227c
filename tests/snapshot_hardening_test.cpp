// Untrusted-snapshot hardening (the decode side of docs/snapshot_format.md).
//
// A checkpoint read back from disk may be truncated, bit-flipped or forged;
// the decoding contract is that every such stream fails with SnapshotError
// BEFORE it can OOM the process or mutate the object being restored. Pinned
// here: forged length prefixes bounded by the remaining stream,
// KeyValueTable::Load's strong exception guarantee (throw => table unchanged
// and still usable), its rejection of a live key its own probe cannot reach
// (under a wrong tag, past an unlisted slot, also on a walk that wraps) or
// that is stored twice, and of more live slots than the load limit allows,
// the live-slot encoding's round trip and exact size across the occupancy
// range, the attribute-count guard (a flow-table slot, history, pending or
// retransmission-cache record, or packet report record claiming more than
// its four attrs throws), the durable-file framing (every bit flip and
// truncation of a WriteFile checkpoint is caught, with the error naming
// the section and absolute file offsets), the CRC-32 every checksum above
// rests on (known answers, a bytewise reference at every length and
// alignment, seed chaining), the delta-checkpoint encode/apply pair, the
// stream's version check (the previous version is refused), Switch::Load's
// event lanes (a forged lane count, an unsorted FIFO, a heap array that is
// not a heap, an unknown packet source or a saved next seq not above every
// restored event's seq throws), OmniWindowProgram::Load's collect state
// (a region other than 0 or 1, or more keys than the sub-window can
// enumerate, throws), OmniWindowController::Load's ordered lists (a
// history out of sub-window order, or a pending sub-window's sequence list
// with a descending or repeated entry, throws), and the flow-key guard (a
// live table key whose length byte is forged past its 13 bytes, or a
// packet's injected key whose kind names no FlowKeyKind, throws before
// anything hashes it), including ExactCountApp's counted keys and their
// count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/packet.h"
#include "src/common/snapshot.h"
#include "src/controller/key_value_table.h"
#include "src/core/controller.h"
#include "src/core/data_plane.h"
#include "src/switchsim/pipeline.h"
#include "src/telemetry/cardinality_apps.h"
#include "src/telemetry/exact_count.h"

namespace ow {
namespace {

FlowKey Key(std::uint32_t id) {
  return FlowKey(FlowKeyKind::kSrcIp, FiveTuple{.src_ip = id});
}

/// Fill `table` with `n` live keys (deterministic contents), then erase
/// every fourth one so round-trips cover slots moved by backward shift.
void Fill(KeyValueTable& table, std::uint32_t n, bool with_erasures) {
  bool created = false;
  for (std::uint32_t i = 1; i <= n; ++i) {
    KvSlot& s = table.FindOrInsert(Key(i), created);
    s.attrs[0] = 100 + i;
    s.attrs[1] = i * 7;
    s.num_attrs = 2;
    s.last_subwindow = i;
  }
  if (with_erasures) {
    for (std::uint32_t i = 4; i <= n; i += 4) table.Erase(Key(i));
  }
}

std::vector<std::uint8_t> SaveBytes(const KeyValueTable& table) {
  SnapshotWriter w;
  table.Save(w);
  return w.Take();
}

/// A checkpoint lists every live slot, raw, with its index (and every other
/// slot is empty), so equal streams mean equal slot arrays.
bool BackingEqual(const KeyValueTable& a, const KeyValueTable& b) {
  return SaveBytes(a) == SaveBytes(b);
}

void LoadInto(KeyValueTable& table, const std::vector<std::uint8_t>& bytes) {
  SnapshotReader r(bytes);
  table.Load(r);
}

/// The stream offset of the first (index, slot) pair: after the writer
/// header (magic+version = 8), section tag (4), capacity (8) and the
/// live-slot count (8).
constexpr std::size_t kKvPairsAt = 8 + 4 + 8 + 8;
/// The bytes of one (index, slot) pair.
constexpr std::size_t kKvPairBytes = 8 + sizeof(KvSlot);
/// The trailing tally: rejected inserts (8).
constexpr std::size_t kKvTallyBytes = 8;

// --- forged length prefixes -------------------------------------------------

TEST(SnapshotHardening, ForgedHugeCountFailsBeforeAllocation) {
  SnapshotWriter w;
  w.Size(std::size_t{1} << 60);  // a PodVec length prefix with no payload
  const std::vector<std::uint8_t> bytes = w.Take();

  SnapshotReader r(bytes);
  std::vector<std::uint64_t> v;
  try {
    r.PodVec(v);
    FAIL() << "forged 2^60-element count must throw";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
  // The count was rejected before the container was sized: no OOM, and the
  // caller's vector is untouched.
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), 0u);
}

TEST(SnapshotHardening, TamperedLengthPrefixOfRealVectorIsCaught) {
  SnapshotWriter w;
  const std::vector<std::uint64_t> payload = {1, 2, 3, 4};
  w.PodVec(payload);
  std::vector<std::uint8_t> bytes = w.Take();
  // The length prefix sits right after the 8-byte header; forge it huge.
  const std::uint64_t huge = ~std::uint64_t{0} / 8;
  std::memcpy(bytes.data() + 8, &huge, 8);

  SnapshotReader r(bytes);
  std::vector<std::uint64_t> v;
  EXPECT_THROW(r.PodVec(v), SnapshotError);
  EXPECT_TRUE(v.empty());
}

TEST(SnapshotHardening, CountValidatesAgainstRemainingBytes) {
  SnapshotWriter w;
  w.Size(3);
  w.U64(0);  // only 8 payload bytes follow the count
  const std::vector<std::uint8_t> bytes = w.Take();
  SnapshotReader r(bytes);
  EXPECT_THROW((void)r.Count(16), SnapshotError);

  // Exact fit passes: 1 element x 8 bytes against 8 remaining.
  SnapshotWriter w2;
  w2.Size(1);
  w2.U64(42);
  const std::vector<std::uint8_t> ok = w2.Take();
  SnapshotReader r2(ok);
  EXPECT_EQ(r2.Count(8), 1u);
  EXPECT_EQ(r2.U64(), 42u);
}

TEST(SnapshotHardening, TruncationErrorNamesSectionAndOffset) {
  SnapshotWriter w;
  w.Section(snap::kKvTable);
  w.U64(7);
  std::vector<std::uint8_t> bytes = w.Take();
  bytes.resize(bytes.size() - 4);  // cut into the u64

  SnapshotReader r(bytes);
  r.Section(snap::kKvTable);
  try {
    (void)r.U64();
    FAIL() << "reading past a truncation must throw";
  } catch (const SnapshotError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("in section 0x1B"), std::string::npos) << msg;
    EXPECT_NE(msg.find("offset"), std::string::npos) << msg;
  }
}

// --- KeyValueTable::Load strong exception guarantee -------------------------

TEST(KvTableHardening, CapacityMismatchLeavesTableUntouchedAndUsable) {
  KeyValueTable src(64);
  Fill(src, 10, /*with_erasures=*/false);
  const std::vector<std::uint8_t> bytes = SaveBytes(src);

  KeyValueTable dst(128);
  Fill(dst, 5, /*with_erasures=*/false);
  KeyValueTable before(128);
  Fill(before, 5, /*with_erasures=*/false);

  EXPECT_THROW(LoadInto(dst, bytes), SnapshotError);
  EXPECT_TRUE(BackingEqual(dst, before)) << "failed Load mutated the table";
  EXPECT_EQ(dst.size(), 5u);
  // The table must remain fully usable after the rejected restore.
  ASSERT_NE(dst.Find(Key(3)), nullptr);
  EXPECT_EQ(dst.Find(Key(3))->attrs[0], 103u);
  bool created = false;
  dst.FindOrInsert(Key(999), created);
  EXPECT_TRUE(created);
  EXPECT_EQ(dst.size(), 6u);
}

TEST(KvTableHardening, TruncatedStreamLeavesTableUntouchedAndUsable) {
  KeyValueTable src(64);
  Fill(src, 12, /*with_erasures=*/true);
  std::vector<std::uint8_t> bytes = SaveBytes(src);
  bytes.resize(bytes.size() - 40);  // cut into the last pair

  KeyValueTable dst(64);
  Fill(dst, 5, /*with_erasures=*/false);
  KeyValueTable before(64);
  Fill(before, 5, /*with_erasures=*/false);

  EXPECT_THROW(LoadInto(dst, bytes), SnapshotError);
  EXPECT_TRUE(BackingEqual(dst, before)) << "failed Load mutated the table";
  bool created = false;
  dst.FindOrInsert(Key(31), created);
  EXPECT_TRUE(created);
}

/// A one-key 64-slot table's checkpoint, and the slot index it was saved at
/// (the key's home: it is alone).
struct LoneKey {
  std::vector<std::uint8_t> bytes;
  std::uint64_t home = 0;
  KvSlot slot;
};

LoneKey SaveLoneKey(std::uint32_t id) {
  KeyValueTable table(64);
  bool created = false;
  table.FindOrInsert(Key(id), created).attrs[0] = 7;
  LoneKey lone;
  lone.bytes = SaveBytes(table);
  // Payload: live count (8), then the one (index, slot) pair.
  std::memcpy(&lone.home, lone.bytes.data() + kKvPairsAt, 8);
  std::memcpy(&lone.slot, lone.bytes.data() + kKvPairsAt + 8, sizeof(KvSlot));
  return lone;
}

void ExpectKvCorrupt(const std::vector<std::uint8_t>& bytes,
                     const std::string& needle) {
  KeyValueTable dst(64);
  try {
    LoadInto(dst, bytes);
    FAIL() << "forged stream loaded; expected \"" << needle << "\"";
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("section 0x1B"), std::string::npos) << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
  EXPECT_EQ(dst.size(), 0u);
}

TEST(KvTableHardening, KeyPastAnEmptySlotOnItsProbeIsRejected) {
  // The lone live slot moved three slots past its home: Find would stop
  // at the empty home and miss it, and a later insert would store the key
  // a second time.
  LoneKey lone = SaveLoneKey(5);
  const std::uint64_t moved = (lone.home + 3) % 64;
  std::memcpy(lone.bytes.data() + kKvPairsAt, &moved, 8);
  ExpectKvCorrupt(lone.bytes, "unreachable");
}

TEST(KvTableHardening, KeyStoredTwiceIsRejected) {
  // The same key in two adjacent slots from its home on: both reachable,
  // but Find only ever returns the first, and ForEach visits it twice.
  std::uint32_t id = 1;
  while (SaveLoneKey(id).home >= 63) ++id;
  const LoneKey lone = SaveLoneKey(id);
  SnapshotWriter w;
  w.Section(snap::kKvTable);
  w.Size(64); // capacity
  w.Size(2);  // live
  for (const std::uint64_t idx : {lone.home, lone.home + 1}) {
    w.U64(idx);
    w.Pod(lone.slot);
  }
  w.U64(0);   // rejected inserts
  ExpectKvCorrupt(w.Take(), "unreachable");
}

TEST(KvTableHardening, WrongHashTagIsRejected) {
  // Find compares the cached tag before the key, so it never finds a slot
  // under another tag, and a later insert would store the key again.
  LoneKey lone = SaveLoneKey(5);
  lone.slot.hash_tag ^= 1;
  std::memcpy(lone.bytes.data() + kKvPairsAt + 8, &lone.slot, sizeof(KvSlot));
  ExpectKvCorrupt(lone.bytes, "unreachable");
}

TEST(KvTableHardening, ClusterWrappingPastTheLastSlotLoadsOnlyWhole) {
  // Three keys whose home is the last slot fill slots 63, 0 and 1, so the
  // walks to the last two wrap: Load finds their home among the pairs at
  // the end of the list.
  std::vector<std::uint32_t> ids;
  for (std::uint32_t id = 1; ids.size() < 3; ++id) {
    if (SaveLoneKey(id).home == 63) ids.push_back(id);
  }
  KeyValueTable src(64);
  bool created = false;
  for (const std::uint32_t id : ids) src.FindOrInsert(Key(id), created);
  const std::vector<std::uint8_t> bytes = SaveBytes(src);
  KeyValueTable dst(64);
  ASSERT_NO_THROW(LoadInto(dst, bytes));
  for (const std::uint32_t id : ids) EXPECT_NE(dst.Find(Key(id)), nullptr);
  EXPECT_EQ(SaveBytes(dst), bytes);
  // Without the pair at slot 63, the keys at slots 0 and 1 sit past an
  // empty slot.
  SnapshotWriter w;
  w.Section(snap::kKvTable);
  w.Size(64);  // capacity
  w.Size(2);   // live
  w.Bytes(bytes.data() + kKvPairsAt, 2 * kKvPairBytes);
  w.U64(0);    // rejected inserts
  ExpectKvCorrupt(w.Take(), "unreachable");
}

TEST(KvTableHardening, LiveCountPastTheLoadLimitIsRejected) {
  // 57 pairs for 64 slots: one more than the 7/8 load limit lets a table
  // hold.
  SnapshotWriter w;
  w.Section(snap::kKvTable);
  w.Size(64);  // capacity
  w.Size(57);  // live
  for (std::uint64_t idx = 0; idx < 57; ++idx) {
    w.U64(idx);
    w.Pod(KvSlot{.key = Key(std::uint32_t(idx))});
  }
  w.U64(0);    // rejected inserts
  ExpectKvCorrupt(w.Take(), "57 live slots exceed the load limit 56");
}

/// FlowKey's layout: 13 key bytes, then the length byte, then the kind.
constexpr std::size_t kKeyLengthAt = 13;
constexpr std::size_t kKeyKindAt = 14;

TEST(KvTableHardening, ForgedKeyLengthIsRejectedBeforeHashing) {
  // bytes() and every hash trust a key's length byte. Set to 200 on the
  // last live key, it would send Load's reachability hash past the end of
  // the slot array.
  KeyValueTable src(64);
  Fill(src, 56, /*with_erasures=*/false);
  std::vector<std::uint8_t> bytes = SaveBytes(src);
  // The last (index, slot) pair ends where the rejected-insert tally begins.
  const std::size_t last_key =
      bytes.size() - kKvTallyBytes - sizeof(KvSlot) + offsetof(KvSlot, key);
  ASSERT_EQ(bytes[last_key + kKeyLengthAt], 4u);  // a kSrcIp key
  bytes[last_key + kKeyLengthAt] = 200;
  ExpectKvCorrupt(bytes, "live slot's key is not a well-formed flow key");
}

TEST(KvTableHardening, ForgedNumAttrsIsRejected) {
  // Merge and eviction index attrs[i] for every i below num_attrs; the
  // array holds four.
  KeyValueTable src(64);
  Fill(src, 3, /*with_erasures=*/false);
  std::vector<std::uint8_t> bytes = SaveBytes(src);
  const std::size_t num_attrs_at = kKvPairsAt + 8 + offsetof(KvSlot, num_attrs);
  ASSERT_EQ(bytes[num_attrs_at], 2u);
  bytes[num_attrs_at] = 4;
  KeyValueTable dst(64);
  ASSERT_NO_THROW(LoadInto(dst, bytes));
  bytes[num_attrs_at] = 200;
  ExpectKvCorrupt(bytes, "a live slot holds num_attrs 200, more than its 4");
}

TEST(KvTableHardening, SparseIndexOutOfOrderOrBeyondCapacityRejected) {
  KeyValueTable src(64);
  Fill(src, 2, /*with_erasures=*/false);
  std::vector<std::uint8_t> bytes = SaveBytes(src);
  // Forge the first pair's slot index beyond the capacity.
  const std::uint64_t beyond = 64;
  std::memcpy(bytes.data() + kKvPairsAt, &beyond, 8);

  KeyValueTable dst(64);
  EXPECT_THROW(LoadInto(dst, bytes), SnapshotError);
}

// --- the live-slot encoding ------------------------------------------------

TEST(KvTableHardening, RoundTripAcrossOccupancies) {
  // Capacity 64 => insert ceiling 56 (7/8 load).
  for (const std::uint32_t occupancy : {0u, 1u, 31u, 32u, 40u, 56u}) {
    SCOPED_TRACE("occupancy=" + std::to_string(occupancy));
    KeyValueTable src(64);
    Fill(src, occupancy, /*with_erasures=*/occupancy >= 8);

    const std::vector<std::uint8_t> bytes = SaveBytes(src);
    KeyValueTable dst(64);
    LoadInto(dst, bytes);
    EXPECT_TRUE(BackingEqual(src, dst))
        << "slot array diverged after round-trip";
    EXPECT_EQ(src.size(), dst.size());
    EXPECT_EQ(src.load_factor(), dst.load_factor());
    EXPECT_EQ(src.rejected_inserts(), dst.rejected_inserts());
    // The restored table re-saves to the byte-identical stream.
    EXPECT_EQ(SaveBytes(dst), bytes);
  }
}

TEST(KvTableHardening, CheckpointBytesAreExactlyTheLiveSlots) {
  // Header, one (index, slot) pair per live slot, the rejected-insert
  // tally: nothing scales with the provisioned capacity.
  for (const std::size_t capacity : {std::size_t{8}, std::size_t{64},
                                     std::size_t{1} << 12}) {
    const std::size_t ceiling = capacity - capacity / 8;
    for (const std::size_t occupancy :
         {std::size_t{0}, std::size_t{1}, ceiling / 2, ceiling}) {
      SCOPED_TRACE("capacity=" + std::to_string(capacity) +
                   " occupancy=" + std::to_string(occupancy));
      KeyValueTable table(capacity);
      Fill(table, std::uint32_t(occupancy), /*with_erasures=*/false);
      ASSERT_EQ(table.size(), occupancy);
      EXPECT_EQ(SaveBytes(table).size(),
                kKvPairsAt + occupancy * kKvPairBytes + kKvTallyBytes);
    }
    // At the load ceiling the pairs take exactly the bytes of the whole
    // slot array: a pair is 8/7 of a slot.
    EXPECT_EQ(ceiling * kKvPairBytes, capacity * sizeof(KvSlot));
  }
}

// --- durable file framing ---------------------------------------------------

class TempFile {
 public:
  explicit TempFile(std::string path) : path_(std::move(path)) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void WriteRaw(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()), std::streamsize(b.size()));
  ASSERT_TRUE(out.good());
}

std::vector<std::uint8_t> ReadRaw(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  std::vector<std::uint8_t> b(std::size_t(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(b.data()), std::streamsize(b.size()));
  return b;
}

/// A small two-section checkpoint; returns the payload and the stream
/// offset at which the second section starts.
SnapshotWriter TwoSectionWriter(std::size_t* second_section_offset) {
  SnapshotWriter w;
  KeyValueTable table(64);
  Fill(table, 10, /*with_erasures=*/true);
  table.Save(w);
  *second_section_offset = w.buffer().size();
  w.Section(snap::kController);
  for (std::uint64_t i = 0; i < 32; ++i) w.U64(i * 3);
  return w;
}

TEST(SnapshotFile, WriteReadRoundTrip) {
  TempFile tmp("snapshot_hardening_roundtrip.owsnap");
  std::size_t second = 0;
  SnapshotWriter w = TwoSectionWriter(&second);
  const std::vector<std::uint8_t> payload = w.buffer();
  w.WriteFile(tmp.path());

  const std::vector<std::uint8_t> back = ReadSnapshotFile(tmp.path());
  EXPECT_EQ(back, payload);

  // The payload restores: both sections parse to the saved contents.
  SnapshotReader r(back);
  KeyValueTable table(64);
  table.Load(r);
  EXPECT_EQ(table.size(), 8u);  // 10 inserts, 2 erased (4 and 8)
  r.Section(snap::kController);
  for (std::uint64_t i = 0; i < 32; ++i) EXPECT_EQ(r.U64(), i * 3);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SnapshotFile, EveryBitFlipIsCaught) {
  TempFile tmp("snapshot_hardening_bitflip.owsnap");
  std::size_t second = 0;
  TwoSectionWriter(&second).WriteFile(tmp.path());
  const std::vector<std::uint8_t> good = ReadRaw(tmp.path());
  ASSERT_GT(good.size(), 0u);

  // Flip one bit at EVERY byte of the file — payload, per-section index and
  // footer alike — and each corrupted file must fail to load. This is the
  // no-silent-misload guarantee the durable framing exists for.
  for (std::size_t off = 0; off < good.size(); ++off) {
    std::vector<std::uint8_t> bad = good;
    bad[off] ^= 0x40;
    WriteRaw(tmp.path(), bad);
    EXPECT_THROW((void)ReadSnapshotFile(tmp.path()), SnapshotError)
        << "bit flip at file offset " << off << " loaded successfully";
  }
}

TEST(SnapshotFile, EveryTruncationIsCaught) {
  TempFile tmp("snapshot_hardening_trunc.owsnap");
  std::size_t second = 0;
  TwoSectionWriter(&second).WriteFile(tmp.path());
  const std::vector<std::uint8_t> good = ReadRaw(tmp.path());

  for (std::size_t len = 0; len < good.size(); len += 13) {
    std::vector<std::uint8_t> bad(good.begin(), good.begin() + len);
    WriteRaw(tmp.path(), bad);
    EXPECT_THROW((void)ReadSnapshotFile(tmp.path()), SnapshotError)
        << "truncation to " << len << " bytes loaded successfully";
  }
  // And the off-by-one cut right before the footer's last byte.
  std::vector<std::uint8_t> bad(good.begin(), good.end() - 1);
  WriteRaw(tmp.path(), bad);
  EXPECT_THROW((void)ReadSnapshotFile(tmp.path()), SnapshotError);
}

TEST(SnapshotFile, CorruptionIsLocalizedToSectionAndOffsets) {
  TempFile tmp("snapshot_hardening_localize.owsnap");
  std::size_t second = 0;
  SnapshotWriter w = TwoSectionWriter(&second);
  const std::size_t payload_len = w.buffer().size();
  w.WriteFile(tmp.path());
  const std::vector<std::uint8_t> good = ReadRaw(tmp.path());

  // A bad byte inside the SECOND section must be blamed on it by tag, with
  // the absolute file offset range.
  {
    std::vector<std::uint8_t> bad = good;
    bad[second + 6] ^= 0x01;
    WriteRaw(tmp.path(), bad);
    try {
      (void)ReadSnapshotFile(tmp.path());
      FAIL() << "corrupt section must throw";
    } catch (const SnapshotError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("section 0x1C"), std::string::npos) << msg;
      EXPECT_NE(msg.find("[" + std::to_string(second) + ", " +
                         std::to_string(payload_len) + ")"),
                std::string::npos)
          << msg;
    }
  }
  // A bad byte in the index region with an INTACT payload is still a
  // corrupt checkpoint — and says so rather than blaming the payload.
  {
    std::vector<std::uint8_t> bad = good;
    bad[payload_len + 2] ^= 0x01;
    WriteRaw(tmp.path(), bad);
    try {
      (void)ReadSnapshotFile(tmp.path());
      FAIL() << "corrupt section index must throw";
    } catch (const SnapshotError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("section index corrupt"), std::string::npos) << msg;
      EXPECT_NE(msg.find("payload CRC intact"), std::string::npos) << msg;
    }
  }
}

TEST(SnapshotFile, MissingFileThrows) {
  EXPECT_THROW((void)ReadSnapshotFile("snapshot_hardening_nonexistent.owsnap"),
               SnapshotError);
}

// --- CRC-32 ----------------------------------------------------------------

/// Bit-at-a-time CRC-32 (IEEE 802.3, reflected), the definition the
/// table-driven Crc32 must reproduce for every input and seed.
std::uint32_t ReferenceCrc32(const std::uint8_t* p, std::size_t n,
                             std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

std::vector<std::uint8_t> SeededBytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> v(n);
  std::uint64_t x = seed;
  for (std::uint8_t& b : v) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    b = std::uint8_t(x >> 56);
  }
  return v;
}

TEST(Crc32, KnownAnswers) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(check, 0), 0u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0-67 cover the empty input, the bytewise tail alone, one to
  // eight whole 8-byte words and every tail length after them. From 64 B
  // on, x86-64 hosts with PCLMULQDQ fold the 16-byte multiple with
  // carry-less multiplies (four lanes of 64 B, then single 16-byte folds)
  // and finish the tail with tables, so every length on either side of a
  // 16-byte edge up to 4 KB is checked too, at 16 alignments, seeded and
  // unseeded.
  constexpr std::size_t kMaxLen = 4096 + 17;
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= kMaxLen; ++len) {
    if (len <= 67 || len % 16 == 15 || len % 16 <= 1) lengths.push_back(len);
  }
  const std::vector<std::uint8_t> buf = SeededBytes(16 + kMaxLen, 0xC3C32);
  for (std::size_t start = 0; start < 16; ++start) {
    const std::uint8_t* p = buf.data() + start;
    // The reference runs once over the buffer, chained from length to
    // length through its seed.
    std::size_t done = 0;
    std::uint32_t ref = 0, ref_seeded = 0x12345678u;
    for (const std::size_t len : lengths) {
      ref = ReferenceCrc32(p + done, len - done, ref);
      ref_seeded = ReferenceCrc32(p + done, len - done, ref_seeded);
      done = len;
      ASSERT_EQ(Crc32(p, len), ref) << "start " << start << " length " << len;
      ASSERT_EQ(Crc32(p, len, 0x12345678u), ref_seeded)
          << "seeded, start " << start << " length " << len;
    }
  }
}

TEST(Crc32, SeedChainingMatchesOnePassAtEverySplit) {
  const std::vector<std::uint8_t> buf = SeededBytes(1024, 0x5EED);
  const std::uint32_t whole = Crc32(buf.data(), buf.size());
  ASSERT_EQ(whole, ReferenceCrc32(buf.data(), buf.size()));
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    const std::uint32_t head = Crc32(buf.data(), split);
    ASSERT_EQ(Crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split at " << split;
  }
}

// --- delta checkpoints ------------------------------------------------------

std::vector<std::uint8_t> Pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::uint8_t(seed + i * 31 + (i >> 5));
  }
  return v;
}

TEST(SnapshotDelta, RoundTripAcrossShapes) {
  const std::vector<std::uint8_t> base = Pattern(4096, 7);

  std::vector<std::vector<std::uint8_t>> nexts;
  nexts.push_back(base);  // identical
  {
    std::vector<std::uint8_t> v = base;  // scattered small edits
    v[10] ^= 0xFF;
    v[1000] = 0;
    v[1001] = 1;
    v[4000] ^= 0x80;
    nexts.push_back(std::move(v));
  }
  {
    std::vector<std::uint8_t> v = base;  // grown tail
    v.insert(v.end(), 512, 0xAB);
    nexts.push_back(std::move(v));
  }
  nexts.push_back({base.begin(), base.begin() + 100});  // shrunk
  nexts.push_back({});                                  // emptied
  nexts.push_back(Pattern(4096, 99));                   // fully rewritten

  for (std::size_t i = 0; i < nexts.size(); ++i) {
    SCOPED_TRACE("case=" + std::to_string(i));
    const std::vector<std::uint8_t> delta = EncodeSnapshotDelta(base, nexts[i]);
    EXPECT_EQ(ApplySnapshotDelta(base, delta), nexts[i]);
  }

  // From an empty base (the standby's first keyframe-less state).
  const std::vector<std::uint8_t> from_empty = EncodeSnapshotDelta({}, base);
  EXPECT_EQ(ApplySnapshotDelta({}, from_empty), base);

  // Localized edits must ship far fewer bytes than the full snapshot.
  const std::vector<std::uint8_t> small = EncodeSnapshotDelta(base, nexts[1]);
  EXPECT_LT(small.size(), base.size() / 4);
}

TEST(SnapshotDelta, WrongBaseThrows) {
  const std::vector<std::uint8_t> base = Pattern(1024, 1);
  std::vector<std::uint8_t> next = base;
  next[77] ^= 0x0F;
  const std::vector<std::uint8_t> delta = EncodeSnapshotDelta(base, next);

  std::vector<std::uint8_t> other = base;
  other[500] ^= 0x01;
  try {
    (void)ApplySnapshotDelta(other, delta);
    FAIL() << "applying a delta to the wrong base must throw";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("wrong base"), std::string::npos)
        << e.what();
  }
}

TEST(SnapshotDelta, EveryBitFlipAndTruncationIsCaught) {
  const std::vector<std::uint8_t> base = Pattern(512, 3);
  std::vector<std::uint8_t> next = base;
  next[5] ^= 0xFF;
  next[200] = 0;
  next[510] ^= 0x01;
  next.insert(next.end(), 64, 0x5C);
  const std::vector<std::uint8_t> delta = EncodeSnapshotDelta(base, next);
  ASSERT_EQ(ApplySnapshotDelta(base, delta), next);

  for (std::size_t off = 0; off < delta.size(); ++off) {
    std::vector<std::uint8_t> bad = delta;
    bad[off] ^= 0x20;
    EXPECT_THROW((void)ApplySnapshotDelta(base, bad), SnapshotError)
        << "delta bit flip at offset " << off << " applied successfully";
  }
  for (std::size_t len = 0; len < delta.size(); ++len) {
    const std::vector<std::uint8_t> bad(delta.begin(), delta.begin() + len);
    EXPECT_THROW((void)ApplySnapshotDelta(base, bad), SnapshotError)
        << "delta truncated to " << len << " bytes applied successfully";
  }
}

/// The byte-at-a-time encoder EncodeSnapshotDelta replaced: the same
/// stream layout, with ranges found by comparing one byte at a time. A
/// range ends after kMergeGap + 1 equal bytes or at the end of the common
/// prefix.
std::vector<std::uint8_t> BytewiseDelta(std::span<const std::uint8_t> base,
                                        std::span<const std::uint8_t> next) {
  constexpr std::size_t kMergeGap = 16;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;  // (off, len)
  const std::size_t common = std::min(base.size(), next.size());
  std::size_t i = 0;
  while (i < common) {
    if (base[i] == next[i]) {
      ++i;
      continue;
    }
    std::size_t end = i + 1;
    std::size_t j = i + 1;
    std::size_t equal_run = 0;
    while (j < common && equal_run <= kMergeGap) {
      if (base[j] != next[j]) {
        end = j + 1;
        equal_run = 0;
      } else {
        ++equal_run;
      }
      ++j;
    }
    ranges.emplace_back(i, end - i);
    i = j;
  }
  if (next.size() > common) {
    if (!ranges.empty() &&
        ranges.back().first + ranges.back().second == common) {
      ranges.back().second += next.size() - common;
    } else {
      ranges.emplace_back(common, next.size() - common);
    }
  }
  std::vector<std::uint8_t> out;
  const auto put = [&out](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    out.insert(out.end(), b, b + n);
  };
  const std::uint32_t base_crc = Crc32(base.data(), base.size());
  const std::uint32_t result_crc = Crc32(next.data(), next.size());
  const std::uint64_t base_len = base.size(), result_len = next.size();
  const std::uint64_t count = ranges.size();
  put(&kSnapshotDeltaMagic, 4);
  put(&base_crc, 4);
  put(&result_crc, 4);
  put(&base_len, 8);
  put(&result_len, 8);
  put(&count, 8);
  for (const auto& [off, len] : ranges) {
    const std::uint64_t o = off, l = len;
    put(&o, 8);
    put(&l, 8);
    put(next.data() + off, len);
  }
  return out;
}

TEST(SnapshotDelta, RangesMatchTheBytewiseEncoder) {
  const auto check = [](const std::vector<std::uint8_t>& base,
                        const std::vector<std::uint8_t>& next,
                        const std::string& what) {
    const std::vector<std::uint8_t> delta = EncodeSnapshotDelta(base, next);
    ASSERT_EQ(delta, BytewiseDelta(base, next)) << what;
    ASSERT_EQ(ApplySnapshotDelta(base, delta), next) << what;
  };
  const std::vector<std::uint8_t> base = Pattern(1000, 5);
  // Two edits separated by a gap of 15 to 18 equal bytes, at offsets that
  // put the gap inside one 64-byte block and across a block edge.
  for (const std::size_t gap : {15u, 16u, 17u, 18u}) {
    for (const std::size_t at : {3u, 50u, 60u, 63u, 64u, 120u}) {
      std::vector<std::uint8_t> next = base;
      next[at] ^= 0x01;
      next[at + 1 + gap] ^= 0x01;
      check(base, next, "gap " + std::to_string(gap) + " at " +
                            std::to_string(at));
      // The second edit a run of four bytes long.
      for (std::size_t k = 0; k < 4; ++k) next[at + 1 + gap + k] ^= 0x40;
      check(base, next, "gap " + std::to_string(gap) + " before a run at " +
                            std::to_string(at));
    }
  }
  {
    std::vector<std::uint8_t> next = base;  // the last byte differs
    next.back() ^= 0x80;
    check(base, next, "last byte");
    next.push_back(7);  // and the result grows right after it
    check(base, next, "last byte, then growth");
  }
  // A run that ends fewer than 17 bytes before the end of the common
  // prefix, with growth, shrink and equal length after it.
  for (std::size_t before_end = 1; before_end <= 18; ++before_end) {
    std::vector<std::uint8_t> next = base;
    next[base.size() - before_end - 3] ^= 0x11;
    next[base.size() - before_end - 1] ^= 0x11;
    check(base, next, "equal length, " + std::to_string(before_end));
    std::vector<std::uint8_t> grown = next;
    grown.insert(grown.end(), 40, 0xEE);
    check(base, grown, "growth, " + std::to_string(before_end));
    const std::vector<std::uint8_t> shrunk(next.begin(), next.end() - 1);
    check(base, shrunk, "shrink, " + std::to_string(before_end));
  }
  check(base, base, "identical");
  check(base, Pattern(1000, 77), "fully rewritten");
  check(base, Pattern(1500, 77), "rewritten and grown");
  check(base, {base.begin(), base.begin() + 300}, "shrunk");
  check(base, {}, "emptied");
  check({}, base, "from empty");
  check(Pattern(37, 1), Pattern(37, 2), "shorter than a block");

  // Seeded random pairs with clustered edits: a few clusters of nearby
  // byte edits, sometimes a changed length.
  std::mt19937_64 rng(0xDE17A);
  for (int pair = 0; pair < 200; ++pair) {
    const std::size_t n = 1 + std::size_t(rng() % 3000);
    const std::vector<std::uint8_t> a = SeededBytes(n, rng());
    std::vector<std::uint8_t> b = a;
    const int clusters = int(rng() % 6);
    for (int c = 0; c < clusters; ++c) {
      const std::size_t at = std::size_t(rng() % n);
      const std::size_t edits = 1 + std::size_t(rng() % 12);
      for (std::size_t e = 0; e < edits; ++e) {
        const std::size_t k = at + std::size_t(rng() % 40);
        if (k < n) b[k] = std::uint8_t(rng());
      }
    }
    switch (rng() % 4) {
      case 0:
        b.resize(n + 1 + std::size_t(rng() % 100), 0x5A);  // grown
        break;
      case 1:
        b.resize(std::size_t(rng() % n));  // shrunk
        break;
      default:
        break;
    }
    check(a, b, "random pair " + std::to_string(pair));
  }
}

// --- the stream version ----------------------------------------------------

TEST(SnapshotVersion, OtherVersionIsRejectedNamingBoth) {
  SnapshotWriter w;
  w.Section(snap::kSwitch);
  const std::vector<std::uint8_t> good = w.Take();
  ASSERT_NO_THROW(SnapshotReader{good});
  // The previous version (v12 still wrote each table slot's state byte)
  // and the next one are both refused.
  for (const std::uint32_t other :
       {kSnapshotVersion - 1, kSnapshotVersion + 1}) {
    std::vector<std::uint8_t> bytes = good;
    std::memcpy(bytes.data() + 4, &other, 4);  // after the magic
    try {
      SnapshotReader r(bytes);
      FAIL() << "a version " << other << " stream was accepted";
    } catch (const SnapshotError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("version " + std::to_string(other)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("version " + std::to_string(kSnapshotVersion)),
                std::string::npos)
          << what;
    }
  }
}

// --- Switch::Load: the event lanes ------------------------------------------

/// A FIFO or heap lane event as Switch::Save writes it.
struct EventEntry {
  Nanos time;
  std::uint64_t seq;
  std::uint8_t source;  ///< PacketSource byte
  std::uint32_t id;     ///< carried in Packet::seq
};

/// The fed-trace fields a kSwitch section opens with.
struct TraceRef {
  std::uint64_t size = 0;
  std::uint64_t cursor = 0;
  std::uint64_t fingerprint = FingerprintPackets({});
};

/// A hand-written kSwitch section: the fed-trace fields, `fifo` and `heap`
/// lanes in the listed order and `next_seq` as the saved next seq
/// (default: one above every listed seq and every trace index).
std::vector<std::uint8_t> SwitchSection(
    const std::vector<EventEntry>& fifo = {},
    const std::vector<EventEntry>& heap = {},
    std::optional<std::uint64_t> next_seq = std::nullopt,
    const TraceRef& trace = {}) {
  SnapshotWriter w;
  w.Section(snap::kSwitch);
  w.U64(trace.size);
  w.U64(trace.cursor);
  w.U64(trace.fingerprint);
  std::uint64_t above = trace.size;
  for (const auto* lane : {&fifo, &heap}) {
    w.Size(lane->size());
    for (const EventEntry& ev : *lane) {
      w.I64(ev.time);
      w.U64(ev.seq);
      w.U8(ev.source);
      Packet p;
      p.seq = ev.id;
      SavePacket(w, p);
      above = std::max(above, ev.seq + 1);
    }
  }
  w.U64(next_seq.value_or(above));
  w.I64(-1);  // last dispatched
  w.U64(0);   // total passes
  w.U64(0);   // recirculation passes
  return w.Take();
}

/// Offsets of the lane counts: header (8), section tag (4) and the three
/// trace words (24), then the FIFO count (8) and, with an empty FIFO, the
/// heap count.
constexpr std::size_t kFifoCountOffset = 8 + 4 + 24;
constexpr std::size_t kHeapCountOffset = kFifoCountOffset + 8;

struct OrderProgram : SwitchProgram {
  void Process(Packet& p, Nanos, PacketSource src,
               PipelineActions&) override {
    order.push_back(p.seq);
    sources.push_back(src);
  }
  std::vector<std::uint32_t> order;
  std::vector<PacketSource> sources;
};

constexpr std::uint8_t kWireByte = std::uint8_t(PacketSource::kWire);

void ExpectLoadThrows(const std::vector<std::uint8_t>& bytes,
                      const std::string& needle,
                      std::span<const Packet> fed = {}) {
  Switch sw(0);
  sw.FeedTrace(fed);
  SnapshotReader r(bytes);
  try {
    sw.Load(r);
    FAIL() << "forged section loaded (expected \"" << needle << "\")";
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("section 0x14"), std::string::npos) << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

TEST(SwitchLoadHardening, UnsortedFifoLaneThrows) {
  // Dispatched as restored, a FIFO of [t=300, t=100] would run 300 first.
  ExpectLoadThrows(
      SwitchSection({{300, 0, kWireByte, 0}, {100, 1, kWireByte, 1}}),
      "FIFO entry 1");
  // Equal times must still increase in seq, and no entry may repeat.
  ExpectLoadThrows(
      SwitchSection({{100, 5, kWireByte, 0}, {100, 2, kWireByte, 1}}),
      "FIFO entry 1");
  ExpectLoadThrows(SwitchSection({{100, 0, kWireByte, 0},
                                  {200, 1, kWireByte, 1},
                                  {200, 1, kWireByte, 2}}),
                   "FIFO entry 2");
}

TEST(SwitchLoadHardening, NonHeapEventLaneThrows) {
  // [300, 100, 200] is not a min-heap: restored verbatim, it would pop 300
  // first.
  ExpectLoadThrows(SwitchSection({},
                                 {{300, 0, kWireByte, 0},
                                  {100, 1, kWireByte, 1},
                                  {200, 2, kWireByte, 2}}),
                   "heap");
}

TEST(SwitchLoadHardening, UnknownPacketSourceThrows) {
  const EventEntry forged{100, 0, 7, 0};
  ExpectLoadThrows(SwitchSection({forged}), "source byte 7");
  ExpectLoadThrows(SwitchSection({}, {forged}), "source byte 7");
}

TEST(SwitchLoadHardening, ValidLanesDispatchInTimeSeqOrder) {
  const auto ctl = std::uint8_t(PacketSource::kController);
  const auto recirc = std::uint8_t(PacketSource::kRecirculation);
  // Ids follow the (time, seq) dispatch order across both lanes. The FIFO
  // is sorted; the heap array [50, 200, 150] is a min-heap but not sorted.
  const std::vector<std::uint8_t> bytes = SwitchSection(
      {{100, 1, kWireByte, 1}, {100, 4, kWireByte, 2}, {300, 6, kWireByte, 5}},
      {{50, 3, recirc, 0}, {200, 7, ctl, 4}, {150, 2, ctl, 3}});
  Switch sw(0);
  auto prog = std::make_shared<OrderProgram>();
  sw.SetProgram(prog);
  SnapshotReader r(bytes);
  sw.Load(r);
  EXPECT_TRUE(r.AtEnd());
  sw.RunBatch(kSecond);
  EXPECT_EQ(prog->order, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(prog->sources,
            (std::vector<PacketSource>{
                PacketSource::kRecirculation, PacketSource::kWire,
                PacketSource::kWire, PacketSource::kController,
                PacketSource::kController, PacketSource::kWire}));
}

TEST(SwitchLoadHardening, NextSeqNotAboveRestoredEventsThrows) {
  // Restored events at t=100 with seq 5. A saved next seq of 2 would hand
  // the next enqueue at t=100 seq 2, and it would dispatch ahead of them.
  const EventEntry wire{100, 5, kWireByte, 0};
  const EventEntry injected{100, 5, std::uint8_t(PacketSource::kController),
                            0};
  for (const std::uint64_t forged : {2u, 5u}) {
    SCOPED_TRACE("next_seq=" + std::to_string(forged));
    ExpectLoadThrows(SwitchSection({wire}, {}, forged), "next seq");
    ExpectLoadThrows(SwitchSection({}, {injected}, forged), "next seq");
  }
  // One above the restored seq loads, and a new arrival at the same time
  // queues behind the restored one.
  const std::vector<std::uint8_t> bytes = SwitchSection({wire}, {}, 6);
  Switch sw(0);
  auto prog = std::make_shared<OrderProgram>();
  sw.SetProgram(prog);
  SnapshotReader r(bytes);
  sw.Load(r);
  Packet p;
  p.seq = 1;
  sw.EnqueueFromWire(p, 100);
  sw.RunBatch(kSecond);
  EXPECT_EQ(prog->order, (std::vector<std::uint32_t>{0, 1}));
}

/// Three trace packets, at 100, 200 and 300 ns.
std::vector<Packet> FedTrace() {
  std::vector<Packet> trace(3);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].ts = Nanos(i + 1) * 100;
    trace[i].seq = std::uint32_t(i);
  }
  return trace;
}

TEST(SwitchLoadHardening, TraceCursorPastTheTraceThrows) {
  const std::vector<Packet> trace = FedTrace();
  const std::uint64_t fp = FingerprintPackets(trace);
  ExpectLoadThrows(SwitchSection({}, {}, std::nullopt, {3, 4, fp}),
                   "cursor 4 is past the 3-packet trace", trace);
  // At the end of the trace, every packet has been dispatched: that loads.
  Switch sw(0);
  sw.FeedTrace(trace);
  const std::vector<std::uint8_t> bytes =
      SwitchSection({}, {}, std::nullopt, {3, 3, fp});
  SnapshotReader r(bytes);
  sw.Load(r);
  EXPECT_EQ(sw.NextEventTime(), -1);
}

TEST(SwitchLoadHardening, RingHeadBeforeTheTraceTailThrows) {
  // From cursor 1 the wire lane reads packets 1 and 2 of the trace, the
  // last at (300 ns, seq 2), then the ring. A ring head earlier than that,
  // or at its time without a later seq, would dispatch out of order.
  const std::vector<Packet> trace = FedTrace();
  const TraceRef ref{3, 1, FingerprintPackets(trace)};
  for (const EventEntry& head :
       {EventEntry{250, 5, kWireByte, 0}, EventEntry{300, 2, kWireByte, 0}}) {
    SCOPED_TRACE("head t=" + std::to_string(head.time) + " seq " +
                 std::to_string(head.seq));
    ExpectLoadThrows(SwitchSection({head}, {}, std::nullopt, ref),
                     "does not follow the trace's last packet", trace);
  }
  // A head after the tail loads and dispatches behind the trace.
  Switch sw(0);
  sw.FeedTrace(trace);
  auto prog = std::make_shared<OrderProgram>();
  sw.SetProgram(prog);
  const std::vector<std::uint8_t> bytes =
      SwitchSection({{300, 3, kWireByte, 7}}, {}, std::nullopt, ref);
  SnapshotReader r(bytes);
  sw.Load(r);
  sw.RunBatch(kSecond);
  EXPECT_EQ(prog->order, (std::vector<std::uint32_t>{1, 2, 7}));
}

TEST(SwitchLoadHardening, AnotherTraceThrows) {
  const std::vector<Packet> trace = FedTrace();
  std::vector<Packet> other = trace;
  other[1].ts = 150;
  ExpectLoadThrows(
      SwitchSection({}, {}, std::nullopt, {3, 0, FingerprintPackets(other)}),
      "fingerprint", trace);
  const std::uint64_t prefix = FingerprintPackets(std::span(trace).first(2));
  ExpectLoadThrows(SwitchSection({}, {}, std::nullopt, {2, 0, prefix}),
                   "trace holds 2 packets", trace);
}

TEST(SwitchLoadHardening, ForgedStagedCountFailsBeforeAllocation) {
  // Both event-lane counts are checked against the bytes left before the
  // lane is sized.
  const std::uint64_t huge = std::uint64_t{1} << 60;
  for (const std::size_t offset : {kFifoCountOffset, kHeapCountOffset}) {
    SCOPED_TRACE("count at offset " + std::to_string(offset));
    std::vector<std::uint8_t> bytes = SwitchSection();
    std::memcpy(bytes.data() + offset, &huge, 8);
    Switch sw(0);
    SnapshotReader r(bytes);
    try {
      sw.Load(r);
      FAIL() << "forged 2^60-event lane count must throw";
    } catch (const SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
          << e.what();
    }
  }
}

// --- OmniWindowProgram::Load: the collect state -----------------------------

/// Bytes of the collect state: two flags and six u32 fields.
constexpr std::size_t kCollectStateBytes = 2 + 6 * 4;
/// Offsets inside it: the region follows the flags and the sub-window, the
/// key count follows the region.
constexpr std::size_t kCollectRegionAt = 2 + 4;
constexpr std::size_t kCollectNumKeysAt = kCollectRegionAt + 4;

/// A fresh program's stream, and where its collect state starts. What
/// follows the collect state is fixed for a fresh program: four empty
/// counts (queued starts, collect keys, AFR cache, compromised set), four
/// u32 fields (two last writers, the started-through bound, the iteration
/// base) and the stats.
std::pair<std::vector<std::uint8_t>, std::size_t> SaveFreshProgram(
    OmniWindowProgram& program) {
  SnapshotWriter w;
  program.Save(w);
  std::vector<std::uint8_t> bytes = w.Take();
  const std::size_t tail = 4 * 8 + 4 * 4 + sizeof(OmniWindowProgram::Stats);
  const std::size_t collect_at = bytes.size() - tail - kCollectStateBytes;
  return {std::move(bytes), collect_at};
}

void LoadProgram(OmniWindowProgram& program,
                 const std::vector<std::uint8_t>& bytes) {
  SnapshotReader r(bytes);
  program.Load(r);
  EXPECT_TRUE(r.AtEnd());
}

void ExpectProgramLoadThrows(OmniWindowProgram& program,
                             const std::vector<std::uint8_t>& bytes,
                             const std::string& needle) {
  try {
    LoadProgram(program, bytes);
    FAIL() << "forged program section loaded (expected \"" << needle
           << "\")";
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("section 0x1A"), std::string::npos) << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

TEST(ProgramLoadHardening, ForgedRegionThrows) {
  // ForceFinishCollection indexes last_writer_[region] with the restored
  // value, so only 0 and 1 may load.
  OmniWindowProgram program({}, std::make_shared<ExactCountApp>());
  auto [bytes, collect_at] = SaveFreshProgram(program);
  for (const std::uint32_t region : {0u, 1u}) {
    std::memcpy(bytes.data() + collect_at + kCollectRegionAt, &region, 4);
    ASSERT_NO_THROW(LoadProgram(program, bytes)) << "region " << region;
  }
  for (const std::uint32_t region : {2u, 0xFFFFFFFFu}) {
    std::memcpy(bytes.data() + collect_at + kCollectRegionAt, &region, 4);
    ExpectProgramLoadThrows(program, bytes,
                            "region " + std::to_string(region));
  }
}

TEST(ProgramLoadHardening, ForgedNumKeysThrows) {
  // AFR apps: HandleCollection reads collect_keys_[idx] for every idx below
  // num_keys, so the count may not exceed the restored key list (empty for
  // a fresh program).
  {
    OmniWindowProgram program({}, std::make_shared<ExactCountApp>());
    auto [bytes, collect_at] = SaveFreshProgram(program);
    const std::uint32_t forged = 1;
    std::memcpy(bytes.data() + collect_at + kCollectNumKeysAt, &forged, 4);
    ExpectProgramLoadThrows(program, bytes, "num_keys 1");
  }
  // State-migration apps enumerate reset slices instead: up to
  // NumResetSlices() loads, one more throws.
  {
    auto app = std::make_shared<LinearCountingApp>(1024);
    OmniWindowProgram program({}, app);
    auto [bytes, collect_at] = SaveFreshProgram(program);
    const auto slices = std::uint32_t(app->NumResetSlices());
    std::memcpy(bytes.data() + collect_at + kCollectNumKeysAt, &slices, 4);
    ASSERT_NO_THROW(LoadProgram(program, bytes));
    const std::uint32_t forged = slices + 1;
    std::memcpy(bytes.data() + collect_at + kCollectNumKeysAt, &forged, 4);
    ExpectProgramLoadThrows(program, bytes,
                            "num_keys " + std::to_string(forged));
  }
}

TEST(ProgramLoadHardening, CachedRecordNumAttrsPastFourThrows) {
  // A retransmission answer re-sends cached records, which merge by
  // num_attrs. Splice one cached sub-window (3) holding one record in place
  // of a fresh program's empty cache: after the collect state come the
  // queued-start and collect-key counts, then the cache count.
  OmniWindowProgram program({}, std::make_shared<ExactCountApp>());
  const auto [fresh, collect_at] = SaveFreshProgram(program);
  const std::size_t cache_at = collect_at + kCollectStateBytes + 8 + 8;
  const auto with_record = [&](std::uint8_t num_attrs) {
    FlowRecord rec;
    rec.key = Key(9);
    rec.num_attrs = num_attrs;
    rec.subwindow = 3;
    std::vector<std::uint8_t> entry(8 + 4 + 8 + sizeof(FlowRecord));
    const std::uint64_t one = 1;
    const std::uint32_t sub = 3;
    std::memcpy(entry.data(), &one, 8);
    std::memcpy(entry.data() + 8, &sub, 4);
    std::memcpy(entry.data() + 12, &one, 8);
    std::memcpy(entry.data() + 20, &rec, sizeof(FlowRecord));
    std::vector<std::uint8_t> bytes = fresh;
    bytes.erase(bytes.begin() + std::ptrdiff_t(cache_at),
                bytes.begin() + std::ptrdiff_t(cache_at + 8));
    bytes.insert(bytes.begin() + std::ptrdiff_t(cache_at), entry.begin(),
                 entry.end());
    return bytes;
  };
  ASSERT_NO_THROW(LoadProgram(program, with_record(4)));
  ExpectProgramLoadThrows(
      program, with_record(5),
      "a retransmission-cache record holds num_attrs 5, more than its 4");
}

// --- LoadPacket: the injected key and report records ------------------------

TEST(PacketLoadHardening, ForgedInjectedKeyKindIsRejected) {
  // A kind byte no FlowKeyKind names (9) must not load into a packet that a
  // restored switch would inject and hash.
  Packet p;
  p.ow.present = true;
  p.ow.flag = OwFlag::kFlowkeyInject;
  p.ow.injected_key = FlowKey(
      FlowKeyKind::kFiveTuple,
      FiveTuple{.src_ip = 0xA1B2C3D4, .dst_ip = 0x0A0B0C0D, .src_port = 4242,
                .dst_port = 80, .proto = 6});
  SnapshotWriter w;
  SavePacket(w, p);
  std::vector<std::uint8_t> bytes = w.Take();
  {
    Packet q;
    SnapshotReader r(bytes);
    ASSERT_NO_THROW(LoadPacket(r, q));
    EXPECT_EQ(q.ow.injected_key, p.ow.injected_key);
  }
  const auto raw = p.ow.injected_key.bytes();
  const auto at =
      std::search(bytes.begin(), bytes.end(), raw.begin(), raw.end());
  ASSERT_NE(at, bytes.end());
  const std::size_t kind_at = std::size_t(at - bytes.begin()) + kKeyKindAt;
  ASSERT_EQ(bytes[kind_at], 0u);  // kFiveTuple
  bytes[kind_at] = 9;

  Packet q;
  SnapshotReader r(bytes);
  try {
    LoadPacket(r, q);
    FAIL() << "a packet with injected key kind 9 loaded";
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("section 0x20"), std::string::npos) << what;
    EXPECT_NE(what.find("injected key is not a well-formed flow key"),
              std::string::npos)
        << what;
  }
}

TEST(PacketLoadHardening, ReportRecordNumAttrsPastFourIsRejected) {
  // A report's records merge by num_attrs. The record list closes the
  // packet section, so its one record is the last 56 bytes.
  Packet p;
  p.ow.present = true;
  p.ow.flag = OwFlag::kAfrReport;
  p.ow.afrs.push_back(FlowRecord{.key = Key(5), .num_attrs = 4});
  SnapshotWriter w;
  SavePacket(w, p);
  std::vector<std::uint8_t> bytes = w.Take();
  const std::size_t num_attrs_at =
      bytes.size() - sizeof(FlowRecord) + offsetof(FlowRecord, num_attrs);
  ASSERT_EQ(bytes[num_attrs_at], 4u);
  {
    Packet q;
    SnapshotReader r(bytes);
    ASSERT_NO_THROW(LoadPacket(r, q));
    EXPECT_EQ(q.ow.afrs.size(), 1u);
  }
  bytes[num_attrs_at] = 200;
  Packet q;
  SnapshotReader r(bytes);
  try {
    LoadPacket(r, q);
    FAIL() << "a report record with num_attrs 200 loaded";
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("section 0x20"), std::string::npos) << what;
    EXPECT_NE(what.find("a report record holds num_attrs 200, more than its 4"),
              std::string::npos)
        << what;
  }
}

// --- ExactCountApp::LoadState -----------------------------------------------

TEST(AppLoadHardening, ExactCountRefusesForgedCountOrKey) {
  // One counted five-tuple in region 0: after the writer header and the
  // section tag come region 0's count, the key and its count, then region
  // 1's count.
  ExactCountApp src;
  Packet p;
  p.ft = FiveTuple{
      .src_ip = 1, .dst_ip = 2, .src_port = 3, .dst_port = 4, .proto = 6};
  src.Update(p, 0);
  SnapshotWriter w;
  src.SaveState(w);
  const std::vector<std::uint8_t> good = w.Take();
  constexpr std::size_t kCountAt = 8 + 4;
  constexpr std::size_t kKeyAt = kCountAt + 8;
  std::uint64_t count = 0;
  std::memcpy(&count, good.data() + kCountAt, 8);
  ASSERT_EQ(count, 1u);

  const auto load = [](const std::vector<std::uint8_t>& bytes) {
    ExactCountApp dst;
    SnapshotReader r(bytes);
    dst.LoadState(r);
  };
  ASSERT_NO_THROW(load(good));
  // A count the remaining bytes cannot hold fails before the map reserves.
  std::vector<std::uint8_t> bytes = good;
  const std::uint64_t huge = std::uint64_t{1} << 60;
  std::memcpy(bytes.data() + kCountAt, &huge, 8);
  EXPECT_THROW(load(bytes), SnapshotError);
  // A key length forged past its 13 bytes fails before the map hashes it.
  bytes = good;
  ASSERT_EQ(bytes[kKeyAt + kKeyLengthAt], 13u);  // a five-tuple key
  bytes[kKeyAt + kKeyLengthAt] = 200;
  try {
    load(bytes);
    FAIL() << "a counted key of length 200 loaded";
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("section 0x19"), std::string::npos) << what;
    EXPECT_NE(what.find("counted key is not a well-formed flow key"),
              std::string::npos)
        << what;
  }
}

// --- OmniWindowController::Load: ordered lists -------------------------------

/// A hand-written kController section for a controller with `cc`: an empty
/// flow table, one history entry per `history` sub-window holding
/// `history_records`, one collecting pending sub-window (10) whose sequence
/// list is `seqs` and whose records are `pending_records`, and, unless
/// `spilled` is empty, sub-window 10's spilled keys, in the listed orders.
/// Everything after them is empty or zero.
std::vector<std::uint8_t> ControllerSection(
    const ControllerConfig& cc, const std::vector<SubWindowNum>& history,
    const std::vector<std::uint32_t>& seqs,
    const std::vector<FlowKey>& spilled = {},
    const std::vector<FlowRecord>& history_records = {},
    const std::vector<FlowRecord>& pending_records = {}) {
  SnapshotWriter w;
  w.Section(snap::kController);
  KeyValueTable(cc.kv_capacity).Save(w);
  w.Size(history.size());
  for (const SubWindowNum sub : history) {
    w.U32(sub);
    w.PodVec(history_records);
  }
  // One pending sub-window: sub-window 10 (the map key), `seqs.size()`
  // expected data-plane records, no injected keys, `pending_records`,
  // `seqs`.
  w.Size(1);
  w.U32(10);
  w.U32(std::uint32_t(seqs.size()));
  w.U32(0);
  w.PodVec(pending_records);
  w.Size(seqs.size());
  for (const std::uint32_t seq : seqs) w.U32(seq);
  // No injected key seen; collection started; no retransmit attempt; count
  // not final; not lost; no O1 cost.
  w.Size(0);
  w.Bool(true);
  w.U32(0);
  w.Bool(false);
  w.Bool(false);
  w.I64(0);
  // Sub-window 10's spilled keys, if any; no degraded marks; next to
  // finalize and table floor 10; ten zero stats; no degraded sub-window
  // list.
  w.Size(spilled.empty() ? 0 : 1);
  if (!spilled.empty()) {
    w.U32(10);
    w.PodVec(spilled);
  }
  w.Size(0);
  w.U32(10);
  w.U32(10);
  for (int i = 0; i < 10; ++i) w.U64(0);
  w.Size(0);
  return w.Take();
}

void LoadController(const ControllerConfig& cc,
                    const std::vector<std::uint8_t>& bytes) {
  OmniWindowController ctl(cc, MergeKind::kFrequency);
  SnapshotReader r(bytes);
  ctl.Load(r);
  EXPECT_TRUE(r.AtEnd());
}

void ExpectControllerLoadThrows(const ControllerConfig& cc,
                                const std::vector<std::uint8_t>& bytes,
                                const std::string& needle) {
  try {
    LoadController(cc, bytes);
    FAIL() << "forged controller section loaded (expected \"" << needle
           << "\")";
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("section 0x1C"), std::string::npos) << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

TEST(ControllerLoadHardening, PendingSeqListNotStrictlyAscendingThrows) {
  // Completeness reads the list's n-th entry and inserts search it, so it
  // must load sorted and unique or not at all.
  ControllerConfig cc;
  cc.kv_capacity = 64;
  ASSERT_NO_THROW(LoadController(cc, ControllerSection(cc, {}, {2, 5, 9})));
  ExpectControllerLoadThrows(cc, ControllerSection(cc, {}, {9, 5, 2}),
                             "seq entry 1 (5) does not exceed entry 0 (9)");
  ExpectControllerLoadThrows(cc, ControllerSection(cc, {}, {2, 5, 5}),
                             "seq entry 2 (5) does not exceed entry 1 (5)");
}

TEST(ControllerLoadHardening, SpilledKeyListedTwiceThrows) {
  // Load rebuilds each sub-window's spilled-key set from its list, which
  // the dedupe only ever appended a key to once.
  ControllerConfig cc;
  cc.kv_capacity = 64;
  const FlowKey a(FlowKeyKind::kFiveTuple, FiveTuple{.src_ip = 1, .proto = 6});
  const FlowKey b(FlowKeyKind::kFiveTuple, FiveTuple{.src_ip = 2, .proto = 6});
  ASSERT_NO_THROW(LoadController(cc, ControllerSection(cc, {}, {}, {a, b})));
  ExpectControllerLoadThrows(cc, ControllerSection(cc, {}, {}, {a, b, a}),
                             "sub-window 10 lists a spilled key twice");
}

TEST(ControllerLoadHardening, HistoryOutOfSubWindowOrderThrows) {
  // O5, TrimHistory and QueryRange walk the history in sub-window order.
  ControllerConfig cc;
  cc.kv_capacity = 64;
  ASSERT_NO_THROW(LoadController(cc, ControllerSection(cc, {3, 4}, {})));
  ExpectControllerLoadThrows(cc, ControllerSection(cc, {4, 3}, {}),
                             "history entry 1 (sub-window 3)");
  ExpectControllerLoadThrows(cc, ControllerSection(cc, {4, 4}, {}),
                             "history entry 1 (sub-window 4)");
}

TEST(ControllerLoadHardening, HistoryRecordNumAttrsPastFourThrows) {
  // O5 eviction re-merges history records by num_attrs.
  ControllerConfig cc;
  cc.kv_capacity = 64;
  FlowRecord rec{.key = Key(3), .num_attrs = 4, .subwindow = 3};
  ASSERT_NO_THROW(
      LoadController(cc, ControllerSection(cc, {3}, {}, {}, {rec})));
  rec.num_attrs = 200;
  ExpectControllerLoadThrows(cc, ControllerSection(cc, {3}, {}, {}, {rec}),
                             "a history record holds num_attrs 200");
}

TEST(ControllerLoadHardening, PendingRecordNumAttrsPastFourThrows) {
  // Finalizing a pending sub-window merges its records by num_attrs.
  ControllerConfig cc;
  cc.kv_capacity = 64;
  FlowRecord rec{.key = Key(3), .num_attrs = 4, .seq_id = 0, .subwindow = 10};
  ASSERT_NO_THROW(
      LoadController(cc, ControllerSection(cc, {}, {0}, {}, {}, {rec})));
  rec.num_attrs = 200;
  ExpectControllerLoadThrows(cc, ControllerSection(cc, {}, {0}, {}, {}, {rec}),
                             "a pending record holds num_attrs 200");
}

}  // namespace
}  // namespace ow
