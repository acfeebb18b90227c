// Untrusted-snapshot hardening (the decode side of docs/snapshot_format.md).
//
// A checkpoint read back from disk may be truncated, bit-flipped or forged;
// the decoding contract is that every such stream fails with SnapshotError
// BEFORE it can OOM the process or mutate the object being restored. Pinned
// here: forged length prefixes bounded by the remaining stream,
// KeyValueTable::Load's strong exception guarantee (throw => table unchanged
// and still usable), its rejection of a live key its own probe cannot reach
// or that is stored twice, the live-slot encoding's round trip and exact
// size across the occupancy range, the durable-file framing (every bit flip
// and truncation of a WriteFile checkpoint is caught, with the error naming
// the section and absolute file offsets), the CRC-32 every checksum above
// rests on (known answers, a bytewise reference at every length and
// alignment, seed chaining), the delta-checkpoint encode/apply pair, the
// stream's version check (the previous version is refused), Switch::Load's
// event lanes (a forged lane count, an unsorted FIFO, a heap array that is
// not a heap, an unknown packet source or a saved next seq not above every
// restored event's seq throws), OmniWindowProgram::Load's collect state
// (a region other than 0 or 1, or more keys than the sub-window can
// enumerate, throws), and OmniWindowController::Load's ordered lists (a
// history out of sub-window order, or a pending sub-window's sequence list
// with a descending or repeated entry, throws).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
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
/// listed-slot count (8).
constexpr std::size_t kKvPairsAt = 8 + 4 + 8 + 8;
/// The bytes of one (index, slot) pair.
constexpr std::size_t kKvPairBytes = 8 + sizeof(KvSlot);
/// The trailing tallies: live slots (8) and rejected inserts (8).
constexpr std::size_t kKvTallyBytes = 8 + 8;

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
  bytes.resize(bytes.size() - 40);  // cut into the trailing tallies/entries

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

TEST(KvTableHardening, TamperedTallyIsCaughtBeforeCommit) {
  KeyValueTable src(64);
  Fill(src, 9, /*with_erasures=*/false);
  std::vector<std::uint8_t> bytes = SaveBytes(src);
  // Trailing fields are live(8) | rejected(8); bump `live` so the stream's
  // tally disagrees with the slots it describes.
  bytes[bytes.size() - 16] ^= 0x01;

  KeyValueTable dst(64);
  try {
    LoadInto(dst, bytes);
    FAIL() << "tally mismatch must throw";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("live slots"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(dst.size(), 0u);  // untouched: still the fresh empty table
  bool created = false;
  dst.FindOrInsert(Key(1), created);
  EXPECT_TRUE(created);
}

TEST(KvTableHardening, InvalidSlotStateByteIsRejected) {
  KeyValueTable src(64);
  Fill(src, 4, /*with_erasures=*/false);
  // 0x77 is a value no enumerator names; 2 was a tombstone up to format v4,
  // and no table writes it any more.
  for (const std::uint8_t state : {std::uint8_t{0x77}, std::uint8_t{2}}) {
    std::vector<std::uint8_t> bytes = SaveBytes(src);
    // Overwrite the state byte of the first listed (live) slot.
    bytes[kKvPairsAt + 8 + offsetof(KvSlot, state)] = state;

    KeyValueTable dst(64);
    try {
      LoadInto(dst, bytes);
      FAIL() << "state byte " << unsigned(state) << " must throw";
    } catch (const SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("invalid slot state " +
                                           std::to_string(state)),
                std::string::npos)
          << e.what();
    }
  }
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
  // Payload: listed count (8), then the one (index, slot) pair.
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
  // The lone live slot moved three slots past its home, tallies intact:
  // Find would stop at the empty home and miss it, and a later insert
  // would store the key a second time.
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
  w.Size(2);  // listed
  for (const std::uint64_t idx : {lone.home, lone.home + 1}) {
    w.U64(idx);
    w.Pod(lone.slot);
  }
  w.Size(2);  // live
  w.U64(0);   // rejected inserts
  ExpectKvCorrupt(w.Take(), "unreachable");
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
  // Header, one (index, slot) pair per live slot, tallies: nothing scales
  // with the provisioned capacity.
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
    // At the load ceiling the pairs plus their count still fit in the
    // bytes of the whole slot array, with equality only at 8 slots.
    const std::size_t pairs = 8 + ceiling * kKvPairBytes;
    EXPECT_LE(pairs, capacity * sizeof(KvSlot));
    EXPECT_EQ(pairs == capacity * sizeof(KvSlot), capacity == 8);
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
  // eight whole 8-byte words and every tail length after them.
  const std::vector<std::uint8_t> buf = SeededBytes(8 + 67, 0xC3C32);
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 67; ++len) {
      const std::uint8_t* p = buf.data() + start;
      ASSERT_EQ(Crc32(p, len), ReferenceCrc32(p, len))
          << "start " << start << " length " << len;
      ASSERT_EQ(Crc32(p, len, 0x12345678u),
                ReferenceCrc32(p, len, 0x12345678u))
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

// --- the stream version ----------------------------------------------------

TEST(SnapshotVersion, OtherVersionIsRejectedNamingBoth) {
  SnapshotWriter w;
  w.Section(snap::kSwitch);
  const std::vector<std::uint8_t> good = w.Take();
  ASSERT_NO_THROW(SnapshotReader{good});
  // The previous version (v8 still carried the Network section's clock
  // word) and the next one are both refused.
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

/// A hand-written kSwitch section: `fifo` and `heap` lanes in the listed
/// order and `next_seq` as the saved next seq (default: one above every
/// listed seq).
std::vector<std::uint8_t> SwitchSection(
    const std::vector<EventEntry>& fifo = {},
    const std::vector<EventEntry>& heap = {},
    std::optional<std::uint64_t> next_seq = std::nullopt) {
  SnapshotWriter w;
  w.Section(snap::kSwitch);
  std::uint64_t above = 0;
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
  w.U64(0);   // pass epoch
  return w.Take();
}

/// Offsets of the lane counts: header (8) and section tag (4), then the
/// FIFO count (8) and, with an empty FIFO, the heap count.
constexpr std::size_t kFifoCountOffset = 8 + 4;
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
                      const std::string& needle) {
  Switch sw(0);
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

/// Bytes of the collect state: two flags, six u32 fields, the u64 cursor.
constexpr std::size_t kCollectStateBytes = 2 + 6 * 4 + 8;
/// Offsets inside it: the region follows the flags and the sub-window, the
/// key count follows the region.
constexpr std::size_t kCollectRegionAt = 2 + 4;
constexpr std::size_t kCollectNumKeysAt = kCollectRegionAt + 4;

/// A fresh program's stream, and where its collect state starts. What
/// follows the collect state is fixed for a fresh program: four empty
/// counts (pending starts, collect keys, AFR cache, compromised set), five
/// u32 fields (two last writers, the started-through bound, the RoCE PSN,
/// the iteration base) and the stats.
std::pair<std::vector<std::uint8_t>, std::size_t> SaveFreshProgram(
    OmniWindowProgram& program) {
  SnapshotWriter w;
  program.Save(w);
  std::vector<std::uint8_t> bytes = w.Take();
  const std::size_t tail = 4 * 8 + 5 * 4 + sizeof(OmniWindowProgram::Stats);
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

// --- OmniWindowController::Load: ordered lists -------------------------------

/// A hand-written kController section for a controller with `cc`: an empty
/// flow table, one record-less history entry per `history` sub-window, and
/// one collecting pending sub-window (10) whose sequence list is `seqs`, in
/// the listed orders. Everything after them is empty or zero.
std::vector<std::uint8_t> ControllerSection(
    const ControllerConfig& cc, const std::vector<SubWindowNum>& history,
    const std::vector<std::uint32_t>& seqs) {
  SnapshotWriter w;
  w.Section(snap::kController);
  KeyValueTable(cc.kv_capacity).Save(w);
  w.Size(history.size());
  for (const SubWindowNum sub : history) {
    w.U32(sub);
    w.Size(0);  // records
  }
  // One pending sub-window: map key and sub-window 10, `seqs.size()`
  // expected data-plane records, no injected keys, no records, `seqs`.
  w.Size(1);
  w.U32(10);
  w.U32(10);
  w.U32(std::uint32_t(seqs.size()));
  w.U32(0);
  w.Size(0);
  w.Size(seqs.size());
  for (const std::uint32_t seq : seqs) w.U32(seq);
  // No injected key seen; collection started; no retransmit attempt; RDMA
  // not done; count not final; not drained; no holes; no mirror key; not
  // lost; no O1 cost.
  w.Size(0);
  w.Bool(true);
  w.U32(0);
  w.Bool(false);
  w.Bool(false);
  w.Bool(false);
  w.U32(0);
  w.Size(0);
  w.Bool(false);
  w.I64(0);
  // No spilled keys, spill sets or degraded marks; next to finalize and
  // table floor 10; twelve zero stats; no degraded sub-window list.
  w.Size(0);
  w.Size(0);
  w.Size(0);
  w.U32(10);
  w.U32(10);
  for (int i = 0; i < 12; ++i) w.U64(0);
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

}  // namespace
}  // namespace ow
