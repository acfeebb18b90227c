// Checkpoint serialization for bit-identical stop-and-resume.
//
// A snapshot captures the complete mutable state of a running simulation —
// switch event lanes, register cells, tracker blooms, controller pending
// state, RNG streams, link counters, detector baselines — at a quiescent
// point (no drive in progress, typically a sub-window boundary), so a
// fresh process can rebuild the same topology from config and resume the
// run *bit-identically*: the same windows, stats and alert streams as an
// uninterrupted run.
//
// Format: a little-endian byte stream of POD fields and length-prefixed
// arrays, preceded by a magic/version header. Every Save method brackets
// its fields with a section tag that Load verifies, so drift between a
// Save and its Load (the classic checkpoint bug) fails loudly at the exact
// layer that diverged instead of corrupting downstream state. Snapshots
// are a process-restart format, not an archival one: the version is bumped
// whenever any layer's field set changes, and loading a mismatched version
// is an error (no migration).
//
// Trust model: the byte stream is UNTRUSTED — it may come from a truncated
// or bit-flipped checkpoint file. Every length prefix is validated against
// the remaining stream bytes BEFORE any allocation, so a forged huge count
// fails with SnapshotError instead of OOM-ing the restoring process.
//
// Durable form: SnapshotWriter::WriteFile appends a per-section CRC index
// and a CRC32 footer, and ReadSnapshotFile verifies both before handing
// the payload back — a bad byte anywhere in the file is reported with its
// ABSOLUTE file offset and the section tag it falls in (see
// docs/snapshot_format.md for the exact layout).
//
// What is NOT captured: configuration (window spec, topology, seeds,
// std::function handlers) — the restoring side rebuilds those from the
// same config it was launched with; and obs registry counters, which are
// process-local diagnostics excluded from the bit-identity contract.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace ow {

class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint32_t kSnapshotMagic = 0x4F57534Eu;  // "OWSN"
/// v3: KeyValueTable gained the occupancy-aware (dense/sparse) encoding.
/// v4: the controller's flow table is one KeyValueTable; the shard-count
/// word before it is gone.
/// v5: KeyValueTable deletes by backward shift: no tombstones, so a slot's
/// state byte is 0 or 1 and the `used` (live + tombstone) tally is gone.
/// v6: links deliver straight into the switch event lanes: the Switch
/// section loses the staged-arrival lane, its saved minimum and its seq
/// counter, and the Network section its per-endpoint tx counters.
/// v7: checkpoints carry only restorable state in one encoding: the
/// KeyValueTable section loses its mode byte and dense form (live slots
/// only, as (index, slot) pairs), the Controller section its per-sub-window
/// timing log, merge-stall RNG state and stall tally, and the Program
/// section its AFR report batch; a pending sub-window carries its simulated
/// O1 collection cost.
/// v8: the Controller section loses its retry RNG state (the retry budget
/// is a constant and every round reissues at once), and the Program section
/// writes its collect state field by field (34 bytes, no padding).
/// v9: the Network section loses its global clock word (no code read it).
/// v10: the Switch section refers to its fed trace (packet count, cursor,
/// fingerprint) instead of writing each unread packet as a FIFO event.
/// v11: each fact is written once. The Switch section loses its pass epoch
/// (the pass count is the register epoch); the Program section its RDMA
/// PSN, and it queues a collection start as (sub-window, injected-key
/// count) instead of a whole trigger packet; the Controller section its
/// spilled-key sets (Load rebuilds them from the keys), its inserts_rejected
/// stat (the restored table holds it) and a pending sub-window's number
/// after its map key; the Session section its sink tallies (the sink links
/// count them).
/// v12: the Program section loses its RDMA cold-key append offset (0 in
/// every checkpoint: a program with an RDMA context refuses Save), and the
/// Controller section lists only sub-windows that have a spilled key.
/// v13: the occupancy bitmap is the only record of a live slot. The
/// KeyValueTable section loses its trailing live tally (the pair count is
/// the live count), and a slot its state byte (56 bytes, no padding). A
/// FlowRecord is ordered by alignment (56 bytes, no padding), a packet's
/// five-tuple is written field by field, and the Controller section loses
/// its RDMA-only fields (a pending sub-window's RDMA flags, hole count and
/// mirror keys, and the rdma_holes_detected stat; a controller with RDMA
/// refuses Save).
inline constexpr std::uint32_t kSnapshotVersion = 13;

/// Footer magic of the durable file form ("OWSF").
inline constexpr std::uint32_t kSnapshotFileMagic = 0x4F575346u;
/// Header magic of a controller-plane delta checkpoint ("OWDL").
inline constexpr std::uint32_t kSnapshotDeltaMagic = 0x4F57444Cu;

/// CRC-32 (IEEE 802.3, reflected). `seed` chains incremental computation:
/// pass the previous return value to continue over a second buffer.
std::uint32_t Crc32(const void* data, std::size_t n, std::uint32_t seed = 0);

/// Types Pod and PodVec copy as raw bytes: every byte of the object is a
/// byte of its value, so a checkpoint holds no indeterminate padding and
/// repeats byte for byte. Floating point is exempt (its zeros and NaNs have
/// several representations, but no padding); a struct with padding must
/// be written field by field.
template <typename T>
inline constexpr bool IsRawBytes =
    std::is_trivially_copyable_v<T> &&
    (std::has_unique_object_representations_v<T> ||
     std::is_floating_point_v<T>);

class SnapshotWriter {
 public:
  SnapshotWriter();

  void Bytes(const void* p, std::size_t n) {
    const std::size_t old = buf_.size();
    buf_.resize(old + n);
    std::memcpy(buf_.data() + old, p, n);
  }

  template <typename T>
  void Pod(const T& v) {
    static_assert(IsRawBytes<T>, "Pod() would write padding bytes");
    Bytes(&v, sizeof(T));
  }

  void U8(std::uint8_t v) { Pod(v); }
  void U32(std::uint32_t v) { Pod(v); }
  void U64(std::uint64_t v) { Pod(v); }
  void I64(std::int64_t v) { Pod(v); }
  void Size(std::size_t v) { U64(std::uint64_t(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void F64(double v) { Pod(v); }

  /// Length-prefixed array of trivially copyable elements. Works for any
  /// contiguous container (std or pooled vectors).
  template <typename Vec>
  void PodVec(const Vec& v) {
    using T = typename Vec::value_type;
    static_assert(IsRawBytes<T>, "PodVec() would write padding bytes");
    Size(v.size());
    if (!v.empty()) Bytes(v.data(), v.size() * sizeof(T));
  }

  /// Layer marker; Load verifies the same tag in the same position. The
  /// (tag, offset) pair is also recorded for WriteFile's per-section CRC
  /// index, which is what lets a corrupt durable checkpoint name the
  /// section a bad byte falls in.
  void Section(std::uint32_t tag) {
    sections_.push_back({tag, std::uint64_t(buf_.size())});
    U32(tag);
  }

  /// Write the buffer as a durable checkpoint file: payload, per-section
  /// CRC index, CRC32 footer (docs/snapshot_format.md). Throws
  /// SnapshotError on I/O failure.
  void WriteFile(const std::string& path) const;

  const std::vector<std::uint8_t>& buffer() const noexcept { return buf_; }
  std::vector<std::uint8_t> Take() { return std::move(buf_); }

 private:
  struct SectionMark {
    std::uint32_t tag;
    std::uint64_t offset;
  };
  std::vector<std::uint8_t> buf_;
  std::vector<SectionMark> sections_;
};

class SnapshotReader {
 public:
  /// Validates the magic/version header; throws SnapshotError on mismatch.
  explicit SnapshotReader(std::span<const std::uint8_t> bytes);

  void Bytes(void* p, std::size_t n) {
    if (n > data_.size() - pos_) {
      throw SnapshotError("snapshot truncated" + SectionSuffix() +
                          ": need " + std::to_string(n) +
                          " bytes at offset " + std::to_string(pos_) +
                          ", have " + std::to_string(data_.size() - pos_));
    }
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
  }

  template <typename T>
  void Pod(T& v) {
    static_assert(IsRawBytes<T>, "Pod() would read into padding bytes");
    Bytes(&v, sizeof(T));
  }

  std::uint8_t U8() { return Get<std::uint8_t>(); }
  std::uint32_t U32() { return Get<std::uint32_t>(); }
  std::uint64_t U64() { return Get<std::uint64_t>(); }
  std::int64_t I64() { return Get<std::int64_t>(); }
  std::size_t Size() { return std::size_t(U64()); }
  bool Bool() { return U8() != 0; }
  double F64() { return Get<double>(); }

  template <typename T>
  T Get() {
    T v;
    Pod(v);
    return v;
  }

  /// Read an element count whose elements occupy at least `min_elem_bytes`
  /// of stream each, validated against the remaining bytes BEFORE the
  /// caller sizes any container — the guard every untrusted length prefix
  /// must pass so a forged count fails loudly instead of OOM-ing.
  std::size_t Count(std::size_t min_elem_bytes) {
    const std::uint64_t n = U64();
    const std::size_t elem = min_elem_bytes ? min_elem_bytes : 1;
    if (n > remaining() / elem) {
      throw SnapshotError(
          "snapshot truncated" + SectionSuffix() + ": count " +
          std::to_string(n) + " x " + std::to_string(elem) +
          "-byte elements at offset " + std::to_string(pos_ - 8) +
          " exceeds the " + std::to_string(remaining()) + " bytes left");
    }
    return std::size_t(n);
  }

  template <typename Vec>
  void PodVec(Vec& v) {
    using T = typename Vec::value_type;
    static_assert(IsRawBytes<T>, "PodVec() would read into padding bytes");
    const std::size_t n = Count(sizeof(T));
    v.resize(n);
    if (n != 0) Bytes(v.data(), n * sizeof(T));
  }

  /// Verifies a Section written by SnapshotWriter::Section.
  void Section(std::uint32_t tag);

  bool AtEnd() const noexcept { return pos_ == data_.size(); }
  std::size_t position() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  std::string SectionSuffix() const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::uint32_t section_ = 0;
};

/// Verify and strip the durable-file framing (per-section CRC index +
/// CRC32 footer) of a file written by SnapshotWriter::WriteFile, returning
/// the payload ready for SnapshotReader. Throws SnapshotError naming the
/// absolute file offset range and section tag of the first corrupt byte
/// region on CRC mismatch, and the offending offsets on truncation.
std::vector<std::uint8_t> ReadSnapshotFile(const std::string& path);

// ---- Delta checkpoints ----------------------------------------------------
// Byte-range delta between two snapshots of the SAME layer set (a standby
// controller's consecutive cadence points). The delta carries the CRC of
// the base it was computed against and of the result it must reconstruct,
// so applying a delta to the wrong base — or applying a corrupted delta —
// throws instead of silently rebuilding garbage. Like the main stream, the
// delta buffer is untrusted: every offset/length is bounds-checked.

/// Encode `next` as a delta against `base`. Deterministic.
std::vector<std::uint8_t> EncodeSnapshotDelta(
    std::span<const std::uint8_t> base, std::span<const std::uint8_t> next);

/// Reconstruct the snapshot a delta encodes, verifying base and result
/// CRCs. Throws SnapshotError on any mismatch, truncation or forged range.
std::vector<std::uint8_t> ApplySnapshotDelta(
    std::span<const std::uint8_t> base, std::span<const std::uint8_t> delta);

// Section tags, one per layer that checkpoints itself. Kept central so a
// collision is impossible and the stream order is auditable in one place.
namespace snap {
inline constexpr std::uint32_t kRng = 0x11;
inline constexpr std::uint32_t kLink = 0x12;
inline constexpr std::uint32_t kLinkFaults = 0x13;
inline constexpr std::uint32_t kSwitch = 0x14;
inline constexpr std::uint32_t kRegisterArray = 0x15;
inline constexpr std::uint32_t kBloom = 0x16;
inline constexpr std::uint32_t kTracker = 0x17;
inline constexpr std::uint32_t kSignal = 0x18;
inline constexpr std::uint32_t kApp = 0x19;
inline constexpr std::uint32_t kProgram = 0x1A;
inline constexpr std::uint32_t kKvTable = 0x1B;
inline constexpr std::uint32_t kController = 0x1C;
inline constexpr std::uint32_t kDetector = 0x1D;
inline constexpr std::uint32_t kNetwork = 0x1E;
inline constexpr std::uint32_t kSession = 0x1F;
inline constexpr std::uint32_t kPacket = 0x20;
/// Controller-plane-only stream (FabricSession::SnapshotControllers): the
/// standby failover checkpoint, a strict subset of kSession.
inline constexpr std::uint32_t kControllerPlane = 0x21;
}  // namespace snap

/// Shape guard for Load paths: `expected` is what the rebuilt object owns,
/// `found` what the stream claims. Throws a SnapshotError naming the
/// section, the quantity and both values, so a config drift (wrong
/// topology, fault arming, table capacity) is diagnosable from the message
/// alone instead of only from the layer name.
inline void CheckShape(std::uint32_t section_tag, const char* layer,
                       const char* what, std::uint64_t expected,
                       std::uint64_t found) {
  if (expected == found) return;
  char tag[16];
  std::snprintf(tag, sizeof(tag), "0x%X", section_tag);
  throw SnapshotError(std::string(layer) + " [section " + tag + "]: " + what +
                      " differs between snapshot and rebuild: expected " +
                      std::to_string(expected) + ", found " +
                      std::to_string(found));
}

class FlowKey;

/// Key guard for Load paths: throws a SnapshotError naming the section and
/// `what` when a flow key read off the stream fails FlowKey::WellFormed.
/// Call it before anything hashes the key.
void CheckKey(const FlowKey& key, std::uint32_t section_tag, const char* layer,
              const char* what);

/// Record guard for Load paths (flow-table slots and FlowRecords): CheckKey
/// on the record's key ("<what>'s key"), and a SnapshotError naming the
/// section and `what` when its num_attrs exceeds the four attrs it holds.
/// Merge and eviction index attrs[i] for every i below num_attrs.
void CheckRecord(const FlowKey& key, std::uint8_t num_attrs,
                 std::uint32_t section_tag, const char* layer,
                 const char* what);

// ---- Packet serialization -------------------------------------------------
// Packet is not trivially copyable (OwHeader carries the AFR vector) and its
// FiveTuple has padding, so it serializes field by field. Declared here
// because packets appear in every event-lane checkpoint.

struct Packet;

void SavePacket(SnapshotWriter& w, const Packet& p);
void LoadPacket(SnapshotReader& r, Packet& p);

}  // namespace ow
