// Flow identifiers.
//
// Telemetry applications define their own flow key (paper §4.1): heavy-hitter
// detection keys on the five-tuple, DDoS detection on the destination IP,
// super-spreader detection on the source IP, and so on. FlowKey is a compact
// tagged value type that covers every key definition used by Q1–Q11 while
// remaining trivially hashable and usable as a map key.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <span>
#include <string>

#include "src/common/hash.h"

namespace ow {

/// Classic 5-tuple in host byte order. `proto` follows IANA numbers
/// (6 = TCP, 17 = UDP).
struct FiveTuple {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t proto = 0;

  friend auto operator<=>(const FiveTuple&, const FiveTuple&) = default;

  /// Human-readable "a.b.c.d:p -> a.b.c.d:p/proto".
  std::string ToString() const;
};

/// Which fields of the five-tuple a FlowKey retains.
enum class FlowKeyKind : std::uint8_t {
  kFiveTuple = 0,   ///< full 5-tuple
  kSrcIp = 1,       ///< source address only
  kDstIp = 2,       ///< destination address only
  kIpPair = 3,      ///< (src, dst) addresses
  kSrcIpDstPort = 4 ///< (src ip, dst port) — used by port-scan detection
};

/// Compact tagged flow key. 15 bytes (13 key bytes, the length, the kind;
/// no padding), trivially copyable, totally ordered.
class FlowKey {
 public:
  FlowKey() = default;

  /// Project `t` onto the fields selected by `kind`.
  FlowKey(FlowKeyKind kind, const FiveTuple& t);

  /// Reconstruct a key from its raw material (wire decoding).
  static FlowKey FromRaw(FlowKeyKind kind,
                         std::span<const std::uint8_t> bytes);

  FlowKeyKind kind() const noexcept { return kind_; }

  /// True when the constructors could have built this key: its length fits
  /// the 13 key bytes, its kind names a FlowKeyKind and every byte past the
  /// length is zero. bytes() and Hash() trust the length, so a key read off
  /// an untrusted stream must pass this before anything hashes it.
  bool WellFormed() const noexcept;

  /// Raw key material (projection-dependent length, zero padded).
  std::span<const std::uint8_t> bytes() const noexcept {
    return {bytes_.data(), len_};
  }

  std::uint64_t Hash(std::uint64_t seed) const noexcept {
    return HashBytes(bytes(), seed ^ static_cast<std::uint64_t>(kind_));
  }

  friend auto operator<=>(const FlowKey&, const FlowKey&) = default;

  std::string ToString() const;

  // --- field accessors (valid only for kinds that retain the field) ---
  std::uint32_t src_ip() const noexcept;
  std::uint32_t dst_ip() const noexcept;

 private:
  std::array<std::uint8_t, 13> bytes_{};
  std::uint8_t len_ = 0;
  FlowKeyKind kind_ = FlowKeyKind::kFiveTuple;
};

static_assert(sizeof(FlowKey) == 15);

/// std::unordered_map-compatible hasher.
struct FlowKeyHasher {
  std::size_t operator()(const FlowKey& k) const noexcept {
    return static_cast<std::size_t>(k.Hash(0x0F0E0D0C0B0A0908ull));
  }
};

struct FiveTupleHasher {
  std::size_t operator()(const FiveTuple& t) const noexcept {
    return static_cast<std::size_t>(HashValue(t, 0x1234ABCD5678EF09ull));
  }
};

}  // namespace ow
