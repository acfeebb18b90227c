// Packet model.
//
// A Packet carries the parsed fields every module cares about (five-tuple,
// size, TCP flags, timestamps) plus the OmniWindow custom header the paper
// inserts between Ethernet and IP (§8): sub-window number, a collection /
// reset flag, an injected flowkey, and the AFRs the switch appends while a
// collection packet recirculates.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "src/common/arena.h"
#include "src/common/flowkey.h"
#include "src/common/types.h"

namespace ow {

// TCP flag bits (subset used by the telemetry queries).
inline constexpr std::uint8_t kTcpFin = 0x01;
inline constexpr std::uint8_t kTcpSyn = 0x02;
inline constexpr std::uint8_t kTcpRst = 0x04;
inline constexpr std::uint8_t kTcpPsh = 0x08;
inline constexpr std::uint8_t kTcpAck = 0x10;

/// Role of a packet within the OmniWindow protocol.
enum class OwFlag : std::uint8_t {
  kNormal = 0,        ///< regular traffic being measured
  kTrigger = 1,       ///< clone of the packet that terminated a sub-window
  kCollection = 2,    ///< controller-injected enumeration packet (Alg. 2)
  kFlowkeyInject = 3, ///< controller-injected packet carrying one flowkey
  kReset = 4,         ///< clear packet performing in-switch reset (§4.3)
  kAfrReport = 5,     ///< clone carrying generated AFRs to the controller
  kSpilledKey = 6,    ///< data-plane flowkey spilled to controller (Alg. 1)
  kLatencySpike = 7,  ///< copy of a packet delayed beyond the preserve
                      ///< horizon, escalated to the controller (§5)
};

/// Application-derived flow record as carried on the wire: the flowkey plus
/// up to four 64-bit attributes. `seq_id` is the per-sub-window sequence the
/// controller uses to detect AFR loss (§8, "Reliability of AFRs"). Fields
/// are ordered by alignment, so a record is 56 bytes with no padding and a
/// checkpoint writes it raw.
struct FlowRecord {
  std::array<std::uint64_t, 4> attrs{};
  FlowKey key;
  std::uint8_t num_attrs = 0;
  std::uint32_t seq_id = 0;
  SubWindowNum subwindow = kInvalidSubWindow;
};

static_assert(sizeof(FlowRecord) == 56);

/// OmniWindow custom header. `present` models whether the header has been
/// pushed onto the packet (done by the first-hop switch or the controller).
/// Fields are ordered by alignment, so the header packs into 56 bytes.
struct OwHeader {
  /// The report's records: one AFR per report packet, none on a completion
  /// notification. Pool-backed so reports recycle their buffers across
  /// sub-windows (zero-alloc steady state).
  PooledVector<FlowRecord> afrs;
  SubWindowNum subwindow_num = kInvalidSubWindow;
  std::uint32_t payload = 0;   ///< flag-specific scalar (e.g. #keys in sw)
  FlowKey injected_key;        ///< valid for kFlowkeyInject / kSpilledKey
  bool present = false;
  OwFlag flag = OwFlag::kNormal;
  std::uint8_t app_id = 0;     ///< telemetry app the packet belongs to when
                               ///< several apps share a pipeline
  bool degraded = false;       ///< count announcements only: the switch knows
                               ///< this sub-window's state was damaged by an
                               ///< overrun force-finish, so the announced
                               ///< count undercounts reality
};

/// Batch of flow records on the report/merge paths. Pool-backed: batches
/// are created and retired once per sub-window, and the pool recycles
/// their buffers so steady state never touches the heap.
using RecordVec = PooledVector<FlowRecord>;

/// No user-defined window signal present.
inline constexpr std::uint32_t kNoIteration = 0xFFFFFFFFu;

/// No explicit index: as an AFR's seq_id, a record outside the enumerated
/// sequence (an injected key, a mirror drain, a folded latency spike); as a
/// collection packet's payload, "enumerate normally" instead of "retransmit
/// this sequence number".
inline constexpr std::uint32_t kNoExplicitIndex = 0xFFFFFFFFu;

/// A network packet as seen by the simulator. Fields are ordered by
/// alignment, so a packet is 96 bytes.
struct Packet {
  Nanos ts = 0;                 ///< emission time at the source
  OwHeader ow;
  FiveTuple ft;
  std::uint32_t seq = 0;        ///< per-flow sequence (LossRadar uniqueness)
  std::uint32_t iteration = kNoIteration;  ///< user-defined signal (§5)
  std::uint16_t size_bytes = 64;
  std::uint8_t tcp_flags = 0;

  /// Extract the flow key of the requested kind.
  FlowKey Key(FlowKeyKind kind) const { return FlowKey(kind, ft); }
};

static_assert(sizeof(Packet) == 96);

/// Folds every field of every packet, in order, into one Mix64 chain: a
/// trace's identity, which golden tests pin and which a checkpoint that
/// refers to a fed trace, instead of carrying it, is checked against
/// (Switch::FeedTrace).
std::uint64_t FingerprintPackets(std::span<const Packet> packets);

}  // namespace ow
