// Controller I/O cost model (DPDK path stand-in).
//
// The paper's controller talks to the switch ASIC through DPDK, and the
// evaluation's collection times (Exp#4, Exp#6) are dominated by per-packet
// TX/RX costs on that path. We model those costs with per-operation
// constants calibrated so the bypass methods land in the paper's
// millisecond regime (see DESIGN.md). Simulated time only — no relation to
// this process's wall clock.
#pragma once

#include "src/common/types.h"

namespace ow::dpdk {

/// Controller -> switch injection of one packet (craft + TX descriptor).
inline constexpr Nanos kPerTxPacket = 125;
/// Additional cost when the injected packet needs a key-value table address
/// lookup first (the CPC* path of Exp#6).
inline constexpr Nanos kPerTxAddrLookup = 110;
/// Controller RX + parse of one AFR report packet.
inline constexpr Nanos kPerRxPacket = 60;
/// With the RDMA context warmed up, injection descriptors are posted in
/// batches without per-packet DPDK overhead.
inline constexpr Nanos kPerTxPacketRdma = 40;

}  // namespace ow::dpdk
