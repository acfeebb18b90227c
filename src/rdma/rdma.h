// Simulated RDMA stack (RoCEv2 subset).
//
// The paper's RDMA optimization (§7) has switches craft RoCEv2 WRITE and
// FETCH_ADD requests that the controller's RNIC executes against registered
// host memory, with zero controller-CPU involvement. We model exactly that
// contract:
//
//  * the controller registers memory regions (MRs) and hands out rkeys;
//  * the switch-side RdmaRequestBuilder crafts request messages with packet
//    sequence numbers (mirroring the PSN register the P4 implementation
//    keeps);
//  * RdmaNic validates and executes requests directly against the MR and
//    accounts NIC time separately from controller CPU time, which is the
//    quantity Exp#6/#7 compare.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/common/types.h"
#include "src/fault/fault.h"

namespace ow {

enum class RdmaOpcode : std::uint8_t {
  kWrite = 0,
  kFetchAdd = 1,
};

/// One RoCEv2 request as crafted by the switch data plane.
struct RdmaRequest {
  RdmaOpcode opcode = RdmaOpcode::kWrite;
  std::uint32_t rkey = 0;
  std::uint64_t remote_offset = 0;  ///< byte offset into the MR
  std::uint32_t psn = 0;            ///< packet sequence number
  std::vector<std::uint8_t> payload;///< WRITE payload
  std::uint64_t add_value = 0;      ///< FETCH_ADD operand (64-bit)
};

/// A registered memory region: plain host bytes the NIC may touch.
class MemoryRegion {
 public:
  MemoryRegion(std::uint32_t rkey, std::size_t bytes)
      : rkey_(rkey), bytes_(bytes, 0) {}

  std::uint32_t rkey() const noexcept { return rkey_; }
  std::size_t size() const noexcept { return bytes_.size(); }

  std::span<std::uint8_t> bytes() noexcept { return bytes_; }
  std::span<const std::uint8_t> bytes() const noexcept { return bytes_; }

  /// Host-side typed view helpers.
  std::uint64_t ReadU64(std::uint64_t offset) const;
  void WriteU64(std::uint64_t offset, std::uint64_t v);

  /// High-water mark of ATTEMPTED NIC writes into this MR, maintained even
  /// for writes a fault injector dropped or truncated: the NIC saw the
  /// request, so the drain logic knows how far the writer intended to get
  /// and can spot the holes the faults left behind.
  void NoteWriteAttempt(std::uint64_t end) noexcept {
    write_hwm_ = std::max(write_hwm_, end);
  }
  std::uint64_t write_hwm() const noexcept { return write_hwm_; }
  void ResetWriteHwm() noexcept { write_hwm_ = 0; }

 private:
  std::uint32_t rkey_;
  std::vector<std::uint8_t> bytes_;
  std::uint64_t write_hwm_ = 0;
};

/// Controller-side RNIC. Owns the MRs; executes requests without involving
/// the controller CPU.
class RdmaNic {
 public:
  /// Register `bytes` of host memory; returns the MR (stable address).
  MemoryRegion& RegisterMemory(std::size_t bytes);

  /// Execute one request. Throws on bad rkey / out-of-bounds / stale PSN
  /// (PSNs must not go backwards per queue pair; we model one QP).
  /// Returns the fetched value for FETCH_ADD, 0 for WRITE.
  std::uint64_t Execute(const RdmaRequest& req);

  /// Simulated NIC busy time accumulated executing requests.
  Nanos nic_time() const noexcept { return nic_time_; }
  std::uint64_t ops_executed() const noexcept { return ops_; }

  /// Inject write drops / partial completions into WRITEs against the MR
  /// with rkey `rkey_filter` (the unacked cold-key append path; atomics and
  /// other MRs stay reliable). PSN accounting and NIC time still advance on
  /// a faulted request — the wire carried it, only the commit failed.
  void ArmFaults(const fault::RdmaFaultProfile& profile, std::uint64_t seed,
                 std::uint32_t rkey_filter) {
    faults_ = std::make_unique<fault::RdmaFaultInjector>(profile, seed);
    fault_rkey_ = rkey_filter;
  }
  const fault::RdmaFaultInjector* faults() const noexcept {
    return faults_.get();
  }

 private:
  MemoryRegion* FindMr(std::uint32_t rkey);

  std::vector<std::unique_ptr<MemoryRegion>> regions_;
  std::uint32_t next_rkey_ = 0x1000;
  std::uint32_t expected_psn_ = 0;
  bool psn_seen_ = false;
  Nanos nic_time_ = 0;
  std::uint64_t ops_ = 0;
  std::unique_ptr<fault::RdmaFaultInjector> faults_;
  std::uint32_t fault_rkey_ = 0;
};

/// Switch-side request constructor: keeps the PSN register the P4 program
/// maintains and builds well-formed requests.
class RdmaRequestBuilder {
 public:
  explicit RdmaRequestBuilder(std::uint32_t rkey) : rkey_(rkey) {}

  RdmaRequest Write(std::uint64_t remote_offset,
                    std::span<const std::uint8_t> payload);
  RdmaRequest WriteU64(std::uint64_t remote_offset, std::uint64_t value);
  RdmaRequest FetchAdd(std::uint64_t remote_offset, std::uint64_t value);

 private:
  std::uint32_t rkey_;
  std::uint32_t psn_ = 0;
};

}  // namespace ow
