// Switch OS driver latency model.
//
// The conventional collect-and-reset path goes through the switch OS: the
// controller issues an RPC, the OS reads register entries over the slow
// PCIe/driver path and ships them back (paper §2, C1). We model that cost so
// the OS baseline in Exp#6 (seconds) and Exp#8 (linear in register count)
// reproduces. Constants are calibrated to the paper's reported OS numbers:
// reading one 4-hash Count-Min (4 × 16 K entries of 8 B) takes ~2.4–10.3 s,
// i.e. tens of microseconds per entry including RPC batching overhead.
#pragma once

#include <cstdint>
#include <memory>

#include "src/common/types.h"
#include "src/fault/fault.h"
#include "src/obs/obs.h"
#include "src/switchsim/register_array.h"

namespace ow {

struct SwitchOsTimings {
  Nanos rpc_setup = 80 * kMilli;      ///< per-register-array RPC/session cost
  Nanos per_entry_read = 36 * kMicro; ///< driver read of one register entry
  Nanos per_entry_write = 30 * kMicro;///< driver write (reset) of one entry
};

/// Simulated switch-OS access path. Every call returns the simulated time
/// the operation completes, given it starts at `start`.
class SwitchOsDriver {
 public:
  explicit SwitchOsDriver(SwitchOsTimings timings = {})
      : timings_(timings),
        obs_entries_read_(
            &obs::Global().GetCounter("switch_os.entries_read")),
        obs_entries_reset_(
            &obs::Global().GetCounter("switch_os.entries_reset")) {}

  /// Read all entries of `reg` into `out` (appended). Sequential: the OS
  /// cannot parallelize register access (Exp#8's linear scaling).
  Nanos ReadAll(const RegisterArray& reg, std::vector<std::uint64_t>& out,
                Nanos start) const;

  /// Zero all entries of `reg`.
  Nanos ResetAll(RegisterArray& reg, Nanos start) const;

  /// Cost-only variants for sizing experiments.
  Nanos ReadCost(std::size_t entries) const {
    return timings_.rpc_setup + Nanos(entries) * timings_.per_entry_read;
  }
  Nanos ResetCost(std::size_t entries) const {
    return timings_.rpc_setup + Nanos(entries) * timings_.per_entry_write;
  }

  /// Inject RPC timeouts (reissued at once, at most fault::kMaxRpcAttempts
  /// attempts per op) and slow-read bursts into every subsequent
  /// ReadAll/ResetAll. Contents stay correct — the faults only inflate the
  /// simulated completion time; an op whose every attempt timed out is
  /// surfaced through fault.switch_os.degraded_ops.
  void ArmFaults(const fault::SwitchOsFaultProfile& profile,
                 std::uint64_t seed) {
    faults_ = std::make_unique<fault::SwitchOsFaultInjector>(profile, seed);
  }
  const fault::SwitchOsFaultInjector* faults() const noexcept {
    return faults_.get();
  }

  const SwitchOsTimings& timings() const noexcept { return timings_; }

 private:
  /// Fault-adjusted operation cost: `base` is the fixed RPC part, `entries`
  /// scale by `per_entry` (possibly inflated by a slow burst).
  Nanos FaultedCost(Nanos base, std::size_t entries, Nanos per_entry,
                    Nanos start) const;

  SwitchOsTimings timings_;
  // Registry-backed driver-path counters (docs/observability.md).
  obs::Counter* obs_entries_read_;
  obs::Counter* obs_entries_reset_;
  // Mutable: ReadAll/ResetAll are const (the driver is logically stateless)
  // but the injector's RNG streams advance per operation.
  mutable std::unique_ptr<fault::SwitchOsFaultInjector> faults_;
};

}  // namespace ow
