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
#include <vector>

#include "src/common/types.h"
#include "src/obs/obs.h"
#include "src/switchsim/register_array.h"

namespace ow {

/// Per-register-array RPC/session cost.
inline constexpr Nanos kSwitchOsRpcSetup = 80 * kMilli;
/// Driver read of one register entry (calibrated to the paper's OS reads).
inline constexpr Nanos kSwitchOsEntryRead = 72 * kMicro;
/// Driver write (reset) of one register entry.
inline constexpr Nanos kSwitchOsEntryWrite = 30 * kMicro;

/// Simulated switch-OS access path. Every call returns the simulated time
/// the operation completes, given it starts at `start`.
class SwitchOsDriver {
 public:
  SwitchOsDriver()
      : obs_entries_read_(
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
    return kSwitchOsRpcSetup + Nanos(entries) * kSwitchOsEntryRead;
  }
  Nanos ResetCost(std::size_t entries) const {
    return kSwitchOsRpcSetup + Nanos(entries) * kSwitchOsEntryWrite;
  }

 private:
  // Registry-backed driver-path counters (docs/observability.md).
  obs::Counter* obs_entries_read_;
  obs::Counter* obs_entries_reset_;
};

}  // namespace ow
