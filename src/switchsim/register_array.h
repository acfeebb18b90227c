// On-chip register array with SALU access semantics.
//
// An RMT register array is a block of per-stage SRAM manipulated by exactly
// one Stateful ALU: each packet pass may read-modify-write a SINGLE location
// of the array (paper §2, C4). RegisterArray enforces that restriction —
// each pass permits at most one access; a second access throws. This is
// what makes the simulated data plane honest: code that would not compile
// to Tofino (e.g. traversing state inline, or double-accessing a region)
// fails loudly here too.
//
// Pass delimiting has two modes:
//   * Standalone (tests, adapters driven outside a Switch): call
//     BeginPass() before every pass, exactly as before.
//   * Bound (the Switch binds every array of the installed program via
//     BindPassEpoch): the array compares its last-access stamp against the
//     switch's pass count, so starting a pass is one shared counter
//     increment instead of touching every array — arrays the program does
//     not access in a pass cost nothing.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace ow {

class SnapshotWriter;
class SnapshotReader;

class RegisterArray {
 public:
  /// `entries` cells of `entry_bytes` each (values stored widened to 64-bit;
  /// entry_bytes only affects the SRAM footprint and write truncation).
  RegisterArray(std::string name, std::size_t entries,
                std::size_t entry_bytes = 4);

  /// Standalone pass delimiter (callers driving the array outside a
  /// Switch). A bound array ignores it — the epoch is authoritative.
  void BeginPass() noexcept { accessed_ = false; }

  /// Bind to (or, with nullptr, release from) a pass counter owned by a
  /// Switch. While bound, an access is legal iff the array has not been
  /// accessed at the counter's current value. Binding clears the access
  /// stamp to 0, so the counter must be bumped before each pass; a switch
  /// that restores its count re-binds to re-arm. The counter must outlive
  /// the binding.
  void BindPassEpoch(const std::uint64_t* epoch) noexcept {
    pass_epoch_ = epoch;
    last_access_epoch_ = 0;
    accessed_ = false;
  }

  /// SALU read-modify-write: returns the old value, stores `next(old)`.
  /// Consumes this pass's single access.
  template <typename Fn>
  std::uint64_t ReadModifyWrite(std::size_t index, Fn&& next) {
    CheckAccess(index);
    const std::uint64_t old = cells_[index];
    cells_[index] = Truncate(next(old));
    return old;
  }

  /// SALU read. Consumes this pass's single access.
  std::uint64_t Read(std::size_t index) {
    CheckAccess(index);
    return cells_[index];
  }

  /// SALU write. Consumes this pass's single access.
  void Write(std::size_t index, std::uint64_t value) {
    CheckAccess(index);
    cells_[index] = Truncate(value);
  }

  /// Control-plane access path (switch OS / debugging): no pass restriction,
  /// but the SwitchOsDriver charges its latency model for it.
  std::uint64_t ControlRead(std::size_t index) const;
  void ControlWrite(std::size_t index, std::uint64_t value);

  /// Checkpoint the cell contents (shape/name/bindings are configuration).
  /// Load verifies the entry count matches and throws SnapshotError on a
  /// shape mismatch.
  void Save(SnapshotWriter& w) const;
  void Load(SnapshotReader& r);

  std::size_t size() const noexcept { return cells_.size(); }
  std::size_t entry_bytes() const noexcept { return entry_bytes_; }
  std::size_t MemoryBytes() const noexcept {
    return cells_.size() * entry_bytes_;
  }
  const std::string& name() const noexcept { return name_; }

 private:
  void CheckAccess(std::size_t index) {
    if (index >= cells_.size()) ThrowOutOfRange(index);
    if (pass_epoch_) {
      if (last_access_epoch_ == *pass_epoch_) ThrowDoubleAccess();
      last_access_epoch_ = *pass_epoch_;
    } else {
      if (accessed_) ThrowDoubleAccess();
      accessed_ = true;
    }
  }
  [[noreturn]] void ThrowOutOfRange(std::size_t index) const;
  [[noreturn]] void ThrowDoubleAccess() const;

  std::uint64_t Truncate(std::uint64_t v) const noexcept {
    return entry_bytes_ >= 8 ? v
                             : (v & ((1ull << (entry_bytes_ * 8)) - 1));
  }

  std::string name_;
  std::size_t entry_bytes_;
  std::vector<std::uint64_t> cells_;
  const std::uint64_t* pass_epoch_ = nullptr;
  std::uint64_t last_access_epoch_ = 0;
  bool accessed_ = false;
};

}  // namespace ow
