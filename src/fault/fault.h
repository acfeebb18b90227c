// Deterministic, seed-driven fault injection.
//
// Chaos engineering for the simulated telemetry substrate: per-link fault
// schedules (drop / duplicate / reorder beyond the Link's own loss toggle)
// and RDMA write failures and partial completions. Every injector follows
// the per-feature RNG-stream discipline of src/net/link.h: each fault kind
// draws exactly once per decision point from its own SplitMix-decorrelated
// stream, so a run is bit-reproducible for a fixed seed and sweeping one
// fault intensity never reshuffles the schedule of another.
//
// Components expose an ArmFaults(...) hook and check a single pointer on
// the affected path; unarmed components behave exactly as before, and an
// armed zero-intensity profile is bit-identical to an unarmed run (the
// property the A/B tests and tools/chaos_run enforce).
//
// Each injector keeps the only count of the faults it injected; a
// FabricSession publishes the totals of the injectors it owns to the obs
// registry under `fault.*` when it finishes (docs/fault_injection.md).
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"

namespace ow {
class SnapshotWriter;
class SnapshotReader;
}  // namespace ow

namespace ow::fault {

/// Optional time window scaling a link profile's rates: while `now` is
/// inside [start, end) the base rates are multiplied by `scale`; outside
/// every phase the rates are 0. An empty phase list means "always on,
/// scale 1".
struct FaultPhase {
  Nanos start = 0;
  Nanos end = 0;
  double scale = 1.0;
};

/// Per-link fault schedule, applied on top of LinkParams' own loss/jitter/
/// spike model (which stays untouched so existing sweeps reproduce).
struct LinkFaultProfile {
  double drop_rate = 0.0;     ///< injected independent per-packet drop
  double dup_rate = 0.0;      ///< deliver a second copy of the packet
  double reorder_rate = 0.0;  ///< delay the packet past later traffic
  std::vector<FaultPhase> phases;  ///< empty = always active

  bool Any() const noexcept {
    return drop_rate > 0 || dup_rate > 0 || reorder_rate > 0;
  }
};

/// Extra delay on a reordered packet.
inline constexpr Nanos kReorderDelay = 150 * kMicro;
/// A duplicate lands this much after the original.
inline constexpr Nanos kDuplicateGap = 5 * kMicro;

/// RDMA faults, applied to WRITEs against one target MR (the cold-key
/// append buffer): the request is dropped at the commit step, or only a
/// prefix of the payload lands (partial completion).
struct RdmaFaultProfile {
  double write_drop_rate = 0.0;
  double partial_rate = 0.0;

  bool Any() const noexcept { return write_drop_rate > 0 || partial_rate > 0; }
};

/// Umbrella plan the runners thread through every substrate.
struct FaultPlan {
  std::uint64_t seed = 0xFA017BA5Eull;
  LinkFaultProfile inner_link;   ///< switch-to-switch links
  LinkFaultProfile report_link;  ///< switch-to-controller report path
  RdmaFaultProfile rdma;
};

/// The fault-matrix axes tools/chaos_run and CI sweep. kFabricLoss drops
/// packets on one switch-to-switch fabric link of a leaf-spine deployment
/// (chaos_run pins the link via NetworkRunConfig::fault_link_index) —
/// the cell additionally asserts hop-by-hop localization names that link.
enum class ChaosKind { kLoss, kReorder, kRdmaFail, kFabricLoss };

const char* ChaosKindName(ChaosKind kind);

/// Scale one fault kind to `intensity` in [0, 1] (0 = no faults armed).
FaultPlan MakeChaosPlan(ChaosKind kind, double intensity, std::uint64_t seed);

/// Rate scale at `now` under a phase schedule (1.0 when `phases` is empty).
double PhaseScale(const std::vector<FaultPhase>& phases, Nanos now) noexcept;

/// Per-link injector (owned by the Link once armed).
class LinkFaultInjector {
 public:
  LinkFaultInjector(LinkFaultProfile profile, std::uint64_t seed);

  struct Decision {
    bool drop = false;
    bool duplicate = false;  ///< a copy follows kDuplicateGap later
    Nanos extra_delay = 0;   ///< reorder displacement (0 when not reordered)
  };

  /// One decision per transmitted packet. Each feature draws exactly once
  /// from its own stream whether or not it fires.
  Decision Decide(Nanos now);

  std::uint64_t drops() const noexcept { return drops_; }
  std::uint64_t duplicates() const noexcept { return duplicates_; }
  std::uint64_t reorders() const noexcept { return reorders_; }

  /// Checkpoint the mutable schedule position (RNG streams + counters);
  /// the profile itself is configuration and is rebuilt by the caller.
  void Save(SnapshotWriter& w) const;
  void Load(SnapshotReader& r);

 private:
  LinkFaultProfile profile_;
  Rng drop_rng_;
  Rng dup_rng_;
  Rng reorder_rng_;
  std::uint64_t drops_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t reorders_ = 0;
};

/// RDMA write-path injector (owned by the RdmaNic once armed).
class RdmaFaultInjector {
 public:
  RdmaFaultInjector(RdmaFaultProfile profile, std::uint64_t seed);

  struct Decision {
    bool drop = false;
    bool partial = false;  ///< commit only the first half of the payload
  };

  /// One decision per matching WRITE request.
  Decision Decide();

  std::uint64_t dropped_writes() const noexcept { return dropped_writes_; }
  std::uint64_t partial_writes() const noexcept { return partial_writes_; }

 private:
  RdmaFaultProfile profile_;
  Rng drop_rng_;
  Rng partial_rng_;
  std::uint64_t dropped_writes_ = 0;
  std::uint64_t partial_writes_ = 0;
};

}  // namespace ow::fault
