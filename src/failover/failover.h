// Standby-controller failover (docs/failover.md).
//
// A StandbyController subscribes to periodic controller-plane checkpoints
// of a running FabricSession (every FailoverConfig::snapshot_cadence
// sub-window boundaries). When the primary controller plane dies — modeled
// as a seeded kill at a sub-window boundary — the standby takes over the
// LIVE fabric: FabricSession::FailOver loads the stale checkpoint and
// re-requests everything it predates from the switches through the normal
// retry/collection machinery. Sub-windows still answerable (active
// collections, the retransmission cache) recover exactly; ones the switch
// has evicted are flagged, never silently dropped.
//
// This is deliberately NOT the full-fabric Snapshot/Restore path of PR 8:
// that one rewinds the whole simulation (switch lanes, links, RNGs) and
// resumes bit-identically in a fresh process — the right tool for a
// planned restart. Failover keeps the switches running and accepts
// exact-or-flagged windows in exchange for checkpoints that are orders of
// magnitude smaller and a takeover measured in sub-windows, not a replay.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/core/network_runner.h"

namespace ow::failover {

struct FailoverConfig {
  /// Sub-window boundaries between controller-plane checkpoints. 1 =
  /// checkpoint every boundary (staleness of 1 sub-window at any kill,
  /// always within the switch retransmission cache: zero loss). Larger
  /// cadences trade checkpoint bandwidth for loss once the staleness
  /// exceeds the cache depth (OmniWindowProgram::kRetransmitCacheDepth).
  std::size_t snapshot_cadence = 1;
  /// Boundary index (1-based drive order) at which the primary is killed;
  /// -1 draws one in [2, last boundary - 2] from a fixed seed.
  std::int64_t kill_boundary = -1;
  /// Ship checkpoints as byte-range deltas against the previous cadence
  /// point instead of full snapshots. The standby reconstructs each full
  /// checkpoint by applying the delta to its previous one (CRC-verified at
  /// both ends — a delta applied to the wrong base throws rather than
  /// rebuilding garbage), so what it holds for takeover is always a full
  /// snapshot; only the shipped bytes shrink.
  bool delta_checkpoints = false;
  /// With delta_checkpoints: every keyframe_interval-th checkpoint is a
  /// full keyframe, so a lost or corrupt delta strands the standby for at
  /// most one interval instead of forever.
  std::size_t keyframe_interval = 8;
};

/// Ingests controller-plane snapshots at the configured cadence and holds
/// the latest one. Cheap enough to sit on a warm spare next to the primary.
class StandbyController {
 public:
  explicit StandbyController(FailoverConfig cfg) : cfg_(cfg) {}

  /// Call at every quiescent sub-window boundary (0 = construction time);
  /// checkpoints when `boundary` is a multiple of the cadence.
  void ObserveBoundary(const FabricSession& primary, std::size_t boundary);

  bool has_snapshot() const noexcept { return !bytes_.empty(); }
  const std::vector<std::uint8_t>& snapshot() const noexcept {
    return bytes_;
  }
  std::size_t snapshot_boundary() const noexcept { return boundary_; }
  std::size_t snapshots_taken() const noexcept { return taken_; }

  /// Bytes actually shipped primary -> standby: full keyframes plus
  /// deltas. Without delta_checkpoints this equals the sum of full
  /// snapshot sizes.
  std::size_t wire_bytes_total() const noexcept { return wire_bytes_; }
  std::size_t keyframes_sent() const noexcept { return keyframes_; }
  std::size_t deltas_sent() const noexcept { return deltas_; }

 private:
  FailoverConfig cfg_;
  std::vector<std::uint8_t> bytes_;  ///< latest FULL snapshot (post-apply)
  std::size_t boundary_ = 0;
  std::size_t taken_ = 0;
  std::size_t wire_bytes_ = 0;
  std::size_t keyframes_ = 0;
  std::size_t deltas_ = 0;
};

struct FailoverReport {
  std::size_t kill_boundary = 0;
  Nanos kill_time = 0;
  /// Boundaries between the checkpoint the standby restored and the kill.
  std::size_t staleness_boundaries = 0;
  std::size_t snapshots_taken = 0;
  std::size_t snapshot_bytes = 0;
  /// Bytes shipped primary -> standby over the whole run (keyframes +
  /// deltas); the bandwidth the cadence actually costs.
  std::size_t wire_bytes = 0;
  std::size_t keyframes_sent = 0;
  std::size_t deltas_sent = 0;
  std::size_t subwindows_requeried = 0;
  std::size_t subwindows_lost = 0;
  bool caught_up = false;
  /// Simulated time from the kill until every pre-kill sub-window was
  /// re-finalized (or flagged) — the takeover latency. Deterministic.
  Nanos takeover_sim_ns = 0;
  /// Wall cost of loading the checkpoint and planning the re-requests.
  std::uint64_t takeover_wall_ns = 0;
  /// Spans the dead primary had already delivered that the standby
  /// re-emitted (at-least-once); the splice keeps the primary's copy.
  std::size_t windows_duplicated = 0;
};

struct FailoverRunResult {
  /// The spliced window stream: primary windows up to the kill, standby
  /// windows after, deduped by span (first — i.e. primary — copy wins).
  NetworkRunResult spliced;
  FailoverReport report;
};

/// Run `trace` through a fabric with a standby attached, kill the primary
/// controller plane at a boundary, take over from the standby's latest
/// checkpoint, and drive to completion. Deterministic for a fixed config.
FailoverRunResult RunWithFailover(
    const Trace& trace,
    const std::function<AdapterPtr(std::size_t switch_index)>& make_app,
    NetworkRunConfig cfg, FailoverConfig fcfg,
    std::function<FlowSet(TableView)> detect = {});

/// Per-window verdicts of a failover run against an uninterrupted
/// reference, per switch and span.
struct WindowComparison {
  std::size_t windows_total = 0;  ///< reference windows
  std::size_t exact = 0;          ///< unflagged, content matches
  std::size_t flagged = 0;        ///< present with the partial flag
  std::size_t lost = 0;           ///< reference span absent entirely
  /// Present, unflagged, content differs — the one outcome the takeover
  /// contract forbids.
  std::size_t divergent_unflagged = 0;
};
WindowComparison CompareWindows(const NetworkRunResult& reference,
                                const NetworkRunResult& run);

}  // namespace ow::failover
