// Multi-switch fabric harness.
//
// Deploys OmniWindow on an arbitrary-topology switch fabric: the ingress
// hop runs signals and stamps sub-window numbers, every later hop follows
// the embedded numbers (§5). Each switch gets its own telemetry app
// instance and controller, as in a network-wide deployment; the result
// carries per-switch windows (and, on request, per-window flow-count
// tables) so callers can check cross-switch consistency and run hop-by-hop
// loss localization (Exp#9-style setups, bench/exp11_topology, the
// ConsistencyAcrossTwoSwitches test, the out-of-order ablation).
//
// Topology generators: line (the historical chain), tree (root ingress,
// hash-ECMP over children, leaves egress) and leaf-spine (leaf 0 ingress,
// ECMP up to the spines, every spine down to the flow's egress leaf).
// Routing is deterministic in the five-tuple and the ECMP seed, so
// MakeTopologyNextHop reconstructs every flow's path exactly — the oracle
// LocalizeFlowLoss uses to name a lossy link.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/runner.h"
#include "src/net/network.h"

namespace ow {

enum class TopologyKind { kLine, kTree, kLeafSpine };

struct TopologyConfig {
  TopologyKind kind = TopologyKind::kLine;
  std::size_t line_switches = 2;  ///< kLine: chain length
  std::size_t tree_fanout = 2;    ///< kTree: children per internal node
  std::size_t tree_depth = 2;     ///< kTree: edge levels below the root
  std::size_t spines = 2;         ///< kLeafSpine
  std::size_t leaves = 2;         ///< kLeafSpine (leaf 0 is the ingress)
  /// Seed of the hash-based ECMP routing (per-switch salted). Reseeding
  /// reshuffles which path each flow rides.
  std::uint64_t ecmp_seed = 0xEC4F10B5ull;
};

/// Downstream switch ids per switch, in egress-port order (adj[u][p] is the
/// switch behind port p of u). Empty list = egress switch. Line: 0->1->...;
/// tree: BFS ids, root 0; leaf-spine: leaves 0..L-1 then spines L..L+S-1.
std::vector<std::vector<int>> TopologyAdjacency(const TopologyConfig& topo);

std::size_t TopologySwitchCount(const TopologyConfig& topo);

/// The routing oracle matching the fabric's ECMP policies: deterministic in
/// (topology, ecmp_seed, five-tuple flow key). Returns -1 where the flow
/// exits the fabric.
NextHopFn MakeTopologyNextHop(const TopologyConfig& topo);

struct NetworkRunConfig {
  RunConfig base;
  TopologyConfig topology;  ///< fabric shape
  LinkParams link;  ///< between connected switches
  std::uint64_t link_seed = 0x11417C5ull;
  /// Switch -> controller report path (AFR reports, triggers, spilled
  /// keys). Defaults to a perfect wire — identical to the historical
  /// direct attachment; give it loss/jitter to exercise the controller's
  /// retransmission machinery end to end (lossy-collection tests).
  LinkParams report_link{.latency = 0, .jitter = 0};
  std::uint64_t report_link_seed = 0x0B50117ull;
  /// Also record each window's full per-flow count table in
  /// SwitchRun::counts (the input LocalizeFlowLoss consumes).
  bool capture_counts = false;
  /// Arm base.fault.inner_link on this fabric link index only (creation
  /// order, see NetworkRunResult::links); -1 arms every fabric link — the
  /// historical line behavior. Targeted arming gives localization tests a
  /// single known-lossy link as ground truth.
  int fault_link_index = -1;
  /// Always-on streaming consumer: invoked for every completed window of
  /// every controller, with the owning switch's index, while the window's
  /// table view is still valid. Calls run one at a time, on the thread
  /// that drives the session.
  std::function<void(std::size_t switch_index, const WindowResult&)>
      window_observer;
};

struct SwitchRun {
  std::vector<EmittedWindow> windows;
  /// Per-window flow-count tables, keyed by the window's first sub-window
  /// (only filled when NetworkRunConfig::capture_counts is set).
  std::map<SubWindowNum, FlowCounts> counts;
  OmniWindowProgram::Stats data_plane;
  OmniWindowController::Stats controller;
};

/// Ground-truth stats of one fabric link (creation order = link index).
struct FabricLinkStats {
  int from = -1;
  int to = -1;
  int port = 0;
  std::uint64_t transmitted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicates = 0;  ///< injected dup faults delivered twice
};

struct NetworkRunResult {
  std::vector<SwitchRun> per_switch;
  std::uint64_t link_dropped = 0;    ///< total drops across fabric links
  std::uint64_t report_dropped = 0;  ///< drops on switch->controller links
  std::uint64_t delivered = 0;       ///< packets that reached an egress sink
  std::vector<FabricLinkStats> links;
};

/// An interactive fabric run: RunOmniWindowFabric split into construct /
/// drive / finish, so a caller can pause the simulation at a quiescent
/// point, Snapshot() the complete mutable state, later rebuild an
/// IDENTICALLY configured session (same trace, app factory and config) and
/// Restore() into it — resuming bit-identically: the same windows, stats,
/// link counters and alert streams as an uninterrupted run. This is the
/// kill/restore fault class of tools/chaos_run and snapshot_restore_test.
///
/// Stream-vs-counter contract after a restore: cumulative counters
/// (program/controller stats, link and sink counters, `delivered`) carry
/// the pre-snapshot history, so Finish() reports the same totals as the
/// uninterrupted run. The WINDOW stream does not — windows emitted before
/// the snapshot live in the killed session's partial_result(); the
/// restored session emits only post-restore windows, and a comparator
/// concatenates the two streams.
class FabricSession {
 public:
  /// Builds the fabric and enqueues the trace plus the end-of-trace
  /// sentinel; nothing runs until DriveUntil/Finish. RDMA collection
  /// (`base.controller.rdma` or `base.data_plane.rdma`) gets one RdmaNic
  /// per switch, with `base.fault.rdma` armed at seed `base.fault.seed + i`.
  /// Throws std::invalid_argument when RDMA meets a report path that can
  /// drop packets (`report_link.loss_rate` or
  /// `base.fault.report_link.drop_rate` above 0): a late completion
  /// notification would drain slots a later sub-window already wrote.
  FabricSession(const Trace& trace,
                const std::function<AdapterPtr(std::size_t switch_index)>&
                    make_app,
                NetworkRunConfig cfg,
                std::function<FlowSet(TableView)> detect = {});

  FabricSession(const FabricSession&) = delete;
  FabricSession& operator=(const FabricSession&) = delete;

  /// Drive the fabric to a quiescent state covering every event at or
  /// before `t`. Returns the timestamp of the last processed event.
  Nanos DriveUntil(Nanos t);

  /// Serialize the complete mutable state. Only valid at a quiescent point
  /// (after DriveUntil returned, before Finish); throws SnapshotError when
  /// the configuration has non-checkpointable features armed (RDMA).
  std::vector<std::uint8_t> Snapshot();

  /// Snapshot() straight into a durable checkpoint file (per-section CRC
  /// index + CRC32 footer; docs/snapshot_format.md). Throws SnapshotError
  /// on I/O failure.
  void SnapshotToFile(const std::string& path);

  /// Restore state captured by Snapshot() into a freshly constructed,
  /// identically configured session. Discards this session's pre-restore
  /// window stream; throws SnapshotError on any shape mismatch and
  /// std::logic_error once Finish() has run (the drained session's state is
  /// gone; restoring into it would corrupt rather than resume).
  void Restore(std::span<const std::uint8_t> bytes);

  /// Restore from a file written by SnapshotToFile, verifying its CRC
  /// framing first — a truncated or bit-flipped checkpoint throws
  /// SnapshotError naming the corrupt section and absolute file offsets.
  void RestoreFromFile(const std::string& path);

  /// Serialize ONLY the controller plane (flow tables, pending sub-windows,
  /// recovery RNGs) — the standby failover checkpoint. Orders of magnitude
  /// smaller than Snapshot(), byte-identical for one seed from run to run,
  /// and ingestible by a StandbyController every few boundaries; see
  /// docs/failover.md.
  std::vector<std::uint8_t> SnapshotControllers() const;

  /// Standby takeover against the LIVE fabric: replace the controllers'
  /// state with a (stale) SnapshotControllers() checkpoint taken `staleness`
  /// boundaries ago, then re-request everything the checkpoint predates
  /// from the switches (OmniWindowController::BeginTakeover — active
  /// collections keep delivering, finished ones answer from the
  /// retransmission cache, evicted ones are flagged lost). Unlike
  /// Restore(), switch/link/network state is untouched and the window
  /// stream accumulated so far is kept: post-takeover emissions append to
  /// it, and spans the dead primary already delivered re-emit (at-least-
  /// once — dedupe by span, keeping the first copy). Call at a quiescent
  /// point; keep driving afterwards so the re-requests are answered.
  struct TakeoverStats {
    std::size_t subwindows_requeried = 0;
    std::size_t subwindows_lost = 0;
  };
  TakeoverStats FailOver(std::span<const std::uint8_t> controller_bytes,
                         Nanos now);

  /// True once every controller's in-order finalization point has reached
  /// the sub-window the fabric was at when FailOver ran — i.e. the standby
  /// has re-collected (or flagged) everything the kill put in flight.
  bool TakeoverCaughtUp() const;

  /// Drain the run to completion (flush rounds, stats harvest) and return
  /// the result. Call at most once; throws std::logic_error on reuse.
  NetworkRunResult Finish();

  /// Windows and counters accumulated so far (the killed session's half of
  /// the concatenation contract above).
  const NetworkRunResult& partial_result() const noexcept { return result_; }

  Nanos trace_duration() const noexcept { return trace_duration_; }

 private:
  /// Shared body of Snapshot/SnapshotToFile: serialize into `w`.
  void BuildSnapshot(SnapshotWriter& w) const;

 public:
  std::size_t num_switches() const noexcept { return switches_.size(); }
  const OmniWindowProgram& program(std::size_t i) const {
    return *programs_[i];
  }
  const OmniWindowController& controller(std::size_t i) const {
    return *controllers_[i];
  }

 private:
  NetworkRunConfig cfg_;
  std::function<FlowSet(TableView)> detect_;
  std::vector<std::vector<int>> adj_;
  /// One NIC per switch when RDMA collection is on (empty otherwise).
  /// Declared before the fabric so it outlives the programs and
  /// controllers that point into it.
  std::vector<std::unique_ptr<RdmaNic>> nics_;
  Network net_;
  std::vector<Switch*> switches_;
  std::vector<std::shared_ptr<OmniWindowProgram>> programs_;
  std::vector<std::unique_ptr<OmniWindowController>> controllers_;
  std::vector<std::unique_ptr<Link>> report_links_;
  std::vector<Link*> links_;  ///< fabric links, creation order
  /// Per-sink delivered counters (stable deque addresses; see Finish).
  std::deque<std::uint64_t> sink_delivered_;
  Nanos trace_duration_ = 0;
  NetworkRunResult result_;
  /// Per-switch catch-up targets recorded by FailOver (empty = no takeover).
  std::vector<SubWindowNum> takeover_targets_;
  bool finished_ = false;
};

/// Replay `trace` through the fabric described by `cfg.topology`, injecting
/// at switch 0. `make_app` builds the per-switch app (called once per
/// switch, in id order); `detect` extracts each completed window's
/// detections. Thin wrapper over FabricSession (construct + Finish).
NetworkRunResult RunOmniWindowFabric(
    const Trace& trace,
    const std::function<AdapterPtr(std::size_t switch_index)>& make_app,
    NetworkRunConfig cfg,
    std::function<FlowSet(TableView)> detect = {});

}  // namespace ow
