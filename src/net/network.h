// Multi-switch network orchestration.
//
// Network owns a set of switches and drives them with one of two engines
// that produce bit-identical results (docs/parallel_execution.md):
//
//   * Sequential (ParallelConfig::threads == 0, the default): repeatedly
//     pick the switch with the earliest pending event and batch it up to
//     the minimum next-event time over every OTHER switch. Because every
//     handler schedules downstream arrivals strictly later (inter-switch
//     links must have positive latency; Connect enforces it), processing
//     the globally-earliest device first preserves causality without a
//     shared event queue — for arbitrary directed topologies, not just
//     chains. On a cyclic fabric the batch is also capped one ns short of
//     its own earliest event plus the shortest round trip back to it over
//     Connect links (the sum of their lookaheads), so a switch never runs
//     past its own packets coming back around a cycle; on a DAG that cap
//     is infinite and the schedule is exactly the two-rule one. An
//     activity-driven skip list keeps the per-batch scan proportional to
//     the number of switches that actually have work, not the fabric size.
//
//   * Parallel (threads >= 1): conservative-lookahead workers. Switches
//     are sharded round-robin across a thread pool; each shard advances a
//     switch only to its horizon — the minimum over ingress links of the
//     upstream switch's published committed-time plus the link's lookahead
//     (upstream pipeline latency + link propagation floor) — so a shard
//     never executes past an event an upstream shard could still emit.
//     Cross-shard wire packets travel through per-link SPSC handoff
//     queues; same-shard and sequential deliveries stage directly.
//
// Either way, wire arrivals are staged per switch and committed in one
// canonical (time, ingress-link ordinal, per-link tx index) order with
// deterministically assigned sequence numbers, which is what makes window
// contents, link stats and obs totals independent of the engine and of the
// thread count (see Switch::CommitStagedThrough).
//
// Topology model: each switch exposes dense integer egress ports. Connect
// wires one port of `a` into `b` (or a sink); fan-out is multiple ports on
// one switch, fan-in is multiple links delivering into one switch's wire
// ingress. Which port a forwarded packet leaves on is decided by the
// program (PipelineActions::egress_port) or the switch's forwarding policy
// (e.g. MakeEcmpPolicy); single-port switches need neither.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/clock.h"
#include "src/common/hash.h"
#include "src/net/link.h"
#include "src/net/spsc.h"
#include "src/switchsim/pipeline.h"

namespace ow {

/// Execution knobs for Network::RunUntilQuiescent. `threads == 0` keeps
/// the sequential engine; `threads >= 1` runs the conservative-lookahead
/// worker pool (1 is a valid degenerate pool, useful for A/B testing the
/// parallel machinery itself). `batch_events` bounds each drain slice
/// between committed-time publications so an upstream shard pipelines into
/// its downstream shards instead of running the whole trace before
/// publishing progress.
///
/// Requirement in parallel mode: controller handlers must only inject into
/// the switch that produced the report (true for everything src/core
/// builds) — controllers run inline on the worker that owns their switch.
struct ParallelConfig {
  std::size_t threads = 0;
  std::size_t batch_events = 1024;
};

class Network {
 public:
  /// "Pick the lowest unconnected egress port" for Connect/ConnectToSink.
  static constexpr int kAutoPort = -1;

  /// `base_seed` feeds the per-link seed derivation: every link created
  /// without an explicit seed gets a distinct SplitMix-derived stream, so
  /// default-seeded links never share loss/jitter schedules. Runs are
  /// reproducible from (base_seed, construction order).
  explicit Network(std::uint64_t base_seed = 0x0117C011417C5ull)
      : base_seed_(base_seed) {}

  /// Create a switch owned by the network. `clock_deviation` models residual
  /// PTP error for this device (Exp#9).
  Switch* AddSwitch(SwitchTimings timings = {}, Nanos clock_deviation = 0);

  /// Per-switch local clock (global simulated time + deviation).
  LocalClock& ClockOf(const Switch* sw);

  /// Wire egress `port` of `a` into b over a link. Returns the link for
  /// stats inspection. `port = kAutoPort` picks the lowest free port;
  /// connecting an explicitly named occupied port throws (no silent
  /// overwrite). Links between switches must have positive latency — both
  /// engines rely on downstream arrivals being strictly later than their
  /// cause. Both switches must belong to this network. Passing no seed
  /// derives a per-link seed from the network base seed.
  Link* Connect(Switch* a, Switch* b, LinkParams params,
                std::optional<std::uint64_t> seed = std::nullopt,
                int port = kAutoPort);

  /// Wire egress `port` of `a` to a sink callback over a link (last hop).
  /// In parallel mode the sink runs on the worker that owns `a`.
  Link* ConnectToSink(Switch* a, LinkParams params, Link::Deliver sink,
                      std::optional<std::uint64_t> seed = std::nullopt,
                      int port = kAutoPort);

  /// One entry per Connect/ConnectToSink call, in creation order. `to` is
  /// the downstream switch id, or -1 for a sink. This is the ground-truth
  /// map the loss-localization checks compare against.
  struct LinkInfo {
    Link* link = nullptr;
    int from = -1;
    int to = -1;
    int port = 0;
  };
  const std::vector<LinkInfo>& links() const noexcept { return link_infos_; }

  /// Select the execution engine for subsequent RunUntilQuiescent calls.
  void SetParallel(ParallelConfig cfg) noexcept { parallel_ = cfg; }
  const ParallelConfig& parallel() const noexcept { return parallel_; }

  /// Drive all switches until no device has a pending event at or before
  /// `max_time`. Returns the timestamp of the last processed event (-1 if
  /// nothing ran).
  Nanos RunUntilQuiescent(Nanos max_time);

  SimClock& clock() noexcept { return clock_; }

  /// Checkpoint the network's runtime state at a quiescent point (no
  /// RunUntilQuiescent in progress): global clock, link schedule positions,
  /// per-endpoint tx counters and every switch's event lanes. Topology,
  /// handlers and seeds are configuration; the restoring side rebuilds the
  /// identical topology (same construction order) before calling Load,
  /// which verifies the shape and marks every switch active so the
  /// sequential engine rescans restored work.
  void Save(SnapshotWriter& w) const;
  void Load(SnapshotReader& r);

 private:
  /// One cross-shard wire packet in flight.
  struct WireMsg {
    Packet packet;
    Nanos arrival = 0;
    std::uint64_t tx = 0;
  };

  /// The receiving end of a Connect link. Assigns the per-link tx index at
  /// send time — on the producer's thread, in the producer's dispatch
  /// order, so the canonical (time, ordinal, tx) commit key is fixed
  /// before any scheduling decision can perturb it. Routes into the
  /// destination's staged buffer directly, or through an SPSC inbox when
  /// the link crosses shards during a parallel run.
  struct WireEndpoint {
    Switch* dst = nullptr;
    int src_node = -1;
    int dst_node = -1;
    std::uint32_t ordinal = 0;  ///< ingress-link ordinal on dst
    Nanos lookahead = 0;  ///< src pipeline latency + link latency floor
    std::uint64_t tx = 0;
    SpscQueue<WireMsg>* inbox = nullptr;  ///< non-null only cross-shard

    void Deliver(Packet p, Nanos arrival) {
      const std::uint64_t n = tx++;
      if (inbox) {
        inbox->Push({std::move(p), arrival, n});
      } else {
        dst->StageFromWire(std::move(p), arrival, ordinal, n);
      }
    }
  };

  struct Node {
    Node(SimClock& global, Nanos deviation, int id, SwitchTimings timings)
        : sw(std::make_unique<Switch>(id, timings)),
          clock(global, deviation) {}

    std::unique_ptr<Switch> sw;
    LocalClock clock;
    std::vector<WireEndpoint*> ingress;  ///< fabric ingress, ordinal order
    bool in_active = false;  ///< member of active_ (sequential engine)
    /// Published lower bound on this switch's future dispatch times
    /// (parallel engine; release-stored by the owning worker).
    alignas(64) std::atomic<Nanos> ct{0};
    /// Earliest pending work (lanes + staged + drained-but-uncommitted),
    /// for termination detection. Owner-written.
    std::atomic<Nanos> pending_min{0};
  };

  /// Resolve/validate the egress port for a new connection on `a`.
  int ResolvePort(Switch* a, int port, const char* where) const;
  /// SplitMix sequence over the link-creation index, decorrelated from the
  /// base seed (the scheme src/fault uses for its per-feature streams).
  std::uint64_t DeriveLinkSeed() const noexcept {
    return Mix64(base_seed_ +
                 0x9E3779B97F4A7C15ull * (std::uint64_t(links_.size()) + 1));
  }
  /// Node index of an owned switch (ids are dense indices); throws for
  /// switches this network did not create.
  std::size_t NodeIndexOf(const Switch* sw, const char* where) const;
  /// Activity hook: adds the switch to the sequential engine's scan list.
  /// No-op while parallel workers run (they sweep their shards directly).
  void MarkActive(std::size_t idx);
  /// Shortest round trip from each switch back to itself over Connect
  /// links (Dijkstra on endpoint lookaheads), or the far-future "never"
  /// sentinel for a switch on no cycle.
  void RefreshCycleLookaheads();

  Nanos RunSequential(Nanos max_time);
  Nanos RunParallel(Nanos max_time);

  SimClock clock_;
  std::uint64_t base_seed_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<LinkInfo> link_infos_;
  std::vector<std::unique_ptr<WireEndpoint>> endpoints_;
  /// Switches with (possibly) pending work, maintained by MarkActive and
  /// compacted during the sequential scan.
  std::vector<std::size_t> active_;
  /// Per-switch shortest cycle lookahead (RefreshCycleLookaheads), rebuilt
  /// by the sequential engine after AddSwitch/Connect change the fabric.
  std::vector<Nanos> cycle_lookahead_;
  bool cycles_stale_ = false;
  ParallelConfig parallel_;
  std::atomic<bool> parallel_running_{false};
};

/// Hash-based ECMP forwarding policy: a flow's five-tuple picks one member
/// port, so every packet of a flow rides the same path (deterministic in
/// `seed`; reseeding reshuffles the flow->port mapping). Packets without an
/// addressable flow (all-zero five-tuple, e.g. end-of-trace sentinels) are
/// flooded to every member so window-moving signals reach all paths.
Switch::ForwardingPolicy MakeEcmpPolicy(std::vector<int> ports,
                                        std::uint64_t seed);

}  // namespace ow
