// Multi-switch network orchestration.
//
// Network owns a set of switches and drives them with one deterministic
// event engine (docs/network_topologies.md, "Fabric engine"): repeatedly
// pick the switch with the earliest pending event and batch it up to the
// minimum next-event time over every OTHER switch. Because every handler
// schedules downstream arrivals strictly later (inter-switch links must
// have positive latency; Connect enforces it), processing the
// globally-earliest device first preserves causality without a shared
// event queue — for arbitrary directed topologies, not just chains. On a
// cyclic fabric the batch is also capped one ns short of its own earliest
// event plus the shortest round trip back to it over Connect links (the
// sum of their lookaheads), so a switch never runs past its own packets
// coming back around a cycle; on a DAG that cap is infinite and the
// schedule is exactly the two-rule one. An activity-driven skip list keeps
// the per-batch scan proportional to the number of switches that actually
// have work, not the fabric size.
//
// Links deliver straight into the downstream switch's event lanes
// (Switch::EnqueueFromWire): the batch bound guarantees the receiver has
// not run past any arrival it is handed, so one (time, seq) order per
// switch is all the engine needs.
//
// Topology model: each switch exposes dense integer egress ports. Connect
// wires one port of `a` into `b` (or a sink); fan-out is multiple ports on
// one switch, fan-in is multiple links delivering into one switch's wire
// ingress. Which port a forwarded packet leaves on is decided by the
// program (PipelineActions::egress_port) or the switch's forwarding policy
// (e.g. MakeEcmpPolicy); single-port switches need neither.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/clock.h"
#include "src/common/hash.h"
#include "src/net/link.h"
#include "src/switchsim/pipeline.h"

namespace ow {

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
  /// overwrite). Links between switches must have positive latency — the
  /// engine relies on downstream arrivals being strictly later than their
  /// cause. Both switches must belong to this network. Passing no seed
  /// derives a per-link seed from the network base seed.
  Link* Connect(Switch* a, Switch* b, LinkParams params,
                std::optional<std::uint64_t> seed = std::nullopt,
                int port = kAutoPort);

  /// Wire egress `port` of `a` to a sink callback over a link (last hop).
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

  /// Drive all switches until no device has a pending event at or before
  /// `max_time`. Returns the timestamp of the last processed event (-1 if
  /// nothing ran).
  Nanos RunUntilQuiescent(Nanos max_time);

  SimClock& clock() noexcept { return clock_; }

  /// Checkpoint the network's runtime state at a quiescent point (no
  /// RunUntilQuiescent in progress): global clock, link schedule positions
  /// and every switch's event lanes. Topology, handlers and seeds are
  /// configuration; the restoring side rebuilds the identical topology
  /// (same construction order) before calling Load, which verifies the
  /// shape and marks every switch active so the engine rescans restored
  /// work.
  void Save(SnapshotWriter& w) const;
  void Load(SnapshotReader& r);

 private:
  /// A Connect link between two switches: the edge the cycle-cap search
  /// walks.
  struct FabricEdge {
    std::size_t src = 0;
    std::size_t dst = 0;
    Nanos lookahead = 0;  ///< src pipeline latency + link latency floor
  };

  struct Node {
    Node(SimClock& global, Nanos deviation, int id, SwitchTimings timings)
        : sw(std::make_unique<Switch>(id, timings)),
          clock(global, deviation) {}

    std::unique_ptr<Switch> sw;
    LocalClock clock;
    bool in_active = false;  ///< member of active_
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
  /// Activity hook: adds the switch to the engine's scan list.
  void MarkActive(std::size_t idx);
  /// Shortest round trip from each switch back to itself over Connect
  /// links (Dijkstra on edge lookaheads), or the far-future "never"
  /// sentinel for a switch on no cycle.
  void RefreshCycleLookaheads();

  SimClock clock_;
  std::uint64_t base_seed_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<LinkInfo> link_infos_;
  std::vector<FabricEdge> edges_;
  /// Switches with (possibly) pending work, maintained by MarkActive and
  /// compacted during the sequential scan.
  std::vector<std::size_t> active_;
  /// Per-switch shortest cycle lookahead (RefreshCycleLookaheads), rebuilt
  /// by the engine after AddSwitch/Connect change the fabric.
  std::vector<Nanos> cycle_lookahead_;
  bool cycles_stale_ = false;
};

/// Hash-based ECMP forwarding policy: a flow's five-tuple picks one member
/// port, so every packet of a flow rides the same path (deterministic in
/// `seed`; reseeding reshuffles the flow->port mapping). Packets without an
/// addressable flow (all-zero five-tuple, e.g. end-of-trace sentinels) are
/// flooded to every member so window-moving signals reach all paths.
Switch::ForwardingPolicy MakeEcmpPolicy(std::vector<int> ports,
                                        std::uint64_t seed);

}  // namespace ow
