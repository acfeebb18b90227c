// Multi-switch network orchestration.
//
// Network owns a set of switches and drives them with one deterministic
// event engine (docs/network_topologies.md, "Fabric engine"): repeatedly
// pick the switch with the earliest pending event and batch it up to the
// minimum next-event time over every OTHER switch. Inter-switch links have
// positive latency and Connect rejects any link that would close a cycle,
// so a switch's output only ever schedules work strictly later, on
// switches it can never hear back from. Processing the globally-earliest
// device first therefore preserves causality without a shared event
// queue. An activity-driven skip list keeps the per-batch scan
// proportional to the number of switches that actually have work, not the
// fabric size.
//
// Links deliver straight into the downstream switch's event lanes
// (Switch::EnqueueFromWire): the batch bound guarantees the receiver has
// not run past any arrival it is handed, so one (time, seq) order per
// switch is all the engine needs.
//
// Topology model: each switch exposes dense integer egress ports. Connect
// wires the lowest free port of `a` into `b` (ConnectToSink into a sink);
// fan-out is multiple ports on one switch, fan-in is multiple links
// delivering into one switch's wire ingress. A fan-out switch forwards by
// ECMP (Switch::SetEcmpSeed); single-port switches forward on port 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/hash.h"
#include "src/net/link.h"
#include "src/switchsim/pipeline.h"

namespace ow {

class Network {
 public:
  /// Create a switch owned by the network.
  Switch* AddSwitch();

  /// Wire the lowest free egress port of `a` into `b` over a link. Returns
  /// the link for stats inspection. Throws std::invalid_argument for a link
  /// with non-positive latency (the engine relies on downstream arrivals
  /// being strictly later than their cause), for a link that would close a
  /// cycle (`b` already reaches `a` over Connect links, or `a == b`), and
  /// for a switch this network does not own. Passing no seed derives a
  /// per-link seed from the link's creation index.
  Link* Connect(Switch* a, Switch* b, LinkParams params,
                std::optional<std::uint64_t> seed = std::nullopt);

  /// Wire the lowest free egress port of `a` to a sink callback over a link
  /// (last hop).
  Link* ConnectToSink(Switch* a, LinkParams params, Link::Deliver sink,
                      std::optional<std::uint64_t> seed = std::nullopt);

  /// Drive all switches until no device has a pending event at or before
  /// `max_time`. Returns the timestamp of the last processed event (-1 if
  /// nothing ran).
  Nanos RunUntilQuiescent(Nanos max_time);

  /// Checkpoint the network's runtime state at a quiescent point (no
  /// RunUntilQuiescent in progress): link schedule positions and every
  /// switch's event lanes. Topology, handlers and seeds are configuration;
  /// the restoring side rebuilds the identical topology (same construction
  /// order) before calling Load, which verifies the shape and marks every
  /// switch active so the engine rescans restored work.
  void Save(SnapshotWriter& w) const;
  void Load(SnapshotReader& r);

 private:
  struct Node {
    std::unique_ptr<Switch> sw;
    std::vector<std::size_t> downstream;  ///< Connect targets, node indices
    bool in_active = false;               ///< member of active_
  };

  /// Base of the per-link seed derivation.
  static constexpr std::uint64_t kLinkSeedBase = 0x0117C011417C5ull;

  /// Seed of a link created without one: a SplitMix sequence over the
  /// link-creation index (the scheme src/fault uses for its per-feature
  /// streams), so default-seeded links never share loss/jitter schedules
  /// and a run is reproducible from its construction order.
  std::uint64_t DeriveLinkSeed() const noexcept {
    return Mix64(kLinkSeedBase +
                 0x9E3779B97F4A7C15ull * (std::uint64_t(links_.size()) + 1));
  }
  /// Node index of an owned switch (ids are dense indices); throws for
  /// switches this network did not create.
  std::size_t NodeIndexOf(const Switch* sw, const char* where) const;
  /// True when node `to` is `from` or downstream of it over Connect links.
  bool Reaches(std::size_t from, std::size_t to) const;
  /// Activity hook: adds the switch to the engine's scan list.
  void MarkActive(std::size_t idx);

  std::vector<Node> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::size_t fabric_links_ = 0;  ///< Connect links (switch to switch)
  /// Switches with (possibly) pending work, maintained by MarkActive and
  /// compacted during the scan.
  std::vector<std::size_t> active_;
};

}  // namespace ow
