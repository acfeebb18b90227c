#include "src/net/network.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/common/snapshot.h"

namespace ow {

namespace {

/// Sentinel for "on no cycle". Far enough from the Nanos ceiling that adding
/// any link lookahead cannot overflow.
constexpr Nanos kNeverNs = std::numeric_limits<Nanos>::max() / 4;

}  // namespace

Switch* Network::AddSwitch(SwitchTimings timings, Nanos clock_deviation) {
  const std::size_t idx = nodes_.size();
  nodes_.push_back(
      std::make_unique<Node>(clock_, clock_deviation, int(idx), timings));
  Switch* sw = nodes_.back()->sw.get();
  // Every ingress path (wire, controller) funnels through the activity
  // hook, so the scan list stays correct even for switches wired up
  // manually with raw Links instead of Connect.
  sw->SetActivityListener([this, idx] { MarkActive(idx); });
  cycles_stale_ = true;
  return sw;
}

LocalClock& Network::ClockOf(const Switch* sw) {
  for (auto& node : nodes_) {
    if (node->sw.get() == sw) return node->clock;
  }
  throw std::invalid_argument("Network::ClockOf: unknown switch");
}

void Network::MarkActive(std::size_t idx) {
  Node& node = *nodes_[idx];
  if (node.in_active) return;
  node.in_active = true;
  active_.push_back(idx);
}

std::size_t Network::NodeIndexOf(const Switch* sw, const char* where) const {
  const std::size_t idx = std::size_t(sw->id());
  if (idx < nodes_.size() && nodes_[idx]->sw.get() == sw) return idx;
  throw std::invalid_argument(std::string(where) +
                              ": switch not owned by this network");
}

int Network::ResolvePort(Switch* a, int port, const char* where) const {
  if (port == kAutoPort) {
    int p = 0;
    while (a->HasPortHandler(p)) ++p;
    return p;
  }
  if (port < 0) {
    throw std::invalid_argument(std::string(where) + ": negative port");
  }
  if (a->HasPortHandler(port)) {
    throw std::logic_error(std::string(where) + ": switch " +
                           std::to_string(a->id()) + " port " +
                           std::to_string(port) + " already connected");
  }
  return port;
}

Link* Network::Connect(Switch* a, Switch* b, LinkParams params,
                       std::optional<std::uint64_t> seed, int port) {
  if (params.latency <= 0) {
    // A zero-latency inter-switch link would let a switch schedule work for
    // a neighbor at the very timestamp the neighbor may already have
    // batched past.
    throw std::invalid_argument(
        "Network::Connect: inter-switch links need positive latency");
  }
  const int egress = ResolvePort(a, port, "Network::Connect");
  if (a != b) {
    // Self-loops need no cycle cap: the link enqueues a switch's returning
    // traffic straight into the lanes its running batch drains in time
    // order.
    edges_.push_back({NodeIndexOf(a, "Network::Connect"),
                      NodeIndexOf(b, "Network::Connect"),
                      a->timings().pipeline_latency + params.latency});
    cycles_stale_ = true;
  }
  Link::Deliver deliver = [b](Packet p, Nanos arrival) {
    b->EnqueueFromWire(std::move(p), arrival);
  };
  auto link = std::make_unique<Link>(params, std::move(deliver),
                                     seed.value_or(DeriveLinkSeed()));
  Link* raw = link.get();
  a->SetPortHandler(
      egress, [raw](const Packet& p, Nanos now) { raw->Transmit(p, now); });
  link_infos_.push_back({raw, a->id(), b->id(), egress});
  links_.push_back(std::move(link));
  return raw;
}

Link* Network::ConnectToSink(Switch* a, LinkParams params, Link::Deliver sink,
                             std::optional<std::uint64_t> seed, int port) {
  const int egress = ResolvePort(a, port, "Network::ConnectToSink");
  auto link = std::make_unique<Link>(params, std::move(sink),
                                     seed.value_or(DeriveLinkSeed()));
  Link* raw = link.get();
  a->SetPortHandler(
      egress, [raw](const Packet& p, Nanos now) { raw->Transmit(p, now); });
  link_infos_.push_back({raw, a->id(), -1, egress});
  links_.push_back(std::move(link));
  return raw;
}

void Network::RefreshCycleLookaheads() {
  const std::size_t n = nodes_.size();
  std::vector<std::vector<const FabricEdge*>> out(n);
  for (const FabricEdge& e : edges_) out[e.src].push_back(&e);
  cycle_lookahead_.assign(n, kNeverNs);
  std::vector<Nanos> dist(n);
  using Reached = std::pair<Nanos, std::size_t>;
  std::priority_queue<Reached, std::vector<Reached>, std::greater<>> frontier;
  for (std::size_t s = 0; s < n; ++s) {
    std::fill(dist.begin(), dist.end(), kNeverNs);
    dist[s] = 0;
    frontier.push({0, s});
    while (!frontier.empty()) {
      const auto [d, u] = frontier.top();
      frontier.pop();
      if (d > dist[u]) continue;
      for (const FabricEdge* e : out[u]) {
        const std::size_t v = e->dst;
        const Nanos via = d + e->lookahead;
        if (v == s) {
          cycle_lookahead_[s] = std::min(cycle_lookahead_[s], via);
        } else if (via < dist[v]) {
          dist[v] = via;
          frontier.push({via, v});
        }
      }
    }
  }
  cycles_stale_ = false;
}

Nanos Network::RunUntilQuiescent(Nanos max_time) {
  if (cycles_stale_) RefreshCycleLookaheads();
  Nanos last = -1;
  while (true) {
    // Pick the switch with the earliest pending event, and the next-earliest
    // pending time among the OTHER switches. The earliest switch may batch
    // all the way to that bound: links only ever schedule downstream
    // arrivals strictly after the causing event (positive latency, enforced
    // by Connect), so no other device — however many upstream links feed it
    // — can create work for the earliest switch before `bound`, and
    // per-switch event order — the only order that matters, device state is
    // per-switch — is untouched. `others` ranges over every other device,
    // so multi-downstream fan-out and fan-in tighten the bound but never
    // invalidate it; the one thing it cannot bound is the earliest
    // switch's own traffic returning around a cycle (the cap below).
    //
    // Only switches that have signalled activity are scanned (quiescence
    // detection is O(active), not O(fabric)); a drained switch drops out of
    // the list here and re-enters through its activity hook. Ties on the
    // pending time resolve to the smallest switch id — exactly what the
    // historical full scan in id order produced — so the order in which
    // equal-time arrivals reach a switch, and with it their seqs, is
    // engine-version-stable.
    std::size_t best = std::size_t(-1);
    Nanos best_t = -1;
    Nanos others = -1;
    std::size_t w = 0;
    for (std::size_t r = 0; r < active_.size(); ++r) {
      const std::size_t idx = active_[r];
      const Nanos pend = nodes_[idx]->sw->NextEventTime();
      if (pend < 0) {
        nodes_[idx]->in_active = false;
        continue;
      }
      active_[w++] = idx;
      if (pend > max_time) continue;
      if (best == std::size_t(-1) || pend < best_t ||
          (pend == best_t && idx < best)) {
        if (best != std::size_t(-1) && (others < 0 || best_t < others)) {
          others = best_t;
        }
        best = idx;
        best_t = pend;
      } else if (others < 0 || pend < others) {
        others = pend;
      }
    }
    active_.resize(w);
    if (best == std::size_t(-1)) break;
    Nanos bound = others < 0 ? max_time : others;
    // The OTHER switches' pending times cannot see the chosen switch's own
    // output coming back around a cycle: whatever it dispatches from best_t
    // on returns no earlier than best_t + its shortest round trip.
    const Nanos cycle = cycle_lookahead_[best];
    if (cycle < kNeverNs) bound = std::min(bound, best_t + cycle - 1);
    Switch* sw = nodes_[best]->sw.get();
    sw->RunBatch(bound);
    if (sw->last_event_time() > last) last = sw->last_event_time();
    clock_.AdvanceTo(sw->last_event_time());
  }
  return last;
}

Switch::ForwardingPolicy MakeEcmpPolicy(std::vector<int> ports,
                                        std::uint64_t seed) {
  if (ports.empty()) {
    throw std::invalid_argument("MakeEcmpPolicy: no member ports");
  }
  return [ports = std::move(ports), seed](const Packet& p, Nanos) -> int {
    const FiveTuple& ft = p.ft;
    if (ft.src_ip == 0 && ft.dst_ip == 0 && ft.src_port == 0 &&
        ft.dst_port == 0 && ft.proto == 0) {
      return kFloodEgress;  // sentinel / signal packet: reach every path
    }
    const std::uint64_t h = p.Key(FlowKeyKind::kFiveTuple).Hash(seed);
    return ports[h % ports.size()];
  };
}

void Network::Save(SnapshotWriter& w) const {
  w.Section(snap::kNetwork);
  w.I64(clock_.Now());
  w.Size(nodes_.size());
  w.Size(links_.size());
  w.Size(edges_.size());
  for (const auto& link : links_) link->Save(w);
  for (const auto& node : nodes_) node->sw->Save(w);
}

void Network::Load(SnapshotReader& r) {
  r.Section(snap::kNetwork);
  clock_.AdvanceTo(r.I64());
  const std::size_t nodes = r.Size();
  const std::size_t links = r.Size();
  const std::size_t edges = r.Size();
  CheckShape(snap::kNetwork, "Network", "node count", nodes_.size(), nodes);
  CheckShape(snap::kNetwork, "Network", "link count", links_.size(), links);
  CheckShape(snap::kNetwork, "Network", "switch-to-switch link count",
             edges_.size(), edges);
  for (const auto& link : links_) link->Load(r);
  for (const auto& node : nodes_) node->sw->Load(r);
  // Restored lanes hold work the activity listener never saw; put every
  // switch on the engine's scan list.
  for (std::size_t i = 0; i < nodes_.size(); ++i) MarkActive(i);
}

}  // namespace ow
