#include "src/net/network.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "src/common/snapshot.h"

namespace ow {

Switch* Network::AddSwitch() {
  const std::size_t idx = nodes_.size();
  nodes_.push_back({std::make_unique<Switch>(int(idx))});
  Switch* sw = nodes_.back().sw.get();
  // Every ingress path (wire, controller) funnels through the activity
  // hook, so the scan list stays correct even for switches wired up
  // manually with raw Links instead of Connect.
  sw->SetActivityListener([this, idx] { MarkActive(idx); });
  return sw;
}

void Network::MarkActive(std::size_t idx) {
  Node& node = nodes_[idx];
  if (node.in_active) return;
  node.in_active = true;
  active_.push_back(idx);
}

std::size_t Network::NodeIndexOf(const Switch* sw, const char* where) const {
  const std::size_t idx = std::size_t(sw->id());
  if (idx < nodes_.size() && nodes_[idx].sw.get() == sw) return idx;
  throw std::invalid_argument(std::string(where) +
                              ": switch not owned by this network");
}

bool Network::Reaches(std::size_t from, std::size_t to) const {
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<std::size_t> stack{from};
  seen[from] = true;
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    if (u == to) return true;
    for (const std::size_t v : nodes_[u].downstream) {
      if (!seen[v]) {
        seen[v] = true;
        stack.push_back(v);
      }
    }
  }
  return false;
}

Link* Network::Connect(Switch* a, Switch* b, LinkParams params,
                       std::optional<std::uint64_t> seed) {
  if (params.latency <= 0) {
    // A zero-latency inter-switch link would let a switch schedule work for
    // a neighbor at the very timestamp the neighbor may already have
    // batched past.
    throw std::invalid_argument(
        "Network::Connect: inter-switch links need positive latency");
  }
  const std::size_t from = NodeIndexOf(a, "Network::Connect");
  const std::size_t to = NodeIndexOf(b, "Network::Connect");
  if (Reaches(to, from)) {
    // The engine batches a switch up to the other switches' next event,
    // which cannot see the switch's own output coming back around a cycle.
    throw std::invalid_argument(
        "Network::Connect: link from switch " + std::to_string(a->id()) +
        " to switch " + std::to_string(b->id()) + " would close a cycle");
  }
  Link* link = ConnectToSink(
      a, params,
      [b](Packet&& p, Nanos arrival) {
        b->EnqueueFromWire(std::move(p), arrival);
      },
      seed);
  nodes_[from].downstream.push_back(to);
  ++fabric_links_;
  return link;
}

Link* Network::ConnectToSink(Switch* a, LinkParams params, Link::Deliver sink,
                             std::optional<std::uint64_t> seed) {
  int port = 0;
  while (a->HasPortHandler(port)) ++port;
  auto link = std::make_unique<Link>(params, std::move(sink),
                                     seed.value_or(DeriveLinkSeed()));
  Link* raw = link.get();
  a->SetPortHandler(port, [raw](Packet&& p, Nanos now) {
    raw->Transmit(std::move(p), now);
  });
  links_.push_back(std::move(link));
  return raw;
}

Nanos Network::RunUntilQuiescent(Nanos max_time) {
  Nanos last = -1;
  while (true) {
    // Pick the switch with the earliest pending event, and the next-earliest
    // pending time among the OTHER switches. The earliest switch may batch
    // all the way to that bound: links only ever schedule downstream
    // arrivals strictly after the causing event (positive latency, enforced
    // by Connect) and never back to the switch that caused them (Connect
    // rejects cycles), so no device — however many upstream links feed it
    // — can create work for the earliest switch before `bound`, and
    // per-switch event order — the only order that matters, device state is
    // per-switch — is untouched. `others` ranges over every other device,
    // so multi-downstream fan-out and fan-in tighten the bound but never
    // invalidate it.
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
      const Nanos pend = nodes_[idx].sw->NextEventTime();
      if (pend < 0) {
        nodes_[idx].in_active = false;
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
    Switch* sw = nodes_[best].sw.get();
    sw->RunBatch(others < 0 ? max_time : others);
    if (sw->last_event_time() > last) last = sw->last_event_time();
  }
  return last;
}

void Network::Save(SnapshotWriter& w) const {
  w.Section(snap::kNetwork);
  w.Size(nodes_.size());
  w.Size(links_.size());
  w.Size(fabric_links_);
  for (const auto& link : links_) link->Save(w);
  for (const Node& node : nodes_) node.sw->Save(w);
}

void Network::Load(SnapshotReader& r) {
  r.Section(snap::kNetwork);
  const std::size_t nodes = r.Size();
  const std::size_t links = r.Size();
  const std::size_t fabric_links = r.Size();
  CheckShape(snap::kNetwork, "Network", "node count", nodes_.size(), nodes);
  CheckShape(snap::kNetwork, "Network", "link count", links_.size(), links);
  CheckShape(snap::kNetwork, "Network", "switch-to-switch link count",
             fabric_links_, fabric_links);
  for (const auto& link : links_) link->Load(r);
  for (const Node& node : nodes_) node.sw->Load(r);
  // Restored lanes hold work the activity listener never saw; put every
  // switch on the engine's scan list.
  for (std::size_t i = 0; i < nodes_.size(); ++i) MarkActive(i);
}

}  // namespace ow
