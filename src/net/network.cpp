#include "src/net/network.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "src/common/snapshot.h"
#include "src/obs/obs.h"

namespace ow {

namespace {

/// Sentinel for "no pending work / no horizon constraint". Far enough from
/// the Nanos ceiling that adding any link lookahead cannot overflow.
constexpr Nanos kNeverNs = std::numeric_limits<Nanos>::max() / 4;

}  // namespace

Switch* Network::AddSwitch(SwitchTimings timings, Nanos clock_deviation) {
  const std::size_t idx = nodes_.size();
  nodes_.push_back(
      std::make_unique<Node>(clock_, clock_deviation, int(idx), timings));
  Switch* sw = nodes_.back()->sw.get();
  // Every ingress path (wire, controller, staged) funnels through the
  // activity hook, so the sequential scan list stays correct even for
  // switches wired up manually with raw Links instead of Connect.
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
  // Parallel workers sweep their shards unconditionally; the active list
  // is sequential-engine state and must not be touched from worker
  // threads.
  if (parallel_running_.load(std::memory_order_relaxed)) return;
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
    // Zero-latency inter-switch links would let a switch schedule work for
    // a neighbor at the very timestamp the neighbor may already have
    // batched past (sequential bound) or committed past (parallel
    // horizon).
    throw std::invalid_argument(
        "Network::Connect: inter-switch links need positive latency");
  }
  const int egress = ResolvePort(a, port, "Network::Connect");
  Link::Deliver deliver;
  if (a == b) {
    // Self-loop: deliver straight into the shared-seq wire path. Staging a
    // switch's own output would defer it past timestamps the switch may
    // already have batched beyond, and a self-loop never crosses shards.
    deliver = [b](Packet p, Nanos arrival) {
      b->EnqueueFromWire(std::move(p), arrival);
    };
  } else {
    const std::size_t src = NodeIndexOf(a, "Network::Connect");
    const std::size_t dst = NodeIndexOf(b, "Network::Connect");
    auto ep = std::make_unique<WireEndpoint>();
    ep->dst = b;
    ep->src_node = int(src);
    ep->dst_node = int(dst);
    ep->ordinal = std::uint32_t(nodes_[dst]->ingress.size());
    ep->lookahead = a->timings().pipeline_latency + params.latency;
    WireEndpoint* raw_ep = ep.get();
    nodes_[dst]->ingress.push_back(raw_ep);
    endpoints_.push_back(std::move(ep));
    cycles_stale_ = true;
    deliver = [raw_ep](Packet p, Nanos arrival) {
      raw_ep->Deliver(std::move(p), arrival);
    };
  }
  auto link = std::make_unique<Link>(params, std::move(deliver),
                                     seed.value_or(DeriveLinkSeed()));
  Link* raw = link.get();
  a->SetPortHandler(egress,
                    [raw](const Packet& p, Nanos now) { raw->Transmit(p, now); });
  link_infos_.push_back({raw, a->id(), b->id(), egress});
  links_.push_back(std::move(link));
  return raw;
}

Link* Network::ConnectToSink(Switch* a, LinkParams params, Link::Deliver sink,
                             std::optional<std::uint64_t> seed, int port) {
  const int egress = ResolvePort(a, port, "Network::ConnectToSink");
  auto link =
      std::make_unique<Link>(params, std::move(sink), seed.value_or(DeriveLinkSeed()));
  Link* raw = link.get();
  a->SetPortHandler(egress,
                    [raw](const Packet& p, Nanos now) { raw->Transmit(p, now); });
  link_infos_.push_back({raw, a->id(), -1, egress});
  links_.push_back(std::move(link));
  return raw;
}

void Network::RefreshCycleLookaheads() {
  const std::size_t n = nodes_.size();
  std::vector<std::vector<const WireEndpoint*>> out(n);
  for (const auto& ep : endpoints_) {
    out[std::size_t(ep->src_node)].push_back(ep.get());
  }
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
      for (const WireEndpoint* ep : out[u]) {
        const std::size_t v = std::size_t(ep->dst_node);
        const Nanos via = d + ep->lookahead;
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
  if (parallel_.threads > 0 && !nodes_.empty()) return RunParallel(max_time);
  return RunSequential(max_time);
}

Nanos Network::RunSequential(Nanos max_time) {
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
    // historical full scan in id order produced — so direct-enqueue seq
    // interleavings are engine-version-stable.
    std::size_t best = std::size_t(-1);
    Nanos best_t = -1;
    Nanos others = -1;
    std::size_t w = 0;
    for (std::size_t r = 0; r < active_.size(); ++r) {
      const std::size_t idx = active_[r];
      const Nanos pend = nodes_[idx]->sw->EarliestPendingTime();
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
    // Wave-partition contract (Switch::CommitStagedThrough): every other
    // device's pending time is >= bound, so any arrival it later sends
    // lands strictly after bound, and the cycle cap keeps the switch's own
    // returning traffic after bound too — nothing at or before bound can
    // still be staged after this call.
    sw->CommitStagedThrough(bound);
    sw->RunBatch(bound);
    if (sw->last_event_time() > last) last = sw->last_event_time();
    clock_.AdvanceTo(sw->last_event_time());
  }
  return last;
}

Nanos Network::RunParallel(Nanos max_time) {
  const std::size_t nthreads =
      std::max<std::size_t>(1, std::min(parallel_.threads, nodes_.size()));
  const std::size_t batch_events =
      std::max<std::size_t>(1, parallel_.batch_events);

  // Cross-shard links get an SPSC inbox for this run; same-shard links keep
  // staging directly (producer and consumer share a worker).
  std::vector<std::unique_ptr<SpscQueue<WireMsg>>> queues;
  for (auto& ep : endpoints_) {
    if (std::size_t(ep->src_node) % nthreads !=
        std::size_t(ep->dst_node) % nthreads) {
      queues.push_back(std::make_unique<SpscQueue<WireMsg>>());
      ep->inbox = queues.back().get();
    }
  }
  for (auto& node : nodes_) {
    // ct = 0 is always a valid lower bound; the first sweeps raise it to
    // min(pending, horizon) and it only ever grows from there.
    node->ct.store(0, std::memory_order_relaxed);
    const Nanos pend = node->sw->EarliestPendingTime();
    node->pending_min.store(pend < 0 ? kNeverNs : pend,
                            std::memory_order_relaxed);
  }

  obs::Registry& reg = obs::Global();
  obs::Counter* idle_spins = &reg.GetCounter("net.parallel.idle_spins");
  obs::Histogram* stall_hist =
      &reg.GetHistogram("net.parallel.horizon_stall_ns");
  std::vector<obs::Counter*> busy(nthreads);
  for (std::size_t i = 0; i < nthreads; ++i) {
    busy[i] = &reg.GetCounter("net.parallel.busy_ns.w" + std::to_string(i));
  }

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> progress{0};
  std::vector<Nanos> worker_last(nthreads, -1);

  parallel_running_.store(true, std::memory_order_release);

  // One pass over every switch the worker owns. The order of operations
  // inside a node pass is load-bearing:
  //   1. read upstream committed times (acquire) -> horizon;
  //   2. drain the SPSC inboxes. Any arrival at or before the horizon was
  //      pushed before its producer's CT release-advanced past it, so the
  //      acquire read in (1) guarantees the drain sees it — draining
  //      before reading CTs would leave a window where a packet inside
  //      the commit bound is missed.
  //   3. commit staged arrivals <= bound and run, publishing CT between
  //      slices so downstream shards pipeline behind this one;
  //   4. publish pending_min for termination detection.
  auto sweep = [&](std::size_t w, Nanos& local_last) -> bool {
    bool worked = false;
    for (std::size_t idx = w; idx < nodes_.size(); idx += nthreads) {
      Node& node = *nodes_[idx];
      Switch* sw = node.sw.get();
      Nanos h = kNeverNs;
      for (const WireEndpoint* ep : node.ingress) {
        const Nanos up =
            nodes_[std::size_t(ep->src_node)]->ct.load(std::memory_order_acquire);
        const Nanos cand = up >= kNeverNs ? kNeverNs : up + ep->lookahead;
        if (cand < h) h = cand;
      }
      for (WireEndpoint* ep : node.ingress) {
        if (!ep->inbox) continue;
        while (WireMsg* msg = ep->inbox->Front()) {
          // Lower pending_min BEFORE consuming: the termination checker
          // must never observe the queue empty while the packet is not
          // yet visible through this node's pending work.
          if (msg->arrival < node.pending_min.load(std::memory_order_relaxed)) {
            node.pending_min.store(msg->arrival, std::memory_order_release);
          }
          sw->StageFromWire(std::move(msg->packet), msg->arrival, ep->ordinal,
                            msg->tx);
          ep->inbox->PopFront();
          worked = true;
        }
      }
      // An arrival exactly at the horizon is possible (upstream dispatch
      // at its committed time), hence the -1.
      const Nanos bound = std::min(h - 1, max_time);
      bool node_ran = false;
      if (sw->CommitStagedThrough(bound) > 0) worked = true;
      while (true) {
        const std::size_t ran = sw->RunBatch(bound, batch_events);
        if (ran > 0) {
          worked = true;
          node_ran = true;
          if (sw->last_event_time() > local_last) {
            local_last = sw->last_event_time();
          }
        }
        const Nanos pend_mid = sw->EarliestPendingTime();
        const Nanos ct_new =
            std::min(pend_mid < 0 ? kNeverNs : pend_mid, h);
        if (ct_new > node.ct.load(std::memory_order_relaxed)) {
          node.ct.store(ct_new, std::memory_order_release);
        }
        if (ran < batch_events) break;
      }
      const Nanos pend = sw->EarliestPendingTime();
      node.pending_min.store(pend < 0 ? kNeverNs : pend,
                             std::memory_order_release);
      if (!node_ran && pend >= 0 && pend > bound && pend <= max_time) {
        stall_hist->Record(std::uint64_t(pend - bound));
      }
    }
    return worked;
  };

  // Quiescent iff nothing is pending within max_time, every handoff queue
  // is drained, and no worker made progress across the double read. The
  // check may rarely pass while work is in flight (the progress bump is
  // published after the work); the sequential epilogue below makes that a
  // performance footnote, not a correctness hazard.
  auto quiescent = [&]() -> bool {
    const std::uint64_t p1 = progress.load(std::memory_order_acquire);
    for (const auto& node : nodes_) {
      if (node->pending_min.load(std::memory_order_acquire) <= max_time) {
        return false;
      }
    }
    for (const auto& q : queues) {
      if (q->produced() != q->consumed()) return false;
    }
    return progress.load(std::memory_order_acquire) == p1;
  };

  std::vector<std::thread> workers;
  workers.reserve(nthreads);
  for (std::size_t w = 0; w < nthreads; ++w) {
    workers.emplace_back([&, w] {
      Nanos local_last = -1;
      while (!done.load(std::memory_order_acquire)) {
        const std::uint64_t t0 = obs::NowNs();
        if (sweep(w, local_last)) {
          busy[w]->Add(obs::NowNs() - t0);
          progress.fetch_add(1, std::memory_order_release);
        } else {
          idle_spins->Add(1);
          if (quiescent()) {
            done.store(true, std::memory_order_release);
            break;
          }
          std::this_thread::yield();
        }
      }
      worker_last[w] = local_last;
    });
  }
  for (std::thread& t : workers) t.join();

  parallel_running_.store(false, std::memory_order_relaxed);

  // Unconditional sequential epilogue: joining the workers is a full
  // synchronization point, so everything they staged/committed is visible
  // here. Drain any residue a false-positive termination left behind (the
  // canonical commit order makes these late commits land exactly where
  // they belong) and let the sequential engine finish the run.
  for (auto& ep : endpoints_) {
    if (!ep->inbox) continue;
    while (WireMsg* msg = ep->inbox->Front()) {
      nodes_[std::size_t(ep->dst_node)]->sw->StageFromWire(
          std::move(msg->packet), msg->arrival, ep->ordinal, msg->tx);
      ep->inbox->PopFront();
    }
    ep->inbox = nullptr;
  }
  active_.clear();
  for (auto& node : nodes_) node->in_active = false;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i]->sw->EarliestPendingTime() >= 0) MarkActive(i);
  }

  Nanos last = -1;
  for (const Nanos wl : worker_last) {
    if (wl > last) last = wl;
  }
  clock_.AdvanceTo(last);
  Nanos tail;
  {
    // Time the mop-up: a hot epilogue means termination detection fired
    // early and serialized real work. (All net.parallel.* instruments are
    // wall-clock/schedule dependent; A/B comparisons exclude the prefix.)
    obs::ScopedTimerNs epilogue_timer(
        reg.GetCounter("net.parallel.epilogue_ns"));
    tail = RunSequential(max_time);
  }
  if (tail > last) last = tail;
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
  w.Size(endpoints_.size());
  for (const auto& link : links_) link->Save(w);
  for (const auto& ep : endpoints_) w.U64(ep->tx);
  for (const auto& node : nodes_) node->sw->Save(w);
}

void Network::Load(SnapshotReader& r) {
  r.Section(snap::kNetwork);
  clock_.AdvanceTo(r.I64());
  const std::size_t nodes = r.Size();
  const std::size_t links = r.Size();
  const std::size_t endpoints = r.Size();
  CheckShape(snap::kNetwork, "Network", "node count", nodes_.size(), nodes);
  CheckShape(snap::kNetwork, "Network", "link count", links_.size(), links);
  CheckShape(snap::kNetwork, "Network", "endpoint count", endpoints_.size(),
             endpoints);
  for (const auto& link : links_) link->Load(r);
  for (const auto& ep : endpoints_) ep->tx = r.U64();
  for (const auto& node : nodes_) node->sw->Load(r);
  // Restored lanes hold work the activity listener never saw; put every
  // switch on the sequential engine's scan list (the parallel engine
  // sweeps all shards regardless).
  for (std::size_t i = 0; i < nodes_.size(); ++i) MarkActive(i);
}

}  // namespace ow
