#include "src/core/network_runner.h"

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "src/common/snapshot.h"
#include "src/obs/obs.h"

namespace ow {
namespace {

/// Seed of the hash-based ECMP routing, salted per switch by EcmpSeedOf.
constexpr std::uint64_t kEcmpSeed = 0xEC4F10B5ull;

/// Salted per-switch ECMP seed: each fan-out switch hashes with its own
/// stream so sibling stages don't make correlated choices, while staying a
/// pure function of the switch id that MakeTopologyNextHop can reproduce.
std::uint64_t EcmpSeedOf(int switch_id) {
  return kEcmpSeed ^ Mix64(std::uint64_t(switch_id) + 1);
}

}  // namespace

std::vector<std::vector<int>> TopologyAdjacency(const TopologyConfig& topo) {
  std::vector<std::vector<int>> adj;
  switch (topo.kind) {
    case TopologyKind::kLine: {
      if (topo.line_switches < 1) {
        throw std::invalid_argument("TopologyConfig: empty line");
      }
      adj.resize(topo.line_switches);
      for (std::size_t i = 0; i + 1 < topo.line_switches; ++i) {
        adj[i].push_back(int(i) + 1);
      }
      break;
    }
    case TopologyKind::kLeafSpine: {
      if (topo.leaves < 2 || topo.spines < 1) {
        throw std::invalid_argument(
            "TopologyConfig: leaf-spine needs >=2 leaves and >=1 spine");
      }
      // Leaves 0..L-1, spines L..L+S-1. Leaf 0 is the ingress: it fans out
      // over every spine; each spine fans out over every egress leaf; the
      // egress leaves exit to sinks. Only traffic-bearing links exist, so
      // every link has clean per-link ground truth.
      adj.resize(topo.leaves + topo.spines);
      for (std::size_t s = 0; s < topo.spines; ++s) {
        adj[0].push_back(int(topo.leaves + s));
        for (std::size_t l = 1; l < topo.leaves; ++l) {
          adj[topo.leaves + s].push_back(int(l));
        }
      }
      break;
    }
  }
  return adj;
}

std::size_t TopologySwitchCount(const TopologyConfig& topo) {
  return TopologyAdjacency(topo).size();
}

NextHopFn MakeTopologyNextHop(const TopologyConfig& topo) {
  auto adj = std::make_shared<const std::vector<std::vector<int>>>(
      TopologyAdjacency(topo));
  return [adj](int u, const FlowKey& flow) -> int {
    if (u < 0 || std::size_t(u) >= adj->size()) return -1;
    const std::vector<int>& out = (*adj)[std::size_t(u)];
    if (out.empty()) return -1;
    return out[std::size_t(EcmpPort(flow, out.size(), EcmpSeedOf(u)))];
  };
}

FabricSession::FabricSession(
    const Trace& trace,
    const std::function<AdapterPtr(std::size_t switch_index)>& make_app,
    NetworkRunConfig cfg,
    std::function<FlowSet(TableView)> detect)
    : cfg_(std::move(cfg)),
      detect_(std::move(detect)),
      adj_(TopologyAdjacency(cfg_.topology)),
      trace_duration_(trace.Duration()) {
  cfg_.base.controller.window = cfg_.base.window;
  cfg_.base.data_plane.signal.subwindow_size = cfg_.base.window.subwindow_size;

  // RDMA completion trusts each sub-window's completion notification. One
  // that arrives late after a report-path loss drains buffer and mirror
  // slots a later sub-window already wrote: wrong windows, no flag. Only
  // lossy report paths are refused; with jitter alone every window stays
  // exact (FabricRdma.LossyReportPathIsRefused).
  const bool rdma = cfg_.base.controller.rdma;
  if (rdma && (cfg_.report_link.loss_rate > 0 ||
               cfg_.base.fault.report_link.drop_rate > 0)) {
    throw std::invalid_argument(
        "FabricSession: RDMA collection needs a report link that cannot "
        "drop packets");
  }

  const std::size_t num_switches = adj_.size();
  result_.per_switch.resize(num_switches);

  for (std::size_t i = 0; i < num_switches; ++i) {
    Switch* sw = net_.AddSwitch();
    OmniWindowConfig dp = cfg_.base.data_plane;
    dp.first_hop = (i == 0);
    auto program = std::make_shared<OmniWindowProgram>(dp, make_app(i));
    sw->SetProgram(program);
    auto controller = std::make_unique<OmniWindowController>(
        cfg_.base.controller, program->app().merge_kind());
    controller->AttachSwitch(sw);
    controller->SetSubWindowTransform(program->app().SubWindowDecoder());
    if (rdma) {
      nics_.push_back(std::make_unique<RdmaNic>());
      auto ctx = controller->InitRdma(*nics_.back());
      if (cfg_.base.fault.rdma.Any()) {
        // Faults target the unacked cold-key append path only; the hot-key
        // mirror and atomics stay reliable.
        nics_.back()->ArmFaults(cfg_.base.fault.rdma, cfg_.base.fault.seed + i,
                                ctx->buffer_rkey);
      }
      program->SetRdmaContext(std::move(ctx));
    }
    // The switch->controller path rides a report link. Injections stay
    // direct: the controller talks to its own switch over the management
    // port, reports ride the fabric.
    OmniWindowController* ctrl = controller.get();
    report_links_.push_back(std::make_unique<Link>(
        cfg_.report_link,
        [ctrl](Packet&& p, Nanos arrival) { ctrl->OnPacket(p, arrival); },
        cfg_.report_link_seed + i));
    Link* report = report_links_.back().get();
    if (cfg_.base.fault.report_link.Any()) {
      // Per-link seed offset mirrors the report_link_seed + i scheme.
      report->ArmFaults(cfg_.base.fault.report_link,
                        cfg_.base.fault.seed + 0x1000 + i);
    }
    sw->SetControllerHandler([report](Packet&& p, Nanos now) {
      report->Transmit(std::move(p), now);
    });
    controller->SetWindowHandler([this, i](const WindowResult& w) {
      // Streaming consumers see the window first, while the table view
      // is live.
      if (cfg_.window_observer) cfg_.window_observer(i, w);
      EmittedWindow ew;
      ew.span = w.span;
      ew.completed_at = w.completed_at;
      ew.partial = w.partial;
      if (detect_) ew.detected = detect_(*w.table);
      if (cfg_.capture_counts) {
        FlowCounts counts;
        w.table->ForEach(
            [&](const KvSlot& slot) { counts[slot.key] = slot.attrs[0]; });
        // try_emplace: a normal run emits each span once; a takeover
        // re-emits spans the dead primary already delivered (at-least-once),
        // and the primary's exact copy must win the dedupe.
        result_.per_switch[i].counts.try_emplace(w.span.first,
                                                 std::move(counts));
      }
      result_.per_switch[i].windows.push_back(std::move(ew));
    });
    switches_.push_back(sw);
    programs_.push_back(std::move(program));
    controllers_.push_back(std::move(controller));
  }

  // Fabric links, in (switch id, egress port) order: link index == creation
  // order, which the per-link seeds, the targeted fault arming and
  // NetworkRunResult::links all key off.
  for (std::size_t u = 0; u < num_switches; ++u) {
    for (std::size_t p = 0; p < adj_[u].size(); ++p) {
      const std::size_t idx = links_.size();
      links_.push_back(net_.Connect(switches_[u], switches_[adj_[u][p]],
                                    cfg_.link, cfg_.link_seed + idx));
      if (cfg_.base.fault.inner_link.Any() &&
          (cfg_.fault_link_index < 0 || cfg_.fault_link_index == int(idx))) {
        links_.back()->ArmFaults(cfg_.base.fault.inner_link,
                                 cfg_.base.fault.seed + 0x2000 + idx);
      }
    }
    if (adj_[u].size() > 1) {
      // Fan-out: hash-based ECMP picks the egress; ports were created in
      // adjacency order so port index == adjacency index, keeping the
      // switch and MakeTopologyNextHop bit-aligned.
      switches_[u]->SetEcmpSeed(EcmpSeedOf(int(u)));
    }
  }
  // Egress switches of multi-path fabrics deliver to sinks; the line keeps
  // its historical "last hop forwards into the void" behavior so pre-change
  // runs reproduce bit for bit. Sink links are lossless and never armed, so
  // what they transmit is what the sinks received: `delivered` sums them.
  if (cfg_.topology.kind != TopologyKind::kLine) {
    for (std::size_t u = 0; u < num_switches; ++u) {
      if (!adj_[u].empty() || u == 0) continue;
      sink_links_.push_back(net_.ConnectToSink(
          switches_[u], LinkParams{.latency = kMicro, .jitter = 0},
          [](Packet&&, Nanos) {}, cfg_.link_seed + 0x5000 + u));
    }
  }

  switches_[0]->FeedTrace(trace.packets);
  // End-of-trace sentinel: an all-zero five-tuple the ECMP switches flood
  // down every path, so the final sub-windows terminate on every switch.
  // A user-defined signal ends a sub-window only when the embedded number
  // grows, so there the sentinel carries one past the trace's largest.
  Packet sentinel;
  sentinel.ts = trace_duration_ + cfg_.base.window.subwindow_size;
  if (cfg_.base.data_plane.signal.kind == SignalKind::kUserDefined) {
    for (const Packet& p : trace.packets) {
      if (p.iteration == kNoIteration) continue;
      if (sentinel.iteration == kNoIteration ||
          p.iteration >= sentinel.iteration) {
        sentinel.iteration = p.iteration + 1;
      }
    }
  }
  switches_[0]->EnqueueFromWire(sentinel, sentinel.ts);
}

Nanos FabricSession::DriveUntil(Nanos t) { return net_.RunUntilQuiescent(t); }

void FabricSession::BuildSnapshot(SnapshotWriter& w) const {
  w.Section(snap::kSession);
  net_.Save(w);
  w.Size(report_links_.size());
  for (const auto& link : report_links_) link->Save(w);
  for (const auto& program : programs_) program->Save(w);
  for (const auto& controller : controllers_) controller->Save(w);
}

std::vector<std::uint8_t> FabricSession::Snapshot() {
  SnapshotWriter w;
  BuildSnapshot(w);
  return w.Take();
}

void FabricSession::SnapshotToFile(const std::string& path) {
  SnapshotWriter w;
  BuildSnapshot(w);
  w.WriteFile(path);
}

void FabricSession::Restore(std::span<const std::uint8_t> bytes) {
  if (finished_) {
    throw std::logic_error(
        "FabricSession::Restore: session already finished — restore into a "
        "freshly constructed session instead");
  }
  SnapshotReader r(bytes);
  r.Section(snap::kSession);
  net_.Load(r);
  CheckShape(snap::kSession, "FabricSession", "report link count",
             report_links_.size(), r.Size());
  for (const auto& link : report_links_) link->Load(r);
  for (const auto& program : programs_) program->Load(r);
  for (const auto& controller : controllers_) controller->Load(r);
  if (!r.AtEnd()) {
    throw SnapshotError("FabricSession: trailing bytes in snapshot");
  }
  // Windows this session emitted before the restore belong to a timeline
  // the snapshot supersedes; only post-restore windows are reported.
  for (SwitchRun& sr : result_.per_switch) {
    sr.windows.clear();
    sr.counts.clear();
  }
}

void FabricSession::RestoreFromFile(const std::string& path) {
  const std::vector<std::uint8_t> bytes = ReadSnapshotFile(path);
  Restore(bytes);
}

std::vector<std::uint8_t> FabricSession::SnapshotControllers() const {
  SnapshotWriter w;
  // A checkpoint is about as large as the previous one. Reserving that
  // plus an eighth spares the ~15 doublings of a buffer grown from the
  // 8-byte header.
  w.Reserve(controller_plane_bytes_ + controller_plane_bytes_ / 8);
  w.Section(snap::kControllerPlane);
  w.Size(controllers_.size());
  for (const auto& controller : controllers_) controller->Save(w);
  std::vector<std::uint8_t> bytes = w.Take();
  controller_plane_bytes_ = bytes.size();
  return bytes;
}

FabricSession::TakeoverStats FabricSession::FailOver(
    std::span<const std::uint8_t> controller_bytes, Nanos now) {
  if (finished_) {
    throw std::logic_error(
        "FabricSession::FailOver: session already finished");
  }
  SnapshotReader r(controller_bytes);
  r.Section(snap::kControllerPlane);
  CheckShape(snap::kControllerPlane, "FabricSession", "controller count",
             controllers_.size(), r.Size());
  for (const auto& controller : controllers_) controller->Load(r);
  if (!r.AtEnd()) {
    throw SnapshotError(
        "FabricSession: trailing bytes in controller-plane snapshot");
  }
  TakeoverStats stats;
  takeover_targets_.assign(controllers_.size(), 0);
  for (std::size_t i = 0; i < controllers_.size(); ++i) {
    const OmniWindowProgram& prog = *programs_[i];
    const SubWindowNum through = prog.current_subwindow();
    takeover_targets_[i] = through;
    const auto plan = controllers_[i]->BeginTakeover(
        through, now,
        [&prog](SubWindowNum sw) { return prog.QueryRecoverability(sw); });
    stats.subwindows_requeried += plan.requeried;
    stats.subwindows_lost += plan.lost;
  }
  return stats;
}

bool FabricSession::TakeoverCaughtUp() const {
  if (takeover_targets_.empty()) return false;
  for (std::size_t i = 0; i < controllers_.size(); ++i) {
    if (controllers_[i]->next_to_finalize() < takeover_targets_[i]) {
      return false;
    }
  }
  return true;
}

NetworkRunResult FabricSession::Finish() {
  if (finished_) {
    throw std::logic_error("FabricSession::Finish: called twice");
  }
  finished_ = true;
  const Nanos horizon = trace_duration_ + 10 * kSecond;
  net_.RunUntilQuiescent(horizon);
  // Bounded flush rounds: retransmission requests schedule switch events,
  // so drive the network between rounds.
  for (int round = 0; round < 16; ++round) {
    bool all_done = true;
    // Drive every controller through the GLOBAL max sub-window, not its own
    // switch's: a switch whose copy of the sentinel was dropped on a lossy
    // fabric link never terminates its final sub-window on its own, but the
    // ingress switch (where the sentinel is injected directly) always knows
    // how far time went. The recovery collection rides the reliable
    // management path and returns the counts the switch actually saw — which
    // is exactly the measurement (missing packets ARE the loss). Fault-free
    // fabrics are unaffected: every switch already sits at the max.
    SubWindowNum through = 0;
    for (const auto& program : programs_) {
      through = std::max(through, program->current_subwindow());
    }
    for (std::size_t i = 0; i < controllers_.size(); ++i) {
      // Management-path check: the data plane's current sub-window travels
      // the reliable switch-OS channel, so a final trigger lost on the
      // report link cannot strand its sub-window.
      controllers_[i]->EnsureCollectedThrough(through, trace_duration_);
      if (!controllers_[i]->Flush(trace_duration_)) all_done = false;
    }
    if (all_done) break;
    net_.RunUntilQuiescent(horizon);
  }

  for (const Link* link : sink_links_) result_.delivered += link->transmitted();
  const std::size_t num_switches = adj_.size();
  for (std::size_t i = 0; i < num_switches; ++i) {
    result_.per_switch[i].data_plane = programs_[i]->stats();
    result_.per_switch[i].controller = controllers_[i]->stats();
  }
  {
    std::size_t idx = 0;
    for (std::size_t u = 0; u < num_switches; ++u) {
      for (std::size_t p = 0; p < adj_[u].size(); ++p, ++idx) {
        Link* link = links_[idx];
        FabricLinkStats stats;
        stats.from = int(u);
        stats.to = adj_[u][p];
        stats.port = int(p);
        stats.transmitted = link->transmitted();
        stats.dropped = link->dropped();
        if (link->faults()) stats.duplicates = link->faults()->duplicates();
        result_.link_dropped += link->dropped();
        result_.links.push_back(stats);
      }
    }
  }
  for (const auto& link : report_links_) {
    result_.report_dropped += link->dropped();
  }
  PublishTotals();
  return std::move(result_);
}

void FabricSession::PublishTotals() const {
  obs::Registry& reg = obs::Global();
  const auto add = [&reg](std::string_view name, std::uint64_t v) {
    reg.GetCounter(name).Add(v);
  };
  for (const Switch* sw : switches_) {
    add("switch.passes", sw->total_passes());
    add("switch.recirc_passes", sw->recirc_passes());
  }
  std::uint64_t inserts_rejected = 0;
  for (const auto& controller : controllers_) {
    const OmniWindowController::Stats& s = controller->stats();
    add("controller.afrs_received", s.afrs_received);
    add("controller.subwindows_finalized", s.subwindows_finalized);
    add("controller.subwindows_force_finalized", s.subwindows_force_finalized);
    add("controller.windows_emitted", s.windows_emitted);
    add("controller.spilled_keys_stored", s.spilled_keys_stored);
    add("controller.retransmissions", s.retransmissions_requested);
    add("controller.spike_packets", s.spike_packets);
    add("controller.duplicate_afrs", s.duplicate_afrs);
    add("controller.windows_partial", s.windows_partial);
    add("controller.subwindows_degraded_by_switch",
        s.subwindows_degraded_by_switch);
    add("fault.rdma.holes_detected", s.rdma_holes_detected);
    inserts_rejected += s.inserts_rejected;
  }
  reg.GetGauge("controller.inserts_rejected")
      .Set(std::int64_t(inserts_rejected));
  for (const auto& nic : nics_) {
    if (const fault::RdmaFaultInjector* f = nic->faults()) {
      add("fault.rdma.dropped_writes", f->dropped_writes());
      add("fault.rdma.partial_writes", f->partial_writes());
    }
  }
  const auto add_link = [&add](const Link& link) {
    add("link.transmitted", link.transmitted());
    add("link.dropped", link.dropped());
    add("link.spiked", link.spiked());
    if (const fault::LinkFaultInjector* f = link.faults()) {
      add("fault.link.injected_drops", f->drops());
      add("fault.link.duplicates", f->duplicates());
      add("fault.link.reorders", f->reorders());
    }
  };
  for (const Link* link : links_) add_link(*link);
  for (const Link* link : sink_links_) add_link(*link);
  for (const auto& link : report_links_) add_link(*link);
}

NetworkRunResult RunOmniWindowFabric(
    const Trace& trace,
    const std::function<AdapterPtr(std::size_t switch_index)>& make_app,
    NetworkRunConfig cfg,
    std::function<FlowSet(TableView)> detect) {
  FabricSession session(trace, make_app, std::move(cfg), std::move(detect));
  return session.Finish();
}

}  // namespace ow
