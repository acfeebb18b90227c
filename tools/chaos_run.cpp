// Chaos harness: sweep fault intensity across the fault matrix and assert
// window results are EXACT or EXPLICITLY FLAGGED — never silently divergent.
//
// For each (kind, seed, intensity) cell the harness runs the same
// deterministic trace twice: once fault-free (the baseline) and once under
// fault::MakeChaosPlan(kind, intensity, seed). Every emitted window must
// then either match the baseline window bit-for-bit (span + detections) or
// carry the partial flag the controller sets when a retry budget was
// exhausted. Intensity 0 is held to the stronger bar: bit-identical to the
// baseline, proving armed-but-idle fault plumbing perturbs nothing.
//
//   chaos_run [--seeds=3] [--intensities=0,0.05,0.15,0.3]
//             [--kinds=loss,reorder,rdma-fail,fabric-loss,kill-restore,
//                      failover]
//             [--out=chaos_report.json]
//
// The fabric-loss cell is special: it drops packets INSIDE a 2x2 leaf-spine
// fabric (one armed link, rotated per seed), so downstream windows are
// SUPPOSED to shrink. There the bar is structural (same window cadence and
// spans as the fault-free baseline, or flagged) plus localization: hop-by-hop
// flow conservation over the captured count tables must charge loss to the
// armed link and to no other.
//
// The kill-restore cell exercises the checkpoint machinery as a fault:
// drive the faulted leaf-spine fabric to a pseudo-random sub-window
// boundary, Snapshot() the complete state, rebuild a fresh identically
// configured session, Restore() and finish. The bar is the STRONGEST in
// the harness: the spliced run (pre-kill windows + post-restore windows)
// must be bit-identical to the uninterrupted run of the same cell —
// windows, detections, partial flags, count tables, link ground truth and
// delivery totals — at every intensity, including with fabric loss armed
// across the kill point. A kill/restore is not allowed to perturb anything,
// ever (snapshot_restore_test proves the unit version; this sweeps seeds
// x intensities end to end). It is a harness-level cell, not a
// fault::ChaosKind — the injected "fault" is the process death itself.
//
// The failover cell kills only the CONTROLLER PLANE: a standby that
// ingested controller-plane checkpoints every boundary (cadence 1) takes
// over against the live switches (FabricSession::FailOver) at a
// pseudo-random sub-window boundary and re-requests what its checkpoint
// predates. Swept across every intensity of the fabric-loss plan, the bar
// is the takeover
// contract: no reference window may go absent or silently divergent, and
// at intensity 0 the spliced stream must be fully exact (cadence 1 keeps
// the staleness inside the switch retransmission cache — zero windows
// lost). See docs/failover.md.
//
// Writes a JSON report (one row per cell) and exits non-zero on any
// unflagged divergence. CI runs this under ASan (the `chaos` job).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/network_runner.h"
#include "src/core/runner.h"
#include "src/failover/failover.h"
#include "src/fault/fault.h"
#include "src/obs/obs.h"
#include "src/telemetry/exact_count.h"
#include "src/telemetry/network_queries.h"
#include "src/telemetry/query.h"

namespace ow {
namespace {

struct Options {
  int seeds = 3;
  std::vector<double> intensities{0.0, 0.05, 0.15, 0.30};
  std::vector<fault::ChaosKind> kinds{
      fault::ChaosKind::kLoss, fault::ChaosKind::kReorder,
      fault::ChaosKind::kRdmaFail, fault::ChaosKind::kFabricLoss};
  /// Harness-level cell (not a fault::ChaosKind): kill the run at a
  /// sub-window boundary, restore from the snapshot, demand bit-identity.
  bool kill_restore = true;
  /// Harness-level cell: kill the controller plane, take over from a
  /// standby's cadence-1 checkpoint against the live switches, demand
  /// exact-or-flagged with zero loss.
  bool failover = true;
  std::string out = "chaos_report.json";
};

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) {
      parts.push_back(s.substr(pos));
      break;
    }
    parts.push_back(s.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return parts;
}

bool ParseArgs(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--seeds=")) {
      opt.seeds = std::atoi(v);
    } else if (const char* v = value("--intensities=")) {
      opt.intensities.clear();
      for (const std::string& p : SplitCsv(v)) {
        opt.intensities.push_back(std::atof(p.c_str()));
      }
    } else if (const char* v = value("--kinds=")) {
      opt.kinds.clear();
      opt.kill_restore = false;
      opt.failover = false;
      for (const std::string& p : SplitCsv(v)) {
        if (p == "kill-restore") {
          opt.kill_restore = true;
        } else if (p == "failover") {
          opt.failover = true;
        } else if (p == "loss") {
          opt.kinds.push_back(fault::ChaosKind::kLoss);
        } else if (p == "reorder") {
          opt.kinds.push_back(fault::ChaosKind::kReorder);
        } else if (p == "rdma-fail") {
          opt.kinds.push_back(fault::ChaosKind::kRdmaFail);
        } else if (p == "fabric-loss") {
          opt.kinds.push_back(fault::ChaosKind::kFabricLoss);
        } else {
          std::fprintf(stderr, "chaos_run: unknown kind '%s'\n", p.c_str());
          return false;
        }
      }
    } else if (const char* v = value("--out=")) {
      opt.out = v;
    } else {
      std::fprintf(stderr, "chaos_run: unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return opt.seeds > 0 && !opt.intensities.empty() &&
         (!opt.kinds.empty() || opt.kill_restore || opt.failover);
}

QueryDef CountDef() {
  QueryDef def;
  def.name = "count";
  def.key_kind = FlowKeyKind::kDstIp;
  def.aggregate = QueryAggregate::kCount;
  def.threshold = 8;
  return def;
}

/// 1 s of deterministic traffic: five steady flows plus a heavy hitter
/// (the lossy-collection regression trace), so every window has
/// non-trivial detections to diverge on.
Trace MakeLineTrace() {
  Trace trace;
  for (int ms = 0; ms < 1000; ++ms) {
    Packet p;
    p.ft = {1, std::uint32_t(ms % 5 + 1), 10, 20, 17};
    p.ts = Nanos(ms) * kMilli;
    trace.packets.push_back(p);
    if (ms % 2 == 0) {
      Packet hh;
      hh.ft = {2, 99, 10, 20, 17};
      hh.ts = Nanos(ms) * kMilli + kMicro;
      trace.packets.push_back(hh);
    }
  }
  trace.SortByTime();
  return trace;
}

/// RDMA trace: a few stable flows (they go hot and exercise the mirror
/// path) plus per-sub-window fresh keys (cold, exercising the faultable
/// append-buffer WRITEs).
Trace MakeRdmaTrace() {
  Trace trace;
  for (int ms = 0; ms < 1000; ++ms) {
    Packet p;
    p.ft = {1, std::uint32_t(ms % 3 + 1), 10, 20, 17};
    p.ts = Nanos(ms) * kMilli;
    trace.packets.push_back(p);
    // Fresh dst per 50 ms sub-window: always cold at collection time.
    Packet cold;
    cold.ft = {3, 1000u + std::uint32_t(ms / 50) * 16 + std::uint32_t(ms % 8),
               10, 20, 17};
    cold.ts = Nanos(ms) * kMilli + 2 * kMicro;
    trace.packets.push_back(cold);
    if (ms % 2 == 0) {
      Packet hh;
      hh.ft = {2, 99, 10, 20, 17};
      hh.ts = Nanos(ms) * kMilli + kMicro;
      trace.packets.push_back(hh);
    }
  }
  trace.SortByTime();
  return trace;
}

WindowSpec Spec() {
  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = 100 * kMilli;
  spec.slide = spec.window_size;
  spec.subwindow_size = 50 * kMilli;
  return spec;
}

/// The failover cell uses SLIDING windows wider (10 sub-windows) than the
/// switch retransmission cache (depth 8): every not-yet-delivered window
/// spans many sub-windows, so a takeover that mishandled re-collection
/// would surface as divergence instead of hiding behind already-delivered
/// tumbling windows.
WindowSpec FailoverSpec() {
  WindowSpec spec;
  spec.type = WindowType::kSliding;
  spec.window_size = 500 * kMilli;
  spec.subwindow_size = 50 * kMilli;
  spec.slide = 50 * kMilli;
  return spec;
}

/// Flat list of windows from a run, in emission order across switches.
struct Snapshot {
  struct Win {
    SubWindowSpan span;
    FlowSet detected;
    bool partial = false;
  };
  std::vector<Win> windows;
};

Snapshot SnapLine(const Trace& trace, const fault::FaultPlan& plan,
                  std::uint64_t seed) {
  obs::Global().Reset();
  NetworkRunConfig cfg;
  cfg.base = RunConfig::Make(Spec());
  cfg.base.fault = plan;
  cfg.topology.line_switches = 2;
  cfg.report_link_seed = 777 + seed;
  cfg.link_seed = 555 + seed;

  std::vector<std::shared_ptr<QueryAdapter>> apps;
  const NetworkRunResult net = RunOmniWindowFabric(
      trace,
      [&](std::size_t) {
        apps.push_back(std::make_shared<QueryAdapter>(CountDef(), 2048));
        return apps.back();
      },
      cfg, [&](TableView table) { return apps[0]->Detect(table); });

  Snapshot snap;
  for (const auto& sw : net.per_switch) {
    for (const auto& w : sw.windows) {
      snap.windows.push_back({w.span, w.detected, w.partial});
    }
  }
  if (std::getenv("CHAOS_DEBUG")) {
    for (std::size_t i = 0; i < net.per_switch.size(); ++i) {
      const auto& c = net.per_switch[i].controller;
      const auto& d = net.per_switch[i].data_plane;
      std::fprintf(stderr,
                   "SW%zu ctrl: fin=%llu forced=%llu afrs=%llu dup=%llu "
                   "retx=%llu partial_w=%llu | dp: afr_gen=%llu windows=%zu\n",
                   i, (unsigned long long)c.subwindows_finalized,
                   (unsigned long long)c.subwindows_force_finalized,
                   (unsigned long long)c.afrs_received,
                   (unsigned long long)c.duplicate_afrs,
                   (unsigned long long)c.retransmissions_requested,
                   (unsigned long long)c.windows_partial,
                   (unsigned long long)d.afr_generated,
                   net.per_switch[i].windows.size());
      std::fprintf(stderr,
                   "     dp: term=%llu overruns=%llu | ctrl: gaps=%llu "
                   "sw_degraded=%llu forced=%llu\n",
                   (unsigned long long)d.terminations,
                   (unsigned long long)d.collect_overruns,
                   (unsigned long long)c.spilled_keys_stored,
                   (unsigned long long)c.subwindows_degraded_by_switch,
                   (unsigned long long)c.subwindows_force_finalized);
      for (const auto& w : net.per_switch[i].windows) {
        std::fprintf(stderr, "  win [%llu,%llu] det=%zu partial=%d\n",
                     (unsigned long long)w.span.first,
                     (unsigned long long)w.span.last, w.detected.size(),
                     int(w.partial));
      }
    }
  }
  return snap;
}

Snapshot SnapRdma(const Trace& trace, const fault::FaultPlan& plan,
                  std::uint64_t seed) {
  obs::Global().Reset();
  RunConfig cfg = RunConfig::Make(Spec());
  cfg.controller.rdma = true;
  cfg.fault = plan;
  cfg.fault.seed = plan.seed + seed;
  auto app = std::make_shared<QueryAdapter>(CountDef(), 1 << 14);
  const RunResult run = RunOmniWindow(
      trace, app, cfg, [&](TableView table) { return app->Detect(table); });
  Snapshot snap;
  for (const auto& w : run.windows) {
    snap.windows.push_back({w.span, w.detected, w.partial});
  }
  return snap;
}

/// Fabric detection rule over the exact per-flow tables: heavy hitters by
/// packet count. The fabric cells measure with ExactCountApp (five-tuple
/// keyed, the routing key) so the captured tables feed LocalizeFlowLoss
/// without hash-cell collision error — a collision present at one switch and
/// absent at another would read as phantom loss on an unarmed link and trip
/// the localization check spuriously.
constexpr std::uint64_t kFabricDetectThreshold = 8;

FlowSet FabricDetect(TableView table) {
  FlowSet out;
  table.ForEach([&](const KvSlot& slot) {
    if (slot.attrs[0] >= kFabricDetectThreshold) out.insert(slot.key);
  });
  return out;
}

TopologyConfig FabricTopology() {
  TopologyConfig topo;
  topo.kind = TopologyKind::kLeafSpine;
  topo.spines = 2;
  topo.leaves = 2;
  return topo;
}

/// Snapshot plus the full run result (count tables + per-link ground truth)
/// the localization check consumes.
struct FabricSnap {
  Snapshot snap;
  NetworkRunResult net;
};

NetworkRunConfig FabricCfg(const fault::FaultPlan& plan, std::uint64_t seed,
                           int armed_link) {
  NetworkRunConfig cfg;
  cfg.base = RunConfig::Make(Spec());
  cfg.base.fault = plan;
  cfg.base.controller.kv_capacity = 1 << 14;
  cfg.topology = FabricTopology();
  cfg.capture_counts = true;
  cfg.fault_link_index = armed_link;
  cfg.report_link_seed = 777 + seed;
  cfg.link_seed = 555 + seed;
  return cfg;
}

void Flatten(FabricSnap& out) {
  for (const auto& sw : out.net.per_switch) {
    for (const auto& w : sw.windows) {
      out.snap.windows.push_back({w.span, w.detected, w.partial});
    }
  }
}

FabricSnap SnapFabric(const Trace& trace, const fault::FaultPlan& plan,
                      std::uint64_t seed, int armed_link) {
  obs::Global().Reset();
  FabricSnap out;
  out.net = RunOmniWindowFabric(
      trace,
      [](std::size_t) { return std::make_shared<ExactCountApp>(); },
      FabricCfg(plan, seed, armed_link),
      [](TableView table) { return FabricDetect(table); });
  Flatten(out);
  return out;
}

/// The kill-restore cell: drive the same faulted cell to `kill_t` (a
/// sub-window boundary), Snapshot(), rebuild a fresh identically
/// configured session, Restore(), finish it, and splice the killed
/// session's pre-kill window stream back in front (FabricSession's
/// stream-vs-counter contract). The caller compares the splice against the
/// uninterrupted run with CompareRuns — full bit-identity, the strongest
/// bar in this harness.
FabricSnap SnapFabricKillRestore(const Trace& trace,
                                 const fault::FaultPlan& plan,
                                 std::uint64_t seed, int armed_link,
                                 Nanos kill_t) {
  obs::Global().Reset();
  const NetworkRunConfig cfg = FabricCfg(plan, seed, armed_link);
  const auto make_app = [](std::size_t) {
    return std::make_shared<ExactCountApp>();
  };
  const auto detect = [](TableView table) { return FabricDetect(table); };

  FabricSession killed(trace, make_app, cfg, detect);
  killed.DriveUntil(kill_t);
  // Round-trip through the durable file form, not just the in-memory
  // buffer: this chaos class then also exercises the CRC framing and
  // untrusted-size decode paths under the sanitizer.
  const std::string ckpt = "chaos_kill_restore_" + std::to_string(seed) + "_" +
                           std::to_string(armed_link) + ".owsnap";
  killed.SnapshotToFile(ckpt);
  const NetworkRunResult pre = killed.partial_result();

  FabricSession restored(trace, make_app, cfg, detect);
  restored.RestoreFromFile(ckpt);
  std::remove(ckpt.c_str());

  FabricSnap out;
  out.net = restored.Finish();
  for (std::size_t i = 0; i < out.net.per_switch.size(); ++i) {
    auto& dst = out.net.per_switch[i];
    const auto& src = pre.per_switch[i];
    dst.windows.insert(dst.windows.begin(), src.windows.begin(),
                       src.windows.end());
    dst.counts.insert(src.counts.begin(), src.counts.end());
  }
  Flatten(out);
  return out;
}

struct CellResult {
  std::string kind;
  std::uint64_t seed = 0;
  double intensity = 0.0;
  std::size_t windows_total = 0;
  std::size_t windows_exact = 0;
  std::size_t windows_flagged = 0;
  std::size_t divergent_unflagged = 0;
  std::uint64_t injected_faults = 0;
  bool zero_must_match = false;
};

/// Bit-identity between two runs of the SAME faulted fabric cell: windows
/// (spans, detections, partial flags), captured count tables, per-link
/// ground truth and the delivery/drop totals must all match exactly.
/// Returns the number of mismatches.
std::size_t CompareRuns(const FabricSnap& ref, const FabricSnap& got) {
  std::size_t bad = 0;
  if (ref.snap.windows.size() != got.snap.windows.size()) ++bad;
  const std::size_t nw =
      std::min(ref.snap.windows.size(), got.snap.windows.size());
  for (std::size_t i = 0; i < nw; ++i) {
    const auto& a = ref.snap.windows[i];
    const auto& b = got.snap.windows[i];
    if (a.span.first != b.span.first || a.span.last != b.span.last ||
        a.partial != b.partial || a.detected != b.detected) {
      ++bad;
    }
  }
  if (ref.net.per_switch.size() != got.net.per_switch.size()) {
    ++bad;
  } else {
    for (std::size_t i = 0; i < ref.net.per_switch.size(); ++i) {
      if (ref.net.per_switch[i].counts != got.net.per_switch[i].counts) ++bad;
    }
  }
  if (ref.net.links.size() != got.net.links.size()) {
    ++bad;
  } else {
    for (std::size_t i = 0; i < ref.net.links.size(); ++i) {
      const FabricLinkStats& a = ref.net.links[i];
      const FabricLinkStats& b = got.net.links[i];
      if (a.from != b.from || a.to != b.to || a.port != b.port ||
          a.transmitted != b.transmitted || a.dropped != b.dropped ||
          a.duplicates != b.duplicates) {
        ++bad;
      }
    }
  }
  if (ref.net.delivered != got.net.delivered ||
      ref.net.link_dropped != got.net.link_dropped ||
      ref.net.report_dropped != got.net.report_dropped) {
    ++bad;
  }
  return bad;
}

/// Compare a faulted snapshot against the fault-free baseline. At zero
/// intensity everything must be exact; above it, every window must be
/// exact or flagged partial.
void Compare(const Snapshot& base, const Snapshot& got, CellResult& cell) {
  cell.windows_total = got.windows.size();
  if (base.windows.size() != got.windows.size()) {
    // Window cadence is driven by sub-window triggers; a mismatch here is
    // itself an unflagged structural divergence.
    cell.divergent_unflagged +=
        std::max(base.windows.size(), got.windows.size()) -
        std::min(base.windows.size(), got.windows.size());
  }
  const std::size_t n = std::min(base.windows.size(), got.windows.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& b = base.windows[i];
    const auto& g = got.windows[i];
    const bool exact = b.span.first == g.span.first &&
                       b.span.last == g.span.last && b.detected == g.detected;
    if (exact && !g.partial) {
      ++cell.windows_exact;
    } else if (g.partial) {
      ++cell.windows_flagged;
      if (cell.zero_must_match) ++cell.divergent_unflagged;
    } else {
      ++cell.divergent_unflagged;
      if (std::getenv("CHAOS_DEBUG")) {
        std::fprintf(stderr,
                     "DIVERGE win=%zu base span=[%llu,%llu] |det|=%zu  "
                     "got span=[%llu,%llu] |det|=%zu partial=%d\n",
                     i, (unsigned long long)b.span.first,
                     (unsigned long long)b.span.last, b.detected.size(),
                     (unsigned long long)g.span.first,
                     (unsigned long long)g.span.last, g.detected.size(),
                     int(g.partial));
        for (const auto& k : b.detected) {
          if (!g.detected.count(k)) {
            std::fprintf(stderr, "  base-only dst=%u\n", k.dst_ip());
          }
        }
        for (const auto& k : g.detected) {
          if (!b.detected.count(k)) {
            std::fprintf(stderr, "  got-only dst=%u\n", k.dst_ip());
          }
        }
      }
    }
  }
}

/// Hop-by-hop localization over every window that all switches emitted
/// complete (present and not flagged partial). Returns the number of
/// violations: any unarmed link charged with loss, or the armed link's
/// actual drops going unlocalized with no window flagged.
std::size_t CheckFabricLocalization(const NetworkRunResult& net,
                                    const TopologyConfig& topo, int armed) {
  std::set<SubWindowNum> flagged;
  bool any_flagged = false;
  for (const auto& sw : net.per_switch) {
    for (const auto& w : sw.windows) {
      if (w.partial) {
        flagged.insert(w.span.first);
        any_flagged = true;
      }
    }
  }
  const NextHopFn next_hop = MakeTopologyNextHop(topo);
  std::map<std::pair<int, int>, std::uint64_t> inferred;
  for (const auto& [span, counts0] : net.per_switch[0].counts) {
    if (flagged.count(span)) continue;
    std::vector<FlowCounts> per_switch{counts0};
    bool complete = true;
    for (std::size_t i = 1; i < net.per_switch.size(); ++i) {
      auto it = net.per_switch[i].counts.find(span);
      if (it == net.per_switch[i].counts.end()) {
        complete = false;
        break;
      }
      per_switch.push_back(it->second);
    }
    if (!complete) continue;
    for (const LinkLossReport& link :
         LocalizeFlowLoss(per_switch, next_hop)) {
      inferred[{link.from, link.to}] += link.lost();
    }
  }

  const FabricLinkStats& truth = net.links[std::size_t(armed)];
  std::size_t violations = 0;
  std::uint64_t inferred_armed = 0;
  for (const auto& [edge, lost] : inferred) {
    if (edge.first == truth.from && edge.second == truth.to) {
      inferred_armed = lost;
    } else if (lost > 0) {
      ++violations;  // conservation broke on a link with no armed fault
    }
  }
  if (truth.dropped > 0 && inferred_armed == 0 && !any_flagged) {
    ++violations;  // real drops neither localized nor flagged
  }
  if (truth.dropped == 0 && inferred_armed > 0) {
    ++violations;  // phantom loss on the armed link
  }
  return violations;
}

/// Fabric-loss comparison: drops inside the fabric legitimately shrink
/// downstream counts, so detections may differ from the baseline. The bar is
/// structural — same window cadence and spans per emission slot, or flagged —
/// with correctness carried by CheckFabricLocalization. Intensity 0 keeps the
/// stronger bit-identical bar via the caller using Compare directly.
void CompareFabricSpans(const Snapshot& base, const Snapshot& got,
                        CellResult& cell) {
  cell.windows_total = got.windows.size();
  if (base.windows.size() != got.windows.size()) {
    cell.divergent_unflagged +=
        std::max(base.windows.size(), got.windows.size()) -
        std::min(base.windows.size(), got.windows.size());
  }
  const std::size_t n = std::min(base.windows.size(), got.windows.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& b = base.windows[i];
    const auto& g = got.windows[i];
    const bool same_span =
        b.span.first == g.span.first && b.span.last == g.span.last;
    if (g.partial) {
      ++cell.windows_flagged;
    } else if (same_span) {
      ++cell.windows_exact;
    } else {
      ++cell.divergent_unflagged;
    }
  }
}

std::uint64_t SumFaultCounters() {
  obs::Registry& reg = obs::Global();
  return reg.GetCounter("fault.link.injected_drops").value() +
         reg.GetCounter("fault.link.duplicates").value() +
         reg.GetCounter("fault.link.reorders").value() +
         reg.GetCounter("fault.rdma.dropped_writes").value() +
         reg.GetCounter("fault.rdma.partial_writes").value();
}

}  // namespace
}  // namespace ow

int main(int argc, char** argv) {
  using namespace ow;
  Options opt;
  if (!ParseArgs(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: chaos_run [--seeds=N] [--intensities=a,b,...]\n"
                 "                 [--kinds=loss,reorder,rdma-fail,"
                 "fabric-loss,kill-restore,failover] [--out=FILE]\n");
    return 2;
  }

  const Trace line_trace = MakeLineTrace();
  const Trace rdma_trace = MakeRdmaTrace();
  std::vector<CellResult> cells;
  bool ok = true;

  for (const fault::ChaosKind kind : opt.kinds) {
    for (int s = 0; s < opt.seeds; ++s) {
      const std::uint64_t seed = 0xC0A5'0000u + std::uint64_t(s) * 7919;
      const bool rdma = kind == fault::ChaosKind::kRdmaFail;
      const bool fabric = kind == fault::ChaosKind::kFabricLoss;
      // Fabric cells rotate the armed link across seeds (2x2 leaf-spine has
      // 4 fabric links) so the sweep covers up-links and down-links.
      const int armed = int(s % 4);
      // Fault-free baseline for this seed (empty plan: nothing armed).
      const Snapshot base =
          fabric ? SnapFabric(line_trace, fault::FaultPlan{}, s, armed).snap
          : rdma ? SnapRdma(rdma_trace, fault::FaultPlan{}, s)
                 : SnapLine(line_trace, fault::FaultPlan{}, s);
      for (const double intensity : opt.intensities) {
        CellResult cell;
        cell.kind = fault::ChaosKindName(kind);
        cell.seed = seed;
        cell.intensity = intensity;
        cell.zero_must_match = intensity == 0.0;

        const fault::FaultPlan plan =
            fault::MakeChaosPlan(kind, intensity, seed);
        if (fabric) {
          const FabricSnap got = SnapFabric(line_trace, plan, s, armed);
          cell.injected_faults = SumFaultCounters();
          if (cell.zero_must_match) {
            // Armed-but-idle targeted fault plumbing and count capture must
            // be bit-identical to the baseline, detections included.
            Compare(base, got.snap, cell);
          } else {
            CompareFabricSpans(base, got.snap, cell);
          }
          cell.divergent_unflagged +=
              CheckFabricLocalization(got.net, FabricTopology(), armed);
          if (cell.divergent_unflagged > 0) ok = false;
          std::printf(
              "%-11s seed=%llu intensity=%.2f windows=%zu exact=%zu "
              "flagged=%zu divergent=%zu faults=%llu\n",
              cell.kind.c_str(), static_cast<unsigned long long>(cell.seed),
              cell.intensity, cell.windows_total, cell.windows_exact,
              cell.windows_flagged, cell.divergent_unflagged,
              static_cast<unsigned long long>(cell.injected_faults));
          cells.push_back(std::move(cell));
          continue;
        }
        const Snapshot got = rdma ? SnapRdma(rdma_trace, plan, s)
                                  : SnapLine(line_trace, plan, s);
        cell.injected_faults = SumFaultCounters();
        Compare(base, got, cell);
        if (cell.divergent_unflagged > 0) ok = false;
        std::printf(
            "%-11s seed=%llu intensity=%.2f windows=%zu exact=%zu "
            "flagged=%zu divergent=%zu faults=%llu\n",
            cell.kind.c_str(), static_cast<unsigned long long>(cell.seed),
            cell.intensity, cell.windows_total, cell.windows_exact,
            cell.windows_flagged, cell.divergent_unflagged,
            static_cast<unsigned long long>(cell.injected_faults));
        cells.push_back(std::move(cell));
      }
    }
  }

  // Kill-restore sweep: the fault is process death at a sub-window
  // boundary. Piggybacks on the fabric-loss plan so kills land both on a
  // clean fabric (intensity 0, armed-but-idle) and mid-recovery with real
  // loss in flight; the kill point rotates pseudo-randomly per cell.
  if (opt.kill_restore) {
    for (int s = 0; s < opt.seeds; ++s) {
      const std::uint64_t seed = 0xC0A5'0000u + std::uint64_t(s) * 7919;
      const int armed = int(s % 4);
      Rng kill_rng(seed ^ 0x5EEDD1Eull);
      for (const double intensity : opt.intensities) {
        CellResult cell;
        cell.kind = "kill-restore";
        cell.seed = seed;
        cell.intensity = intensity;
        cell.zero_must_match = true;  // bit-identity at EVERY intensity

        const fault::FaultPlan plan =
            fault::MakeChaosPlan(fault::ChaosKind::kFabricLoss, intensity,
                                 seed);
        // A sub-window boundary in [100 ms, 850 ms] of the 1 s trace
        // (50 ms sub-windows): early enough that real collection work is
        // still queued, late enough that windows already completed.
        const Nanos kill_t = Nanos(2 + kill_rng.Uniform(16)) * (50 * kMilli);

        const FabricSnap ref = SnapFabric(line_trace, plan, s, armed);
        const FabricSnap got =
            SnapFabricKillRestore(line_trace, plan, s, armed, kill_t);
        cell.injected_faults = SumFaultCounters();
        cell.divergent_unflagged += CompareRuns(ref, got);

        cell.windows_total = got.snap.windows.size();
        for (const auto& w : got.snap.windows) {
          if (w.partial) {
            ++cell.windows_flagged;  // matched a flagged reference window
          } else {
            ++cell.windows_exact;
          }
        }
        if (cell.divergent_unflagged > 0) ok = false;
        std::printf(
            "%-11s seed=%llu intensity=%.2f kill=%lldms windows=%zu "
            "exact=%zu flagged=%zu divergent=%zu faults=%llu\n",
            cell.kind.c_str(), static_cast<unsigned long long>(cell.seed),
            cell.intensity, static_cast<long long>(kill_t / kMilli),
            cell.windows_total, cell.windows_exact, cell.windows_flagged,
            cell.divergent_unflagged,
            static_cast<unsigned long long>(cell.injected_faults));
        cells.push_back(std::move(cell));
      }
    }
  }

  // Failover sweep: the fault is CONTROLLER-PLANE death at a pseudo-random
  // sub-window boundary. A standby that checkpointed the controller plane
  // at every boundary (cadence 1) takes over against the live switches and
  // re-requests the in-flight sub-windows; with the staleness inside the
  // switch retransmission cache the spliced stream must be fully EXACT
  // against the uninterrupted run — at every intensity of the fabric-loss
  // plan (inner-link drops hit reference and takeover runs identically;
  // the report path is clean).
  if (opt.failover) {
    const auto make_app = [](std::size_t) {
      return std::make_shared<ExactCountApp>();
    };
    const auto detect = [](TableView table) { return FabricDetect(table); };
    for (int s = 0; s < opt.seeds; ++s) {
      const std::uint64_t seed = 0xC0A5'0000u + std::uint64_t(s) * 7919;
      const int armed = int(s % 4);
      Rng kill_rng(seed ^ 0xFA110ull);
      for (const double intensity : opt.intensities) {
        obs::Global().Reset();
        CellResult cell;
        cell.kind = "failover";
        cell.seed = seed;
        cell.intensity = intensity;
        cell.zero_must_match = true;  // exact at EVERY intensity, see above
        const fault::FaultPlan plan = fault::MakeChaosPlan(
            fault::ChaosKind::kFabricLoss, intensity, seed);
        // A boundary in [300 ms, 850 ms] of the 1 s trace (50 ms
        // sub-windows): sliding windows are already completing and enough
        // trace remains for the takeover to catch up in-band.
        const std::size_t kill = 6 + std::size_t(kill_rng.Uniform(12));

        NetworkRunConfig cfg;
        cfg.base = RunConfig::Make(FailoverSpec());
        cfg.base.fault = plan;
        cfg.base.controller.kv_capacity = 1 << 14;
        cfg.topology = FabricTopology();
        cfg.capture_counts = true;
        cfg.fault_link_index = armed;
        cfg.report_link_seed = 777 + std::uint64_t(s);
        cfg.link_seed = 555 + std::uint64_t(s);

        const NetworkRunResult ref =
            RunOmniWindowFabric(line_trace, make_app, cfg, detect);
        failover::FailoverConfig fcfg;
        fcfg.snapshot_cadence = 1;
        fcfg.kill_boundary = std::int64_t(kill);
        const failover::FailoverRunResult run = failover::RunWithFailover(
            line_trace, make_app, cfg, fcfg, detect);

        const failover::WindowComparison cmp =
            failover::CompareWindows(ref, run.spliced);
        cell.windows_total = cmp.windows_total;
        cell.windows_exact = cmp.exact;
        cell.windows_flagged = cmp.flagged;
        // The takeover contract: nothing absent, nothing silently
        // divergent — and at cadence 1 nothing even flagged.
        cell.divergent_unflagged += cmp.lost + cmp.divergent_unflagged +
                                    cmp.flagged +
                                    run.report.subwindows_lost;
        if (!run.report.caught_up) ++cell.divergent_unflagged;
        cell.injected_faults = SumFaultCounters();
        if (cell.divergent_unflagged > 0) ok = false;
        std::printf(
            "%-11s seed=%llu intensity=%.2f kill=%zums windows=%zu "
            "exact=%zu flagged=%zu divergent=%zu faults=%llu\n",
            cell.kind.c_str(), static_cast<unsigned long long>(cell.seed),
            cell.intensity, kill * 50, cell.windows_total, cell.windows_exact,
            cell.windows_flagged, cell.divergent_unflagged,
            static_cast<unsigned long long>(cell.injected_faults));
        cells.push_back(std::move(cell));
      }
    }
  }

  std::ofstream out(opt.out);
  out << "{\n  \"schema\": \"ow.chaos.report.v1\",\n  \"ok\": "
      << (ok ? "true" : "false") << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    out << "    {\"kind\": \"" << c.kind << "\", \"seed\": " << c.seed
        << ", \"intensity\": " << c.intensity
        << ", \"windows_total\": " << c.windows_total
        << ", \"windows_exact\": " << c.windows_exact
        << ", \"windows_flagged\": " << c.windows_flagged
        << ", \"divergent_unflagged\": " << c.divergent_unflagged
        << ", \"injected_faults\": " << c.injected_faults << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  out.close();

  if (!ok) {
    std::fprintf(stderr,
                 "chaos_run: UNFLAGGED DIVERGENCE detected (see %s)\n",
                 opt.out.c_str());
    return 1;
  }
  std::printf("chaos_run: all windows exact or explicitly flagged (%zu "
              "cells) -> %s\n",
              cells.size(), opt.out.c_str());
  return 0;
}
