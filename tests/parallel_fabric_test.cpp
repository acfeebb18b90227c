// A/B proof for the conservative-lookahead parallel fabric engine: the same
// seed and trace must produce BIT-IDENTICAL windows, per-window count
// tables, data-plane/controller stats, per-link ground truth and scalar obs
// deltas for every thread count — with and without faults armed — because
// wire seq numbers are assigned deterministically at send time and each
// switch commits staged arrivals in one canonical order regardless of which
// worker (or how many) drives it (docs/parallel_execution.md). A cyclic
// fabric pins the same equivalence where the sequential engine must also
// stop short of a switch's own traffic coming back around the cycle.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/network_runner.h"
#include "src/fault/fault.h"
#include "src/net/network.h"
#include "src/obs/obs.h"
#include "src/telemetry/exact_count.h"
#include "src/trace/generator.h"

namespace ow {
namespace {

Trace FabricTrace(std::uint64_t seed) {
  TraceConfig tc;
  tc.seed = seed;
  tc.duration = 400 * kMilli;
  tc.packets_per_sec = 12'000;
  tc.num_flows = 1'200;
  TraceGenerator gen(tc);
  return gen.GenerateBackground();
}

NetworkRunConfig LeafSpineConfig(std::size_t leaves, std::size_t spines) {
  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = 100 * kMilli;
  spec.subwindow_size = 50 * kMilli;
  spec.slide = spec.window_size;
  NetworkRunConfig cfg;
  cfg.base = RunConfig::Make(spec);
  cfg.base.controller.kv_capacity = 1 << 16;
  cfg.topology.kind = TopologyKind::kLeafSpine;
  cfg.topology.leaves = leaves;
  cfg.topology.spines = spines;
  cfg.capture_counts = true;
  cfg.link.latency = 20 * kMicro;
  cfg.link.jitter = 2 * kMicro;
  return cfg;
}

/// Everything an engine change is NOT allowed to vary.
struct Fingerprint {
  struct Win {
    SubWindowNum first = 0, last = 0;
    Nanos completed_at = 0;
    bool partial = false;
    bool operator==(const Win&) const = default;
  };
  struct PerSwitch {
    std::vector<Win> windows;
    std::map<SubWindowNum, FlowCounts> counts;
    std::uint64_t packets_measured = 0, terminations = 0, afr_generated = 0,
                  reset_passes = 0, spilled_keys = 0, stale_packets = 0,
                  collect_overruns = 0;
    std::uint64_t afrs_received = 0, subwindows_finalized = 0,
                  subwindows_force_finalized = 0, windows_emitted = 0,
                  spilled_keys_stored = 0, retransmissions_requested = 0,
                  duplicate_afrs = 0, windows_partial = 0;
    bool operator==(const PerSwitch&) const = default;
  };
  struct LinkFp {
    int from = -1, to = -1, port = 0;
    std::uint64_t transmitted = 0, dropped = 0, duplicates = 0;
    bool operator==(const LinkFp&) const = default;
  };
  std::vector<PerSwitch> per_switch;
  std::vector<LinkFp> links;
  std::uint64_t link_dropped = 0, report_dropped = 0, delivered = 0;
  /// Scalar obs lines (counters + gauges). net.parallel.* instruments are
  /// wall-clock/schedule accounting and are excluded by construction;
  /// everything else must match bit for bit.
  std::vector<std::string> obs;

  bool operator==(const Fingerprint&) const = default;
};

std::vector<std::string> ScalarObsLines() {
  std::ostringstream os;
  obs::Global().WriteStatsJson(os);
  std::vector<std::string> out;
  std::istringstream in(os.str());
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\": ") == std::string::npos ||
        line.find(": {") != std::string::npos) {
      continue;  // histograms / structure, nondeterministic wall-clock work
    }
    if (line.find("net.parallel.") != std::string::npos) continue;
    out.push_back(line);
  }
  return out;
}

Fingerprint RunFabric(const Trace& trace, NetworkRunConfig cfg,
                      std::size_t threads) {
  obs::Global().Reset();
  cfg.parallel.threads = threads;
  const NetworkRunResult net = RunOmniWindowFabric(
      trace, [](std::size_t) { return std::make_shared<ExactCountApp>(); },
      cfg);

  Fingerprint fp;
  for (const auto& sw : net.per_switch) {
    Fingerprint::PerSwitch ps;
    for (const auto& w : sw.windows) {
      ps.windows.push_back({w.span.first, w.span.last, w.completed_at,
                            w.partial});
    }
    ps.counts = {sw.counts.begin(), sw.counts.end()};
    ps.packets_measured = sw.data_plane.packets_measured;
    ps.terminations = sw.data_plane.terminations;
    ps.afr_generated = sw.data_plane.afr_generated;
    ps.reset_passes = sw.data_plane.reset_passes;
    ps.spilled_keys = sw.data_plane.spilled_keys;
    ps.stale_packets = sw.data_plane.stale_packets;
    ps.collect_overruns = sw.data_plane.collect_overruns;
    ps.afrs_received = sw.controller.afrs_received;
    ps.subwindows_finalized = sw.controller.subwindows_finalized;
    ps.subwindows_force_finalized = sw.controller.subwindows_force_finalized;
    ps.windows_emitted = sw.controller.windows_emitted;
    ps.spilled_keys_stored = sw.controller.spilled_keys_stored;
    ps.retransmissions_requested = sw.controller.retransmissions_requested;
    ps.duplicate_afrs = sw.controller.duplicate_afrs;
    ps.windows_partial = sw.controller.windows_partial;
    fp.per_switch.push_back(std::move(ps));
  }
  for (const auto& l : net.links) {
    fp.links.push_back(
        {l.from, l.to, l.port, l.transmitted, l.dropped, l.duplicates});
  }
  fp.link_dropped = net.link_dropped;
  fp.report_dropped = net.report_dropped;
  fp.delivered = net.delivered;
  fp.obs = ScalarObsLines();
  return fp;
}

TEST(ParallelFabric, BitIdenticalAcrossThreadCountsFaultFree) {
  const Trace trace = FabricTrace(1201);
  const NetworkRunConfig cfg = LeafSpineConfig(/*leaves=*/4, /*spines=*/3);

  const Fingerprint seq = RunFabric(trace, cfg, /*threads=*/0);
  ASSERT_FALSE(seq.per_switch.empty());
  ASSERT_GT(seq.per_switch[0].windows_emitted, 0u);
  EXPECT_GE(seq.delivered, trace.packets.size());

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Fingerprint par = RunFabric(trace, cfg, threads);
    EXPECT_EQ(seq, par) << "parallel engine diverged from sequential";
  }
}

TEST(ParallelFabric, BitIdenticalWithFaultsArmed) {
  const Trace trace = FabricTrace(1202);
  NetworkRunConfig cfg = LeafSpineConfig(/*leaves=*/3, /*spines=*/2);
  // Loss + reorder inside the fabric, loss on the report path, RPC
  // timeouts + merge stalls in the collection plane: every recovery
  // mechanism runs, and all of it must stay schedule-independent.
  cfg.base.fault.seed = 0xF417A;
  cfg.base.fault.inner_link.drop_rate = 0.05;
  cfg.base.fault.inner_link.reorder_rate = 0.05;
  cfg.base.fault.inner_link.dup_rate = 0.02;
  cfg.base.fault.report_link.drop_rate = 0.10;
  cfg.base.fault.switch_os.timeout_rate = 0.20;
  cfg.base.fault.switch_os.slow_rate = 0.20;
  cfg.base.fault.controller.merge_stall_rate = 0.20;

  const Fingerprint seq = RunFabric(trace, cfg, /*threads=*/0);
  EXPECT_GT(seq.link_dropped, 0u) << "fabric loss never fired";
  EXPECT_GT(seq.report_dropped, 0u) << "report loss never fired";

  for (const std::size_t threads : {1u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Fingerprint par = RunFabric(trace, cfg, threads);
    EXPECT_EQ(seq, par) << "fault-path results changed with thread count";
  }
}

TEST(ParallelFabric, LineTopologyMatchesSequential) {
  // Chains have no ECMP and the historical "forward into the void" egress;
  // the horizon machinery must not disturb them either.
  const Trace trace = FabricTrace(1203);
  NetworkRunConfig cfg = LeafSpineConfig(2, 2);
  cfg.topology = TopologyConfig{};  // line
  cfg.topology.kind = TopologyKind::kLine;
  cfg.topology.line_switches = 4;

  const Fingerprint seq = RunFabric(trace, cfg, /*threads=*/0);
  for (const std::size_t threads : {2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Fingerprint par = RunFabric(trace, cfg, threads);
    EXPECT_EQ(seq, par);
  }
}

/// Logs every pass and bounces each packet until it has crossed
/// `kBounceHops` links (the hop count rides in `ow.payload`).
class BounceProgram : public SwitchProgram {
 public:
  static constexpr std::uint32_t kBounceHops = 3;
  struct Pass {
    Nanos time;
    std::uint32_t id;
    std::uint32_t hops;
    bool operator==(const Pass&) const = default;
  };

  void Process(Packet& p, Nanos now, PacketSource,
               PipelineActions& act) override {
    log.push_back({now, p.seq, p.ow.payload});
    if (p.ow.payload == kBounceHops) {
      act.drop = true;
    } else {
      ++p.ow.payload;
    }
  }
  std::vector<Pass> log;
};

std::vector<std::vector<BounceProgram::Pass>> RunBounceCycle(
    std::size_t threads) {
  Network net;
  net.SetParallel({.threads = threads});
  Switch* a = net.AddSwitch();
  Switch* b = net.AddSwitch();
  const LinkParams wire{.latency = kMicro, .jitter = 0};
  net.Connect(a, b, wire);
  net.Connect(b, a, wire);
  std::vector<std::shared_ptr<BounceProgram>> programs;
  for (Switch* sw : {a, b}) {
    programs.push_back(std::make_shared<BounceProgram>());
    sw->SetProgram(programs.back());
  }
  for (std::uint32_t i = 0; i < 100; ++i) {
    Packet p;
    p.seq = i;
    a->EnqueueFromWire(p, Nanos(i) * 100);
  }
  net.RunUntilQuiescent(kSecond);
  return {programs[0]->log, programs[1]->log};
}

TEST(ParallelFabric, CyclicFabricKeepsCausality) {
  // A <-> B with 1 us links: every packet A dispatches comes back to A
  // 3.2 us later, behind packets A injected after it. The sequential
  // engine must not batch A past its own returning traffic, so each switch
  // sees its passes in time order, exactly as every parallel run does.
  const auto seq = RunBounceCycle(/*threads=*/0);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    SCOPED_TRACE("switch " + std::to_string(i));
    ASSERT_EQ(seq[i].size(), 200u);
    for (std::size_t k = 1; k < seq[i].size(); ++k) {
      ASSERT_LE(seq[i][k - 1].time, seq[i][k].time)
          << "pass " << k << " ran out of time order";
    }
  }
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(seq, RunBounceCycle(threads));
  }
}

}  // namespace
}  // namespace ow
