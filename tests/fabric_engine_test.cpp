// Golden fingerprints of full fabric replays through the one event engine
// (Network::RunUntilQuiescent, docs/network_topologies.md). Each run folds
// everything observable into one 64-bit value: per switch its windows
// (span, completed_at, partial flag), its per-window count tables in sorted
// key order and every data-plane and controller Stats field; per link its
// ground-truth counters; the delivery and drop totals; and every non-zero
// scalar obs line (counters and gauges). Only integers are hashed, so every
// compiler and build type computes the same values.
//
// Re-record a constant (the failure message prints the new value) only for
// a deliberate change of observable behaviour, and say why in the change.
// The fault-free leaf-spine run also pins its controllers' flow-table
// checkpoint sections at every sub-window boundary, and its whole
// controller-plane checkpoint, which must repeat byte for byte from run to
// run at every boundary, as must its full snapshot. Network::Connect must
// refuse any link that would close a cycle: the engine's batch bound
// cannot see a switch's own traffic coming back around one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/snapshot.h"
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

class Hasher {
 public:
  void Add(std::uint64_t v) { h_ = Mix64(h_ ^ v); }
  void AddKey(const FlowKey& k) {
    Add(std::uint64_t(k.kind()));
    Add(k.bytes().size());
    for (const std::uint8_t b : k.bytes()) Add(b);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0;
};

/// Non-zero counters and gauges of the global registry, by name. Zero
/// entries are skipped: Registry::Reset keeps every name an earlier run
/// registered, so only the values say what this run did.
void AddScalarObs(Hasher& h) {
  std::ostringstream os;
  obs::Global().WriteStatsJson(os);
  std::istringstream in(os.str());
  std::string line;
  while (std::getline(in, line)) {
    // Counter and gauge entries read `    "name": value`; histogram
    // entries carry an object and wall-clock quantiles.
    if (line.rfind("    \"", 0) != 0 || line.find('{') != std::string::npos) {
      continue;
    }
    const std::size_t close = line.find("\": ", 5);
    const std::int64_t value = std::stoll(line.substr(close + 3));
    if (value == 0) continue;
    for (std::size_t i = 5; i < close; ++i) h.Add(std::uint8_t(line[i]));
    h.Add(std::uint64_t(value));
  }
}

std::uint64_t FingerprintOf(const NetworkRunResult& net) {
  Hasher h;
  h.Add(net.per_switch.size());
  for (const SwitchRun& sw : net.per_switch) {
    h.Add(sw.windows.size());
    for (const EmittedWindow& w : sw.windows) {
      h.Add(w.span.first);
      h.Add(w.span.last);
      h.Add(std::uint64_t(w.completed_at));
      h.Add(w.partial);
    }
    h.Add(sw.counts.size());
    for (const auto& [first, table] : sw.counts) {
      h.Add(first);
      std::vector<std::pair<FlowKey, std::uint64_t>> sorted(table.begin(),
                                                            table.end());
      std::sort(sorted.begin(), sorted.end());
      h.Add(sorted.size());
      for (const auto& [key, count] : sorted) {
        h.AddKey(key);
        h.Add(count);
      }
    }
    const OmniWindowProgram::Stats& dp = sw.data_plane;
    for (const std::uint64_t v :
         {dp.packets_measured, dp.terminations, dp.afr_generated,
          dp.reset_passes, dp.spilled_keys, dp.stale_packets,
          dp.collect_overruns, dp.rdma_writes, dp.rdma_fetch_adds}) {
      h.Add(v);
    }
    const OmniWindowController::Stats& c = sw.controller;
    for (const std::uint64_t v :
         {c.afrs_received, c.subwindows_finalized,
          c.subwindows_force_finalized, c.windows_emitted,
          c.spilled_keys_stored, c.retransmissions_requested, c.spike_packets,
          c.duplicate_afrs, c.inserts_rejected, c.windows_partial,
          c.rdma_holes_detected, c.subwindows_degraded_by_switch}) {
      h.Add(v);
    }
    h.Add(c.degraded_subwindows.size());
    for (const SubWindowNum s : c.degraded_subwindows) h.Add(s);
  }
  h.Add(net.links.size());
  for (const FabricLinkStats& l : net.links) {
    h.Add(std::uint64_t(l.from));
    h.Add(std::uint64_t(l.to));
    h.Add(std::uint64_t(l.port));
    h.Add(l.transmitted);
    h.Add(l.dropped);
    h.Add(l.duplicates);
  }
  h.Add(net.link_dropped);
  h.Add(net.report_dropped);
  h.Add(net.delivered);
  AddScalarObs(h);
  return h.value();
}

NetworkRunResult RunFabric(const Trace& trace, const NetworkRunConfig& cfg) {
  obs::Global().Reset();
  return RunOmniWindowFabric(
      trace, [](std::size_t) { return std::make_shared<ExactCountApp>(); },
      cfg);
}

void ExpectGolden(std::uint64_t fingerprint, std::uint64_t golden) {
  EXPECT_EQ(fingerprint, golden) << "fingerprint 0x" << std::hex
                                 << fingerprint;
}

void ExpectGolden(const NetworkRunResult& net, std::uint64_t golden) {
  ExpectGolden(FingerprintOf(net), golden);
}

TEST(FabricEngine, LeafSpineFaultFreeMatchesGolden) {
  const Trace trace = FabricTrace(1201);
  const NetworkRunResult net =
      RunFabric(trace, LeafSpineConfig(/*leaves=*/4, /*spines=*/3));
  ASSERT_FALSE(net.per_switch.empty());
  ASSERT_GT(net.per_switch[0].controller.windows_emitted, 0u);
  EXPECT_GE(net.delivered, trace.packets.size());
  ExpectGolden(net, 0xea248037b7952339);
}

TEST(FabricEngine, LeafSpineTableSectionsMatchGolden) {
  // The run above, driven boundary by boundary. At every sub-window
  // boundary each controller's flow-table section (KeyValueTable::Save,
  // the bytes a standby checkpoint carries for it) folds into the value.
  const Trace trace = FabricTrace(1201);
  const NetworkRunConfig cfg = LeafSpineConfig(/*leaves=*/4, /*spines=*/3);
  const Nanos sub = cfg.base.window.subwindow_size;
  obs::Global().Reset();
  FabricSession session(
      trace, [](std::size_t) { return std::make_shared<ExactCountApp>(); },
      cfg);
  const std::size_t boundaries =
      std::size_t((session.trace_duration() + 2 * sub) / sub);
  Hasher h;
  std::size_t live_seen = 0;
  for (std::size_t k = 1; k <= boundaries; ++k) {
    session.DriveUntil(Nanos(k) * sub);
    for (std::size_t i = 0; i < session.num_switches(); ++i) {
      const KeyValueTable& table = session.controller(i).table();
      live_seen += table.size();
      SnapshotWriter w;
      table.Save(w);
      const std::vector<std::uint8_t> bytes = w.Take();
      h.Add(bytes.size());
      for (const std::uint8_t b : bytes) h.Add(b);
    }
  }
  ASSERT_GT(live_seen, 0u) << "every table was empty at every boundary";
  ExpectGolden(h.value(), 0xc1eaac61be8dc89e);
}

/// Drives the fault-free 4×3 run twice in lockstep and calls
/// `at_boundary(k, first, second)` once both sessions reach sub-window
/// boundary k; stops at the first fatal failure.
void LockstepLeafSpine(
    const std::function<void(std::size_t, FabricSession&, FabricSession&)>&
        at_boundary) {
  const Trace trace = FabricTrace(1201);
  const NetworkRunConfig cfg = LeafSpineConfig(/*leaves=*/4, /*spines=*/3);
  const Nanos sub = cfg.base.window.subwindow_size;
  const auto make_app = [](std::size_t) {
    return std::make_shared<ExactCountApp>();
  };
  obs::Global().Reset();
  FabricSession first(trace, make_app, cfg);
  FabricSession second(trace, make_app, cfg);
  const std::size_t boundaries =
      std::size_t((first.trace_duration() + 2 * sub) / sub);
  ASSERT_GT(boundaries, 1u);
  for (std::size_t k = 1; k <= boundaries; ++k) {
    first.DriveUntil(Nanos(k) * sub);
    second.DriveUntil(Nanos(k) * sub);
    at_boundary(k, first, second);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FabricEngine, LeafSpineControllerPlaneIsReproducible) {
  // At every sub-window boundary of the lockstep pair, both sessions'
  // controller-plane checkpoints (SnapshotControllers, the standby failover
  // stream) must be byte-identical — a checkpoint carries only restorable,
  // simulated-time state, never a wall-clock reading. The stream of one of
  // them folds into the value.
  Hasher h;
  LockstepLeafSpine(
      [&](std::size_t k, FabricSession& first, FabricSession& second) {
        const std::vector<std::uint8_t> bytes = first.SnapshotControllers();
        ASSERT_EQ(bytes, second.SnapshotControllers())
            << "controller-plane checkpoints differ at boundary " << k;
        h.Add(bytes.size());
        for (const std::uint8_t b : bytes) h.Add(b);
      });
  ExpectGolden(h.value(), 0xe7fe29ec12399605);
}

TEST(FabricEngine, LeafSpineFullSnapshotIsReproducible) {
  // The same pair, comparing full Snapshot() bytes (switch lanes, programs,
  // links and controllers): no layer may write a byte its state does not
  // determine, padding included.
  LockstepLeafSpine(
      [](std::size_t k, FabricSession& first, FabricSession& second) {
        const std::vector<std::uint8_t> a = first.Snapshot();
        const std::vector<std::uint8_t> b = second.Snapshot();
        ASSERT_EQ(a.size(), b.size()) << "boundary " << k;
        const std::size_t differing = std::inner_product(
            a.begin(), a.end(), b.begin(), std::size_t{0}, std::plus<>(),
            std::not_equal_to<>());
        ASSERT_EQ(differing, 0u)
            << "full snapshots differ at boundary " << k << " in "
            << differing << " of " << a.size() << " bytes";
      });
}

TEST(FabricEngine, LeafSpineWithFaultsArmedMatchesGolden) {
  const Trace trace = FabricTrace(1202);
  NetworkRunConfig cfg = LeafSpineConfig(/*leaves=*/3, /*spines=*/2);
  // Loss + reorder + duplication inside the fabric and loss on the report
  // path: every recovery mechanism runs.
  cfg.base.fault.seed = 0xF417A;
  cfg.base.fault.inner_link.drop_rate = 0.05;
  cfg.base.fault.inner_link.reorder_rate = 0.05;
  cfg.base.fault.inner_link.dup_rate = 0.02;
  cfg.base.fault.report_link.drop_rate = 0.10;

  const NetworkRunResult net = RunFabric(trace, cfg);
  EXPECT_GT(net.link_dropped, 0u) << "fabric loss never fired";
  EXPECT_GT(net.report_dropped, 0u) << "report loss never fired";
  ExpectGolden(net, 0x8c0589f2a1341a17);
}

/// The 4-switch line: no ECMP and the historical "forward into the void"
/// egress.
NetworkRunConfig LineConfig() {
  NetworkRunConfig cfg = LeafSpineConfig(2, 2);
  cfg.topology = {.kind = TopologyKind::kLine, .line_switches = 4};
  return cfg;
}

TEST(FabricEngine, LineTopologyMatchesGolden) {
  const Trace trace = FabricTrace(1203);
  const NetworkRunResult net = RunFabric(trace, LineConfig());
  ASSERT_EQ(net.per_switch.size(), 4u);
  ExpectGolden(net, 0x38e8fa74feca044f);
}

TEST(FabricEngine, LossyLineMatchesGolden) {
  // The line above with 1% loss on every fabric link.
  const Trace trace = FabricTrace(1203);
  NetworkRunConfig cfg = LineConfig();
  cfg.link.loss_rate = 0.01;

  const NetworkRunResult net = RunFabric(trace, cfg);
  ASSERT_EQ(net.per_switch.size(), 4u);
  EXPECT_GT(net.link_dropped, 0u) << "fabric loss never fired";
  ExpectGolden(net, 0x8794386b2ba86906);
}

TEST(FabricEngine, ConnectRejectsCycles) {
  // A switch batches up to the other switches' next event, which is causal
  // only if nothing it sends can come back to it.
  Network net;
  Switch* a = net.AddSwitch();
  Switch* b = net.AddSwitch();
  Switch* c = net.AddSwitch();
  const LinkParams wire{.latency = kMicro, .jitter = 0};
  EXPECT_NO_THROW(net.Connect(a, b, wire));
  EXPECT_NO_THROW(net.Connect(b, c, wire));
  EXPECT_NO_THROW(net.Connect(a, c, wire));  // a second path, no cycle
  EXPECT_THROW(net.Connect(c, a, wire), std::invalid_argument);
  EXPECT_THROW(net.Connect(b, a, wire), std::invalid_argument);
  EXPECT_THROW(net.Connect(a, a, wire), std::invalid_argument);
  // A refused link takes no port.
  EXPECT_FALSE(c->HasPortHandler(0));
  EXPECT_FALSE(b->HasPortHandler(1));
  EXPECT_FALSE(a->HasPortHandler(2));
}

}  // namespace
}  // namespace ow
