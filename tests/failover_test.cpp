// Standby-controller failover (src/failover): periodic controller-plane
// checkpoints, a seeded primary kill at a sub-window boundary, and a
// takeover that re-requests everything the stale checkpoint predates from
// the live switches. Contract under test: every window the uninterrupted
// reference emits comes back exact or flagged — never silently wrong —
// with zero non-exact windows at snapshot cadence 1, and degradation
// appearing only once the checkpoint staleness outruns the switch
// retransmission cache.
//
// Also here: the cadence-sweep SPLICE test for the full-fabric
// Snapshot/Restore path (checkpoint every N boundaries, kill, restore in a
// fresh session, splice the window streams — bit-identical for every N),
// the Finish/Restore lifecycle guards, and the shape-mismatch diagnostics.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/snapshot.h"
#include "src/core/network_runner.h"
#include "src/failover/failover.h"
#include "src/telemetry/exact_count.h"
#include "src/trace/generator.h"

namespace ow {
namespace {

using failover::CompareWindows;
using failover::FailoverConfig;
using failover::FailoverRunResult;
using failover::RunWithFailover;
using failover::StandbyController;
using failover::WindowComparison;

AdapterPtr MakeCountApp(std::size_t) {
  return std::make_shared<ExactCountApp>();
}

Trace MakeTrace(std::uint64_t seed, Nanos duration) {
  TraceConfig tc;
  tc.seed = seed;
  tc.duration = duration;
  tc.packets_per_sec = 12'000;
  tc.num_flows = 1'200;
  TraceGenerator gen(tc);
  return gen.GenerateBackground();
}

/// Sliding spec wide enough (10 sub-windows) to outlast the switch
/// retransmission cache (depth 8): a stale-enough takeover must flag
/// not-yet-delivered windows instead of silently recomputing them wrong.
NetworkRunConfig SlidingFabricConfig() {
  WindowSpec spec;
  spec.type = WindowType::kSliding;
  spec.window_size = 500 * kMilli;
  spec.subwindow_size = 50 * kMilli;
  spec.slide = 50 * kMilli;
  NetworkRunConfig cfg;
  cfg.base = RunConfig::Make(spec);
  cfg.base.controller.kv_capacity = 1 << 16;
  cfg.topology.kind = TopologyKind::kLeafSpine;
  cfg.topology.leaves = 2;
  cfg.topology.spines = 2;
  cfg.capture_counts = true;
  cfg.link.latency = 20 * kMicro;
  cfg.link.jitter = 2 * kMicro;
  return cfg;
}

NetworkRunConfig TumblingFabricConfig() {
  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = 100 * kMilli;
  spec.subwindow_size = 50 * kMilli;
  spec.slide = spec.window_size;
  NetworkRunConfig cfg;
  cfg.base = RunConfig::Make(spec);
  cfg.base.controller.kv_capacity = 1 << 16;
  cfg.topology.kind = TopologyKind::kLeafSpine;
  cfg.topology.leaves = 2;
  cfg.topology.spines = 2;
  cfg.capture_counts = true;
  cfg.link.latency = 20 * kMicro;
  cfg.link.jitter = 2 * kMicro;
  return cfg;
}

/// What the splice test is not allowed to vary: windows (all fields),
/// per-window count tables, and the cumulative counters that ride the
/// restored session.
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
    std::uint64_t packets_measured = 0, afr_generated = 0,
                  windows_emitted = 0, windows_partial = 0;
    bool operator==(const PerSwitch&) const = default;
  };
  std::vector<PerSwitch> per_switch;
  std::uint64_t link_dropped = 0, report_dropped = 0, delivered = 0;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint FingerprintOf(const NetworkRunResult& net) {
  Fingerprint fp;
  for (const auto& sw : net.per_switch) {
    Fingerprint::PerSwitch ps;
    for (const auto& w : sw.windows) {
      ps.windows.push_back(
          {w.span.first, w.span.last, w.completed_at, w.partial});
    }
    ps.counts = {sw.counts.begin(), sw.counts.end()};
    ps.packets_measured = sw.data_plane.packets_measured;
    ps.afr_generated = sw.data_plane.afr_generated;
    ps.windows_emitted = sw.controller.windows_emitted;
    ps.windows_partial = sw.controller.windows_partial;
    fp.per_switch.push_back(std::move(ps));
  }
  fp.link_dropped = net.link_dropped;
  fp.report_dropped = net.report_dropped;
  fp.delivered = net.delivered;
  return fp;
}

// --- standby checkpoint cadence --------------------------------------------

TEST(Failover, StandbyCheckpointsAtCadence) {
  const Trace trace = MakeTrace(9301, 200 * kMilli);
  FabricSession session(trace, MakeCountApp, TumblingFabricConfig());
  FailoverConfig fcfg;
  fcfg.snapshot_cadence = 4;
  StandbyController standby(fcfg);
  for (std::size_t k = 0; k < 12; ++k) standby.ObserveBoundary(session, k);
  EXPECT_EQ(standby.snapshots_taken(), 3u);  // boundaries 0, 4, 8
  EXPECT_EQ(standby.snapshot_boundary(), 8u);
  ASSERT_TRUE(standby.has_snapshot());
  EXPECT_GT(standby.snapshot().size(), 0u);

  // The controller-plane checkpoint is the point of the standby: it must
  // be much smaller than the full-fabric snapshot it rides alongside.
  EXPECT_LT(standby.snapshot().size(), session.Snapshot().size());
}

// --- cadence-sweep splice over full-fabric Snapshot/Restore ----------------

TEST(Failover, CadenceSpliceBitIdenticalAcrossCheckpointCadences) {
  // Checkpoint the FULL fabric every N boundaries while driving, kill at a
  // fixed boundary, restore the latest checkpoint into a fresh process
  // image (a new FabricSession), and splice the killed session's
  // pre-checkpoint window stream in front of the restored one. For every
  // cadence the splice must be bit-identical to the uninterrupted run —
  // staleness costs re-execution time, never correctness, on this path.
  const Trace trace = MakeTrace(9302, 400 * kMilli);
  const NetworkRunConfig cfg = TumblingFabricConfig();
  const Nanos sub = cfg.base.window.subwindow_size;
  const std::size_t kill = 6;  // 300 ms into a 400 ms trace

  const Fingerprint ref =
      FingerprintOf(RunOmniWindowFabric(trace, MakeCountApp, cfg));
  ASSERT_FALSE(ref.per_switch.empty());
  ASSERT_GT(ref.per_switch[0].windows_emitted, 0u);

  for (const std::size_t cadence : {1u, 4u, 16u}) {
    SCOPED_TRACE("cadence=" + std::to_string(cadence));
    FabricSession primary(trace, MakeCountApp, cfg);
    std::vector<std::uint8_t> checkpoint = primary.Snapshot();  // boundary 0
    NetworkRunResult at_checkpoint = primary.partial_result();
    for (std::size_t k = 1; k < kill; ++k) {
      primary.DriveUntil(Nanos(k) * sub);
      if (k % cadence == 0) {
        checkpoint = primary.Snapshot();
        at_checkpoint = primary.partial_result();
      }
    }
    // Boundary `kill`: the process dies; only `checkpoint` survives.

    FabricSession restored(trace, MakeCountApp, cfg);
    restored.Restore(checkpoint);
    NetworkRunResult post = restored.Finish();
    ASSERT_EQ(at_checkpoint.per_switch.size(), post.per_switch.size());
    for (std::size_t i = 0; i < post.per_switch.size(); ++i) {
      auto& dst = post.per_switch[i];
      const auto& src = at_checkpoint.per_switch[i];
      dst.windows.insert(dst.windows.begin(), src.windows.begin(),
                         src.windows.end());
      dst.counts.insert(src.counts.begin(), src.counts.end());
    }
    EXPECT_EQ(ref, FingerprintOf(post))
        << "spliced kill/restore diverged from uninterrupted run";
  }
}

// --- delta checkpoints ------------------------------------------------------

TEST(Failover, DeltaChainReconstructsKeyframeSnapshotsExactly) {
  // Two standbys watch the same primary at the same cadence, one shipping
  // full snapshots and one shipping deltas (with sparse keyframes). The
  // delta standby reconstructs each checkpoint by applying the delta to its
  // previous one — so at EVERY boundary the two must hold byte-identical
  // snapshots, while the delta side ships fewer wire bytes.
  const Trace trace = MakeTrace(9308, 600 * kMilli);
  FabricSession session(trace, MakeCountApp, TumblingFabricConfig());
  const Nanos sub = 50 * kMilli;

  FailoverConfig full_cfg;
  full_cfg.snapshot_cadence = 1;
  FailoverConfig delta_cfg = full_cfg;
  delta_cfg.delta_checkpoints = true;
  StandbyController full_standby(full_cfg);
  StandbyController delta_standby(delta_cfg);

  for (std::size_t k = 0; k < 12; ++k) {
    if (k > 0) session.DriveUntil(Nanos(k) * sub);
    full_standby.ObserveBoundary(session, k);
    delta_standby.ObserveBoundary(session, k);
    ASSERT_EQ(full_standby.snapshot(), delta_standby.snapshot())
        << "delta chain diverged from full snapshots at boundary " << k;
  }
  EXPECT_EQ(delta_standby.snapshots_taken(), 12u);
  // Boundaries 0 and 8 are keyframes (kKeyframeInterval = 8); the rest ship
  // deltas.
  static_assert(failover::kKeyframeInterval == 8);
  EXPECT_EQ(delta_standby.keyframes_sent(), 2u);
  EXPECT_EQ(delta_standby.deltas_sent(), 10u);
  EXPECT_EQ(full_standby.keyframes_sent(), 12u);
  EXPECT_EQ(full_standby.deltas_sent(), 0u);
  EXPECT_LT(delta_standby.wire_bytes_total(),
            full_standby.wire_bytes_total())
      << "delta checkpoints must ship fewer bytes than full snapshots";
}

TEST(Failover, DeltaCheckpointsTakeOverIdenticallyToFullOnes) {
  // End to end: a failover run with delta checkpoints must produce the
  // exact spliced stream the full-snapshot run does — deltas change the
  // wire format, never what the standby restores.
  const Trace trace = MakeTrace(9309, 800 * kMilli);
  const NetworkRunConfig cfg = SlidingFabricConfig();
  FailoverConfig fcfg;
  fcfg.snapshot_cadence = 1;
  fcfg.kill_boundary = 10;
  const FailoverRunResult full = RunWithFailover(trace, MakeCountApp, cfg, fcfg);

  FailoverConfig dcfg = fcfg;
  dcfg.delta_checkpoints = true;
  const FailoverRunResult delta =
      RunWithFailover(trace, MakeCountApp, cfg, dcfg);

  EXPECT_EQ(FingerprintOf(full.spliced), FingerprintOf(delta.spliced));
  EXPECT_EQ(full.report.kill_boundary, delta.report.kill_boundary);
  EXPECT_EQ(full.report.subwindows_lost, delta.report.subwindows_lost);
  EXPECT_GT(delta.report.deltas_sent, 0u);
  EXPECT_EQ(full.report.deltas_sent, 0u);
  EXPECT_LT(delta.report.wire_bytes, full.report.wire_bytes);
  EXPECT_EQ(full.report.keyframes_sent, full.report.snapshots_taken);
}

// --- standby takeover against the live fabric ------------------------------

TEST(Failover, ZeroLossAtCadenceOne) {
  const Trace trace = MakeTrace(9303, 1'200 * kMilli);
  const NetworkRunConfig cfg = SlidingFabricConfig();
  const NetworkRunResult ref = RunOmniWindowFabric(trace, MakeCountApp, cfg);

  FailoverConfig fcfg;
  fcfg.snapshot_cadence = 1;
  fcfg.kill_boundary = 14;
  const FailoverRunResult run = RunWithFailover(trace, MakeCountApp, cfg, fcfg);

  EXPECT_EQ(run.report.kill_boundary, 14u);
  EXPECT_EQ(run.report.staleness_boundaries, 1u);
  EXPECT_TRUE(run.report.caught_up);
  EXPECT_EQ(run.report.subwindows_lost, 0u);
  EXPECT_GT(run.report.subwindows_requeried, 0u);

  const WindowComparison cmp = CompareWindows(ref, run.spliced);
  ASSERT_GT(cmp.windows_total, 0u);
  EXPECT_EQ(cmp.lost, 0u);
  EXPECT_EQ(cmp.divergent_unflagged, 0u);
  EXPECT_EQ(cmp.flagged, 0u)
      << "cadence 1 is always within the retransmission cache";
  EXPECT_EQ(cmp.exact, cmp.windows_total);
}

TEST(Failover, SeededKillBoundaryIsDeterministic) {
  const Trace trace = MakeTrace(9304, 800 * kMilli);
  const NetworkRunConfig cfg = SlidingFabricConfig();
  FailoverConfig fcfg;
  fcfg.snapshot_cadence = 1;  // kill_boundary stays -1: drawn from a fixed seed
  const FailoverRunResult a = RunWithFailover(trace, MakeCountApp, cfg, fcfg);
  const FailoverRunResult b = RunWithFailover(trace, MakeCountApp, cfg, fcfg);
  EXPECT_EQ(a.report.kill_boundary, b.report.kill_boundary);
  EXPECT_EQ(a.report.takeover_sim_ns, b.report.takeover_sim_ns);
  EXPECT_EQ(FingerprintOf(a.spliced), FingerprintOf(b.spliced));
  EXPECT_GE(a.report.kill_boundary, 1u);
}

TEST(Failover, LossAppearsOnlyPastRetransmissionCacheDepth) {
  // Staleness within the switch cache (cadence 1 and 4 at kill boundary
  // 32 -> staleness 1 and 4) recovers every window exactly. Staleness 16
  // outruns the depth-8 cache: the oldest re-requested sub-windows are
  // gone, and every not-yet-delivered window spanning them must surface
  // FLAGGED — present, marked partial — rather than absent or silently
  // divergent.
  const Trace trace = MakeTrace(9305, 1'800 * kMilli);
  const NetworkRunConfig cfg = SlidingFabricConfig();
  const NetworkRunResult ref = RunOmniWindowFabric(trace, MakeCountApp, cfg);

  for (const std::size_t cadence : {1u, 4u, 16u}) {
    SCOPED_TRACE("cadence=" + std::to_string(cadence));
    FailoverConfig fcfg;
    fcfg.snapshot_cadence = cadence;
    fcfg.kill_boundary = 32;
    const FailoverRunResult run =
        RunWithFailover(trace, MakeCountApp, cfg, fcfg);
    EXPECT_EQ(run.report.staleness_boundaries,
              cadence == 1 ? 1u : (cadence == 4 ? 4u : 16u));
    EXPECT_TRUE(run.report.caught_up);

    const WindowComparison cmp = CompareWindows(ref, run.spliced);
    ASSERT_GT(cmp.windows_total, 0u);
    EXPECT_EQ(cmp.lost, 0u) << "windows must never vanish";
    EXPECT_EQ(cmp.divergent_unflagged, 0u)
        << "unflagged windows must be exact";
    if (cadence <= 4) {
      EXPECT_EQ(cmp.flagged, 0u);
      EXPECT_EQ(cmp.exact, cmp.windows_total);
      EXPECT_EQ(run.report.subwindows_lost, 0u);
    } else {
      EXPECT_GT(cmp.flagged, 0u)
          << "staleness 16 > cache depth 8 must degrade some windows";
      EXPECT_GT(run.report.subwindows_lost, 0u);
      // The dead primary had already delivered some of the re-finalized
      // spans; at-least-once emission plus span dedupe keeps its copies.
      EXPECT_GT(run.report.windows_duplicated, 0u);
    }
  }
}

// --- lifecycle guards ------------------------------------------------------

TEST(Failover, FinishedSessionRefusesReuse) {
  const Trace trace = MakeTrace(9306, 200 * kMilli);
  const NetworkRunConfig cfg = TumblingFabricConfig();
  FabricSession session(trace, MakeCountApp, cfg);
  const std::vector<std::uint8_t> full = session.Snapshot();
  const std::vector<std::uint8_t> ctrl = session.SnapshotControllers();
  (void)session.Finish();
  EXPECT_THROW((void)session.Finish(), std::logic_error);
  EXPECT_THROW(session.Restore(full), std::logic_error);
  EXPECT_THROW((void)session.FailOver(ctrl, 0), std::logic_error);
}

// --- shape-mismatch diagnostics --------------------------------------------

TEST(Failover, ShapeMismatchNamesSectionAndCounts) {
  const Trace trace = MakeTrace(9307, 200 * kMilli);
  NetworkRunConfig big = TumblingFabricConfig();
  big.topology.leaves = 3;
  FabricSession src(trace, MakeCountApp, big);
  src.DriveUntil(100 * kMilli);
  const std::vector<std::uint8_t> full = src.Snapshot();
  const std::vector<std::uint8_t> ctrl = src.SnapshotControllers();

  FabricSession smaller(trace, MakeCountApp, TumblingFabricConfig());
  try {
    smaller.Restore(full);
    FAIL() << "restore into a smaller topology must throw";
  } catch (const SnapshotError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("[section 0x"), std::string::npos) << msg;
    EXPECT_NE(msg.find("expected"), std::string::npos) << msg;
    EXPECT_NE(msg.find("found"), std::string::npos) << msg;
  }
  try {
    (void)smaller.FailOver(ctrl, 100 * kMilli);
    FAIL() << "takeover from a different topology's checkpoint must throw";
  } catch (const SnapshotError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("controller count"), std::string::npos) << msg;
    EXPECT_NE(msg.find("expected"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace ow
