// Kill/restore bit-identity proof for FabricSession checkpoints: drive a
// fabric to a quiescent point, Snapshot(), rebuild an identically
// configured session, Restore(), and the resumed run must reproduce the
// uninterrupted run exactly — same windows, per-window count tables,
// data-plane/controller stats, link ground truth, sink deliveries and
// detector alert streams — on line and leaf-spine fabrics and with the
// fault machinery armed.
//
// Stream-vs-counter contract (see FabricSession): cumulative counters come
// out of the restored session's Finish() directly; the WINDOW stream is
// split across the kill — pre-snapshot windows live in the killed
// session's partial_result(), and the comparator here concatenates them
// with the restored session's post-restore stream. Detector alerts
// concatenate the same way (EntityDetector::Save excludes alerts_).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/snapshot.h"
#include "src/core/network_runner.h"
#include "src/detect/detect.h"
#include "src/fault/fault.h"
#include "src/net/network.h"
#include "src/telemetry/exact_count.h"
#include "src/trace/generator.h"

namespace ow {
namespace {

using detect::Alert;
using detect::DetectionService;
using detect::DetectorConfig;

AdapterPtr MakeCountApp(std::size_t) {
  return std::make_shared<ExactCountApp>();
}

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

/// Everything a kill/restore is NOT allowed to vary. Obs counters are
/// process-local diagnostics, excluded from the checkpoint contract, so —
/// unlike fabric_engine_test — they are not part of this fingerprint.
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
  return fp;
}

/// Kill a run at `snap_t`, restore into a fresh identically configured
/// session, finish it, and splice the killed session's pre-snapshot window
/// stream back in front so the result compares against an uninterrupted
/// reference. `observer_a`/`observer_b` let the detector test attach a
/// per-session DetectionService.
NetworkRunResult KillRestoreRun(
    const Trace& trace, NetworkRunConfig cfg, Nanos snap_t,
    std::vector<std::uint8_t>* out_bytes = nullptr,
    std::function<void(std::size_t, const WindowResult&)> observer_a = {},
    std::function<void(std::size_t, const WindowResult&)> observer_b = {},
    std::function<void(SnapshotWriter&)> save_extra = {},
    std::function<void(SnapshotReader&)> load_extra = {}) {
  NetworkRunConfig cfg_a = cfg;
  if (observer_a) cfg_a.window_observer = std::move(observer_a);
  FabricSession killed(trace, MakeCountApp, cfg_a);
  killed.DriveUntil(snap_t);

  SnapshotWriter w;
  // Sessions and their consumers (detectors) checkpoint into one stream.
  {
    const std::vector<std::uint8_t> session_bytes = killed.Snapshot();
    w.PodVec(session_bytes);
  }
  if (save_extra) save_extra(w);
  const std::vector<std::uint8_t> bytes = w.Take();
  const NetworkRunResult pre = killed.partial_result();

  NetworkRunConfig cfg_b = cfg;
  if (observer_b) cfg_b.window_observer = std::move(observer_b);
  FabricSession restored(trace, MakeCountApp, cfg_b);
  {
    SnapshotReader r(bytes);
    std::vector<std::uint8_t> session_bytes;
    r.PodVec(session_bytes);
    restored.Restore(session_bytes);
    if (load_extra) load_extra(r);
    if (!r.AtEnd()) throw SnapshotError("trailing bytes in outer snapshot");
  }
  NetworkRunResult post = restored.Finish();

  EXPECT_EQ(pre.per_switch.size(), post.per_switch.size());
  for (std::size_t i = 0; i < post.per_switch.size(); ++i) {
    auto& dst = post.per_switch[i];
    const auto& src = pre.per_switch[i];
    dst.windows.insert(dst.windows.begin(), src.windows.begin(),
                       src.windows.end());
    dst.counts.insert(src.counts.begin(), src.counts.end());
  }
  if (out_bytes) *out_bytes = bytes;
  return post;
}

// --- building blocks -------------------------------------------------------

TEST(SnapshotRestore, RngStateRoundTrip) {
  Rng a(0xDEADBEEF);
  for (int i = 0; i < 37; ++i) (void)a.NextU64();
  const Rng::State st = a.state();
  Rng b(1);  // different seed, fully overwritten by set_state
  b.set_state(st);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(SnapshotRestore, ReaderRejectsCorruptHeaderAndTruncation) {
  SnapshotWriter w;
  w.U64(42);
  std::vector<std::uint8_t> bytes = w.Take();
  {
    SnapshotReader r(bytes);
    EXPECT_EQ(r.U64(), 42u);
    EXPECT_TRUE(r.AtEnd());
  }
  std::vector<std::uint8_t> bad = bytes;
  bad[0] ^= 0xFF;  // corrupt the magic
  EXPECT_THROW(SnapshotReader{bad}, SnapshotError);
  bytes.pop_back();  // truncate the payload
  SnapshotReader r(bytes);
  EXPECT_THROW(r.U64(), SnapshotError);
}

// --- full-fabric kill/restore ----------------------------------------------

TEST(SnapshotRestore, LineTopologyBitIdentical) {
  const Trace trace = FabricTrace(8101);
  NetworkRunConfig cfg = LeafSpineConfig(2, 2);
  cfg.topology = TopologyConfig{};
  cfg.topology.kind = TopologyKind::kLine;
  cfg.topology.line_switches = 3;

  const Fingerprint ref =
      FingerprintOf(RunOmniWindowFabric(trace, MakeCountApp, cfg));
  ASSERT_FALSE(ref.per_switch.empty());
  ASSERT_GT(ref.per_switch[0].windows_emitted, 0u);

  // Early, mid and late kill points (50 ms sub-windows over a 400 ms trace)
  // exercise snapshots with most of the trace still queued, with collection
  // in full swing, and with only the tail outstanding.
  for (const Nanos snap_t : {75 * kMilli, 175 * kMilli, 330 * kMilli}) {
    SCOPED_TRACE("snap_t=" + std::to_string(snap_t / kMilli) + "ms");
    const Fingerprint got = FingerprintOf(KillRestoreRun(trace, cfg, snap_t));
    EXPECT_EQ(ref, got) << "kill/restore diverged from uninterrupted run";
  }
}

TEST(SnapshotRestore, LeafSpineBitIdentical) {
  const Trace trace = FabricTrace(8102);
  const NetworkRunConfig cfg = LeafSpineConfig(3, 2);
  const Fingerprint ref =
      FingerprintOf(RunOmniWindowFabric(trace, MakeCountApp, cfg));
  ASSERT_GT(ref.delivered, 0u);
  const Fingerprint got =
      FingerprintOf(KillRestoreRun(trace, cfg, 175 * kMilli));
  EXPECT_EQ(ref, got) << "kill/restore diverged from uninterrupted run";
}

TEST(SnapshotRestore, BitIdenticalWithFaultsArmed) {
  const Trace trace = FabricTrace(8103);
  NetworkRunConfig cfg = LeafSpineConfig(3, 2);
  // Every recovery mechanism runs across the kill point: fabric loss /
  // reorder / dup and report-path loss. All of their RNG streams and
  // pending retransmit state ride the snapshot.
  cfg.base.fault.seed = 0xF417A;
  cfg.base.fault.inner_link.drop_rate = 0.05;
  cfg.base.fault.inner_link.reorder_rate = 0.05;
  cfg.base.fault.inner_link.dup_rate = 0.02;
  cfg.base.fault.report_link.drop_rate = 0.10;

  const Fingerprint ref =
      FingerprintOf(RunOmniWindowFabric(trace, MakeCountApp, cfg));
  EXPECT_GT(ref.link_dropped, 0u) << "fabric loss never fired";
  EXPECT_GT(ref.report_dropped, 0u) << "report loss never fired";

  const Fingerprint got =
      FingerprintOf(KillRestoreRun(trace, cfg, 225 * kMilli));
  EXPECT_EQ(ref, got)
      << "fault-path kill/restore diverged from uninterrupted run";
}

TEST(SnapshotRestore, RestoreIsRepeatable) {
  // The same snapshot restored twice produces the same completion — the
  // bytes fully determine the resumed timeline.
  const Trace trace = FabricTrace(8104);
  const NetworkRunConfig cfg = LeafSpineConfig(2, 2);
  FabricSession killed(trace, MakeCountApp, cfg);
  killed.DriveUntil(175 * kMilli);
  const std::vector<std::uint8_t> bytes = killed.Snapshot();

  std::vector<Fingerprint> runs;
  for (int i = 0; i < 2; ++i) {
    FabricSession restored(trace, MakeCountApp, cfg);
    restored.Restore(bytes);
    runs.push_back(FingerprintOf(restored.Finish()));
  }
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(SnapshotRestore, ShapeMismatchThrows) {
  const Trace trace = FabricTrace(8105);
  FabricSession src(trace, MakeCountApp, LeafSpineConfig(3, 2));
  src.DriveUntil(175 * kMilli);
  const std::vector<std::uint8_t> bytes = src.Snapshot();

  // Different topology: fewer switches / links than the snapshot carries.
  FabricSession smaller(trace, MakeCountApp, LeafSpineConfig(2, 2));
  EXPECT_THROW(smaller.Restore(bytes), SnapshotError);

  // Truncated stream: fails loudly, never half-restores silently.
  FabricSession same(trace, MakeCountApp, LeafSpineConfig(3, 2));
  std::vector<std::uint8_t> cut(bytes.begin(),
                                bytes.begin() + bytes.size() / 2);
  EXPECT_THROW(same.Restore(cut), SnapshotError);
}

TEST(SnapshotRestore, FileRoundTripResumesBitIdentically) {
  // The durable path: SnapshotToFile at the kill point, RestoreFromFile in
  // a "fresh process" (a new session), splice — identical to the
  // uninterrupted run. Then corrupt one payload byte on disk and the
  // restore must throw instead of resuming from damaged state.
  const Trace trace = FabricTrace(8107);
  const NetworkRunConfig cfg = LeafSpineConfig(2, 2);
  const std::string path = "snapshot_restore_file_test.owsnap";

  const Fingerprint ref =
      FingerprintOf(RunOmniWindowFabric(trace, MakeCountApp, cfg));

  FabricSession killed(trace, MakeCountApp, cfg);
  killed.DriveUntil(175 * kMilli);
  killed.SnapshotToFile(path);
  const NetworkRunResult pre = killed.partial_result();

  FabricSession restored(trace, MakeCountApp, cfg);
  restored.RestoreFromFile(path);
  NetworkRunResult post = restored.Finish();
  ASSERT_EQ(pre.per_switch.size(), post.per_switch.size());
  for (std::size_t i = 0; i < post.per_switch.size(); ++i) {
    auto& dst = post.per_switch[i];
    const auto& src = pre.per_switch[i];
    dst.windows.insert(dst.windows.begin(), src.windows.begin(),
                       src.windows.end());
    dst.counts.insert(src.counts.begin(), src.counts.end());
  }
  EXPECT_EQ(ref, FingerprintOf(post))
      << "file-based kill/restore diverged from uninterrupted run";

  // Flip one payload byte in place; the framing must catch it.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    f.seekp(size / 3);
    char b = 0;
    f.seekg(size / 3);
    f.read(&b, 1);
    b ^= 0x10;
    f.seekp(size / 3);
    f.write(&b, 1);
  }
  FabricSession fresh(trace, MakeCountApp, cfg);
  EXPECT_THROW(fresh.RestoreFromFile(path), SnapshotError);
  std::remove(path.c_str());
}

TEST(SnapshotRestore, RdmaConfigRefusesSnapshot) {
  const Trace trace = FabricTrace(8106);
  NetworkRunConfig cfg = LeafSpineConfig(2, 2);
  cfg.base.data_plane.rdma = true;
  cfg.base.controller.rdma = true;
  // No driving: RDMA NIC queue state is not checkpointable, so Snapshot()
  // refuses the configuration outright rather than emitting bytes that
  // could never restore bit-identically.
  FabricSession session(trace, MakeCountApp, cfg);
  EXPECT_THROW(session.Snapshot(), SnapshotError);
}

// --- detector alert-stream concatenation -----------------------------------

TEST(SnapshotRestore, DetectorAlertStreamConcatenates) {
  // Background plus anomalies spanning the kill point; the detector's
  // baselines, lag rings, FSM streaks and eviction state all ride the
  // snapshot, and pre-kill alerts + post-restore alerts must equal the
  // uninterrupted stream exactly.
  TraceConfig tc;
  tc.seed = 91;
  tc.duration = 2'500 * kMilli;
  tc.packets_per_sec = 10'000;
  tc.num_flows = 2'000;
  TraceGenerator gen(tc);
  Trace trace = gen.GenerateBackground();
  gen.InjectSynFlood(trace, 700 * kMilli, 600 * kMilli, 500);
  gen.InjectSlowloris(trace, 1'000 * kMilli, 1'000 * kMilli, 60);
  gen.InjectSuperSpreader(trace, 1'200 * kMilli, 500 * kMilli, 400);
  trace.SortByTime();

  WindowSpec spec;
  spec.type = WindowType::kSliding;
  spec.window_size = 500 * kMilli;
  spec.slide = 100 * kMilli;
  spec.subwindow_size = 100 * kMilli;
  NetworkRunConfig cfg;
  cfg.base = RunConfig::Make(spec);
  cfg.base.controller.kv_capacity = 1 << 15;
  cfg.topology.kind = TopologyKind::kLine;
  cfg.topology.line_switches = 1;

  DetectorConfig dcfg;
  dcfg.subwindow_size = spec.subwindow_size;

  DetectionService ref_svc(dcfg, 1);
  {
    NetworkRunConfig ref_cfg = cfg;
    ref_cfg.window_observer = ref_svc.Observer();
    RunOmniWindowFabric(trace, MakeCountApp, ref_cfg);
  }
  const std::vector<Alert> ref_alerts = ref_svc.Alerts();
  ASSERT_FALSE(ref_alerts.empty()) << "no alerts; kill point proves nothing";

  // Kill mid-attack, with escalations already fired and more to come.
  DetectionService svc_a(dcfg, 1);
  DetectionService svc_b(dcfg, 1);
  const NetworkRunResult merged = KillRestoreRun(
      trace, cfg, 1'200 * kMilli, nullptr, svc_a.Observer(),
      svc_b.Observer(), [&](SnapshotWriter& w) { svc_a.Save(w); },
      [&](SnapshotReader& r) { svc_b.Load(r); });

  std::vector<Alert> got = svc_a.Alerts();
  const std::vector<Alert> post = svc_b.Alerts();
  ASSERT_FALSE(got.empty()) << "kill point before any alert";
  ASSERT_FALSE(post.empty()) << "kill point after the last alert";
  got.insert(got.end(), post.begin(), post.end());
  EXPECT_EQ(ref_alerts, got)
      << "alert stream split across the kill diverged from uninterrupted run";

  // The merged window stream matches the uninterrupted run too.
  DetectionService scratch(dcfg, 1);
  NetworkRunConfig plain_cfg = cfg;
  plain_cfg.window_observer = scratch.Observer();
  const Fingerprint plain =
      FingerprintOf(RunOmniWindowFabric(trace, MakeCountApp, plain_cfg));
  EXPECT_EQ(plain, FingerprintOf(merged));
}

}  // namespace
}  // namespace ow
