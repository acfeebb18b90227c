// Exp#13: standby-controller failover — windows lost and takeover latency
// vs snapshot cadence.
//
// A StandbyController ingests controller-plane checkpoints every N
// sub-window boundaries while a leaf-spine fabric runs sliding windows
// (500 ms window / 50 ms sub-windows / 50 ms slide — 10 sub-windows per
// window, wider than the switch retransmission cache of depth 8). The
// primary controller plane is killed at a fixed boundary; the standby
// takes over (FabricSession::FailOver) and re-requests everything its
// checkpoint predates. Swept over snapshot cadence against one
// uninterrupted reference.
//
// The headline curve: windows_lost (reference windows NOT recovered
// exactly — flagged or absent; absent is always 0 by the exact-or-flagged
// contract) stays at zero while the checkpoint staleness fits the cache
// and climbs once it does not. takeover latency is reported both in
// deterministic simulated time (sim_ns_per_takeover, gated by
// tools/check_bench_regression.py via the committed baseline in
// bench/results/) and wall time (takeover_wall_us, informational).
//
// Exits non-zero if any window is lost or silently divergent anywhere, if
// any cell fails to catch up, or if windows_lost != 0 at cadence 1 — the
// CI failover-smoke job runs this binary on a thinned trace (--pps=).
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/core/network_runner.h"
#include "src/failover/failover.h"
#include "src/telemetry/exact_count.h"
#include "src/trace/generator.h"

namespace {

using namespace ow;

constexpr std::uint64_t kSeed = 1309;
constexpr Nanos kDuration = 1'800 * kMilli;
/// Boundary 32 of the 50 ms sub-window stream (t = 1.6 s): late enough
/// that cadence-16 checkpoints land at boundary 16 (staleness 16, twice
/// the cache depth), early enough that the takeover catches up in-band.
constexpr std::int64_t kKillBoundary = 32;

double PpsFromArgs(int argc, char** argv, double def) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--pps=", 0) == 0) return std::stod(arg.substr(6));
  }
  return def;
}

Trace MakeTrace(double pps) {
  TraceConfig tc;
  tc.seed = kSeed;
  tc.duration = kDuration;
  tc.packets_per_sec = pps;
  tc.num_flows = 2'000;
  TraceGenerator gen(tc);
  return gen.GenerateBackground();
}

NetworkRunConfig BaseConfig() {
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

AdapterPtr MakeApp(std::size_t) { return std::make_shared<ExactCountApp>(); }

struct ResultRow {
  std::size_t cadence = 1;
  failover::FailoverReport report;
  failover::WindowComparison cmp;
  /// Reference windows not recovered exactly (flagged or absent).
  std::size_t windows_lost = 0;
};

void PrintRow(const ResultRow& r) {
  std::printf(
      "cadence=%-2zu kill@%zu stale=%-2zu snap=%6zuB  "
      "windows=%-3zu exact=%-3zu flagged=%-2zu lost=%zu  requeried=%zu "
      "sw-lost=%zu dup=%zu  takeover sim=%.1fms wall=%.0fus  %s\n",
      r.cadence, r.report.kill_boundary,
      r.report.staleness_boundaries, r.report.snapshot_bytes,
      r.cmp.windows_total, r.cmp.exact, r.cmp.flagged, r.windows_lost,
      r.report.subwindows_requeried, r.report.subwindows_lost,
      r.report.windows_duplicated,
      double(r.report.takeover_sim_ns) / double(kMilli),
      double(r.report.takeover_wall_ns) / 1e3,
      r.cmp.divergent_unflagged || r.cmp.lost ? "CONTRACT VIOLATION" : "ok");
}

bool WriteJson(const std::string& path, const Trace& trace,
               const std::vector<ResultRow>& rows) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"bench\": \"failover\",\n";
  out << "  \"trace\": {\"name\": \"GenerateBackground(" << kSeed
      << ")\", \"packets\": " << trace.packets.size()
      << ", \"duration_ms\": " << kDuration / kMilli << "},\n";
  out << "  \"host_cpus\": " << std::thread::hardware_concurrency() << ",\n";
  out << "  \"kill_boundary\": " << kKillBoundary << ",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ResultRow& r = rows[i];
    out << "    {\"workload\": \"failover-c" << r.cadence << "\""
        << ", \"cadence\": " << r.cadence
        << ", \"staleness_boundaries\": " << r.report.staleness_boundaries
        << ", \"snapshot_bytes\": " << r.report.snapshot_bytes
        << ", \"windows_total\": " << r.cmp.windows_total
        << ", \"windows_exact\": " << r.cmp.exact
        << ", \"windows_flagged\": " << r.cmp.flagged
        << ", \"windows_absent\": " << r.cmp.lost
        << ", \"windows_lost\": " << r.windows_lost
        << ", \"divergent_unflagged\": " << r.cmp.divergent_unflagged
        << ", \"subwindows_requeried\": " << r.report.subwindows_requeried
        << ", \"subwindows_lost\": " << r.report.subwindows_lost
        << ", \"windows_duplicated\": " << r.report.windows_duplicated
        << ", \"caught_up\": " << (r.report.caught_up ? "true" : "false")
        << ", \"sim_ns_per_takeover\": " << r.report.takeover_sim_ns
        << ", \"takeover_wall_us\": "
        << double(r.report.takeover_wall_ns) / 1e3 << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return bool(out);
}

}  // namespace

int main(int argc, char** argv) {
  const double pps = PpsFromArgs(argc, argv, 20'000);
  const std::string out_path =
      bench::OutPathFromArgs(argc, argv, "BENCH_failover.json");
  const Trace trace = MakeTrace(pps);
  std::printf(
      "Exp#13: standby failover — windows lost / takeover latency vs "
      "snapshot cadence (%zu packets, %lld ms, kill at boundary %lld)\n\n",
      trace.packets.size(), (long long)(kDuration / kMilli),
      (long long)kKillBoundary);

  std::vector<ResultRow> rows;
  bool ok = true;
  const NetworkRunConfig cfg = BaseConfig();
  const NetworkRunResult ref = RunOmniWindowFabric(trace, MakeApp, cfg);
  for (const std::size_t cadence :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8},
        std::size_t{16}}) {
    failover::FailoverConfig fcfg;
    fcfg.snapshot_cadence = cadence;
    fcfg.kill_boundary = kKillBoundary;
    const failover::FailoverRunResult run =
        failover::RunWithFailover(trace, MakeApp, cfg, fcfg);

    ResultRow row;
    row.cadence = cadence;
    row.report = run.report;
    row.cmp = failover::CompareWindows(ref, run.spliced);
    row.windows_lost = row.cmp.windows_total - row.cmp.exact;
    PrintRow(row);

    // The takeover contract, everywhere: nothing absent, nothing silently
    // divergent, always caught up.
    if (row.cmp.lost || row.cmp.divergent_unflagged || !row.report.caught_up) {
      std::printf("FAIL: takeover contract violated in cadence=%zu\n",
                  cadence);
      ok = false;
    }
    // The headline gate: cadence 1 keeps the staleness inside the switch
    // retransmission cache — zero windows lost.
    if (cadence == 1 && row.windows_lost != 0) {
      std::printf("FAIL: %zu windows lost at cadence 1\n", row.windows_lost);
      ok = false;
    }
    rows.push_back(std::move(row));
  }

  if (WriteJson(out_path, trace, rows)) {
    std::printf("\nwrote %s\n", out_path.c_str());
  } else {
    std::printf("\nFAILED to write %s\n", out_path.c_str());
    return 2;
  }
  return ok ? 0 : 1;
}
