// Exp#14: process-lifetime splice — durable checkpoints across real
// process restarts.
//
// Drives a trace "larger than one process lifetime": the run is cut into
// segments at every checkpoint cadence (8 sub-window boundaries), and each
// segment runs in a FRESH PROCESS (this binary re-execs itself in --child
// mode) that restores the previous segment's durable checkpoint file,
// drives its boundary range, writes the next checkpoint, and dumps the
// windows it emitted. The parent splices the per-segment window streams
// and asserts BIT-IDENTITY with an uninterrupted in-process reference —
// spans, completion times, partial flags, detection sets, delivered and
// per-link counters all equal.
//
// Measured into BENCH_lifetime.json (committed baseline, gated by
// tools/check_bench_regression.py --metrics=bytes):
//   snapshot_bytes          checkpoint payload bytes — the headline; scales
//                           with live state, not the provisioned KV
//                           capacity (shrink is good)
//   provisioned_table_bytes sum over the flow tables of capacity x
//                           sizeof(KvSlot): what a capacity-proportional
//                           table encoding would write per checkpoint
//   capacity_reduction      provisioned_table_bytes / snapshot_bytes — must
//                           stay >= 10x on this workload
//   checkpoint_file_bytes   durable file size (payload + CRC index + footer)
// plus informational wall metrics: write bandwidth, per-segment restart
// cost, and restart amortization (spliced wall / reference wall).
//
// The parent also runs a corrupt-checkpoint sweep over the first durable
// file: bit flips and truncations at spread offsets must ALL fail with
// SnapshotError (the CRC framing + untrusted-size decoding), never load.
//
// Exits non-zero on any splice divergence, a capacity reduction below 10x,
// or a corruption that loads silently. CI's lifetime-smoke job runs this
// binary at the default --pps (the committed baseline uses the same).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/common/snapshot.h"
#include "src/core/network_runner.h"
#include "src/telemetry/exact_count.h"
#include "src/trace/generator.h"

namespace {

using namespace ow;

constexpr std::uint64_t kSeed = 1407;
constexpr Nanos kDuration = 2'500 * kMilli;
constexpr Nanos kSub = 50 * kMilli;
/// Sub-window boundaries per process segment (checkpoint cadence).
constexpr std::size_t kCadence = 8;
/// Boundaries 1..kTotal cover the trace plus the end-of-trace sentinel.
constexpr std::size_t kTotal = std::size_t((kDuration + 2 * kSub) / kSub);

double ArgD(int argc, char** argv, const char* flag, double def) {
  const std::string prefix = std::string(flag) + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return std::stod(arg.substr(prefix.size()));
  }
  return def;
}

std::string ArgS(int argc, char** argv, const char* flag,
                 const std::string& def) {
  const std::string prefix = std::string(flag) + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return def;
}

bool HasArg(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == flag) return true;
  }
  return false;
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
  spec.subwindow_size = kSub;
  spec.slide = kSub;
  NetworkRunConfig cfg;
  cfg.base = RunConfig::Make(spec);
  // Provisioned far above the ~2k live flows: checkpoints must cost what
  // the tables hold, not the 1<<17 slots each one provisions.
  cfg.base.controller.kv_capacity = 1 << 17;
  cfg.topology.kind = TopologyKind::kLeafSpine;
  cfg.topology.leaves = 2;
  cfg.topology.spines = 2;
  cfg.link.latency = 20 * kMicro;
  cfg.link.jitter = 2 * kMicro;
  return cfg;
}

AdapterPtr MakeApp(std::size_t) { return std::make_shared<ExactCountApp>(); }

FlowSet Detect(TableView table) {
  // Heavy-hitter detection keeps the window stream content-bearing, so the
  // splice comparison covers detection sets, not just spans.
  FlowSet out;
  table.ForEach([&out](const KvSlot& s) {
    if (s.num_attrs > 0 && s.attrs[0] >= 16) out.insert(s.key);
  });
  return out;
}

/// A window normalized for cross-process comparison: FlowSet iteration
/// order is process-local, so detections are dumped byte-sorted.
struct FlatWindow {
  SubWindowNum first = 0;
  SubWindowNum last = 0;
  Nanos completed_at = 0;
  bool partial = false;
  std::vector<FlowKey> detected;

  bool operator==(const FlatWindow& o) const {
    if (first != o.first || last != o.last || completed_at != o.completed_at ||
        partial != o.partial || detected.size() != o.detected.size()) {
      return false;
    }
    return std::memcmp(detected.data(), o.detected.data(),
                       detected.size() * sizeof(FlowKey)) == 0;
  }
};

struct FlatRun {
  std::vector<std::vector<FlatWindow>> per_switch;
  bool has_final = false;
  std::uint64_t delivered = 0;
  std::uint64_t link_dropped = 0;
  std::uint64_t report_dropped = 0;
  std::vector<FabricLinkStats> links;
};

std::vector<FlowKey> SortedKeys(const FlowSet& s) {
  std::vector<FlowKey> keys(s.begin(), s.end());
  std::sort(keys.begin(), keys.end(), [](const FlowKey& a, const FlowKey& b) {
    return std::memcmp(&a, &b, sizeof(FlowKey)) < 0;
  });
  return keys;
}

FlatRun FlattenResult(const NetworkRunResult& r, bool final) {
  FlatRun out;
  out.per_switch.resize(r.per_switch.size());
  for (std::size_t i = 0; i < r.per_switch.size(); ++i) {
    for (const EmittedWindow& w : r.per_switch[i].windows) {
      FlatWindow fw;
      fw.first = w.span.first;
      fw.last = w.span.last;
      fw.completed_at = w.completed_at;
      fw.partial = w.partial;
      fw.detected = SortedKeys(w.detected);
      out.per_switch[i].push_back(std::move(fw));
    }
  }
  out.has_final = final;
  if (final) {
    out.delivered = r.delivered;
    out.link_dropped = r.link_dropped;
    out.report_dropped = r.report_dropped;
    out.links = r.links;
  }
  return out;
}

void DumpRun(const FlatRun& run, const std::string& path) {
  SnapshotWriter w;
  w.Bool(run.has_final);
  w.Size(run.per_switch.size());
  for (const auto& windows : run.per_switch) {
    w.Size(windows.size());
    for (const FlatWindow& fw : windows) {
      w.U32(fw.first);
      w.U32(fw.last);
      w.I64(fw.completed_at);
      w.Bool(fw.partial);
      w.PodVec(fw.detected);
    }
  }
  if (run.has_final) {
    w.U64(run.delivered);
    w.U64(run.link_dropped);
    w.U64(run.report_dropped);
    w.PodVec(run.links);
  }
  w.WriteFile(path);
}

FlatRun ReadRun(const std::string& path) {
  const std::vector<std::uint8_t> bytes = ReadSnapshotFile(path);
  SnapshotReader r(bytes);
  FlatRun run;
  run.has_final = r.Bool();
  run.per_switch.resize(r.Count(8));
  for (auto& windows : run.per_switch) {
    windows.resize(r.Count(4 + 4 + 8 + 1 + 8));
    for (FlatWindow& fw : windows) {
      fw.first = r.U32();
      fw.last = r.U32();
      fw.completed_at = r.I64();
      fw.partial = r.Bool();
      r.PodVec(fw.detected);
    }
  }
  if (run.has_final) {
    run.delivered = r.U64();
    run.link_dropped = r.U64();
    run.report_dropped = r.U64();
    r.PodVec(run.links);
  }
  return run;
}

/// Splice the per-segment streams (restore clears pre-restore windows, so
/// concatenation in segment order is exact) and compare against the
/// reference. Returns a human-readable mismatch description, empty = ok.
std::string CompareSplice(const FlatRun& ref,
                          const std::vector<FlatRun>& segments) {
  FlatRun spliced;
  spliced.per_switch.resize(ref.per_switch.size());
  for (const FlatRun& seg : segments) {
    if (seg.per_switch.size() != ref.per_switch.size()) {
      return "switch count mismatch in a segment dump";
    }
    for (std::size_t i = 0; i < seg.per_switch.size(); ++i) {
      spliced.per_switch[i].insert(spliced.per_switch[i].end(),
                                   seg.per_switch[i].begin(),
                                   seg.per_switch[i].end());
    }
    if (seg.has_final) {
      spliced.has_final = true;
      spliced.delivered = seg.delivered;
      spliced.link_dropped = seg.link_dropped;
      spliced.report_dropped = seg.report_dropped;
      spliced.links = seg.links;
    }
  }
  for (std::size_t i = 0; i < ref.per_switch.size(); ++i) {
    if (spliced.per_switch[i].size() != ref.per_switch[i].size()) {
      return "switch " + std::to_string(i) + ": " +
             std::to_string(spliced.per_switch[i].size()) +
             " spliced windows vs " +
             std::to_string(ref.per_switch[i].size()) + " reference";
    }
    for (std::size_t k = 0; k < ref.per_switch[i].size(); ++k) {
      if (!(spliced.per_switch[i][k] == ref.per_switch[i][k])) {
        return "switch " + std::to_string(i) + " window " +
               std::to_string(k) + " diverges";
      }
    }
  }
  if (!spliced.has_final) return "no final segment dump";
  if (spliced.delivered != ref.delivered) return "delivered totals diverge";
  if (spliced.link_dropped != ref.link_dropped ||
      spliced.report_dropped != ref.report_dropped) {
    return "drop totals diverge";
  }
  if (spliced.links.size() != ref.links.size()) {
    return "per-link counters diverge";
  }
  // Field-wise, not memcmp: FabricLinkStats has padding bytes.
  for (std::size_t i = 0; i < ref.links.size(); ++i) {
    const FabricLinkStats& a = spliced.links[i];
    const FabricLinkStats& b = ref.links[i];
    if (a.from != b.from || a.to != b.to || a.port != b.port ||
        a.transmitted != b.transmitted || a.dropped != b.dropped ||
        a.duplicates != b.duplicates) {
      return "per-link counters diverge at link " + std::to_string(i);
    }
  }
  return "";
}

std::uint64_t WallNs() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

std::size_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? std::size_t(in.tellg()) : 0;
}

/// Child mode: one process lifetime. Restore the previous checkpoint (if
/// any), drive [from, to] boundaries, checkpoint to disk (unless final)
/// and dump the windows this lifetime emitted.
int RunChild(int argc, char** argv) {
  const double pps = ArgD(argc, argv, "--pps", 8'000);
  const std::size_t to = std::size_t(ArgD(argc, argv, "--to", 0));
  const std::string restore = ArgS(argc, argv, "--restore", "");
  const std::string ckpt = ArgS(argc, argv, "--ckpt", "");
  const std::string dump = ArgS(argc, argv, "--dump", "");
  const bool final = HasArg(argc, argv, "--finish");

  const Trace trace = MakeTrace(pps);
  FabricSession session(trace, MakeApp, BaseConfig(), Detect);
  if (!restore.empty()) session.RestoreFromFile(restore);
  for (std::size_t k = std::size_t(ArgD(argc, argv, "--from", 0)) + 1;
       k <= to; ++k) {
    session.DriveUntil(Nanos(k) * kSub);
  }
  if (final) {
    DumpRun(FlattenResult(session.Finish(), true), dump);
  } else {
    session.SnapshotToFile(ckpt);
    DumpRun(FlattenResult(session.partial_result(), false), dump);
  }
  return 0;
}

struct ResultRow {
  std::size_t segments = 0;
  std::size_t checkpoints = 0;
  double snapshot_bytes = 0;  ///< avg checkpoint payload bytes
  std::size_t provisioned_table_bytes = 0;  ///< sum of capacity x slot size
  double capacity_reduction = 0;  ///< provisioned_table_bytes / snapshot_bytes
  std::size_t checkpoint_file_bytes = 0;  ///< first durable file, framed
  double write_mbps = 0;
  double ref_wall_ms = 0;
  double splice_wall_ms = 0;
  double restart_overhead = 0;  ///< splice wall / reference wall
  bool splice_identical = false;
  std::size_t corrupt_trials = 0;
  std::size_t corrupt_caught = 0;
};

bool WriteJson(const std::string& path, const Trace& trace,
               const ResultRow& r) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"bench\": \"lifetime\",\n";
  out << "  \"trace\": {\"name\": \"GenerateBackground(" << kSeed
      << ")\", \"packets\": " << trace.packets.size()
      << ", \"duration_ms\": " << kDuration / kMilli << "},\n";
  out << "  \"host_cpus\": " << std::thread::hardware_concurrency() << ",\n";
  out << "  \"checkpoint_cadence_boundaries\": " << kCadence << ",\n";
  out << "  \"results\": [\n";
  char buf[160];
  out << "    {\"workload\": \"lifetime\""
      << ", \"segments\": " << r.segments
      << ", \"checkpoints\": " << r.checkpoints;
  std::snprintf(buf, sizeof(buf),
                ", \"snapshot_bytes\": %.0f"
                ", \"provisioned_table_bytes\": %zu"
                ", \"capacity_reduction\": %.2f"
                ", \"checkpoint_file_bytes\": %zu",
                r.snapshot_bytes, r.provisioned_table_bytes,
                r.capacity_reduction, r.checkpoint_file_bytes);
  out << buf;
  std::snprintf(buf, sizeof(buf),
                ", \"write_MBps\": %.1f, \"ref_wall_ms\": %.1f"
                ", \"splice_wall_ms\": %.1f, \"restart_overhead\": %.2f",
                r.write_mbps, r.ref_wall_ms, r.splice_wall_ms,
                r.restart_overhead);
  out << buf << ", \"splice_identical\": "
      << (r.splice_identical ? "true" : "false")
      << ", \"corrupt_trials\": " << r.corrupt_trials
      << ", \"corrupt_caught\": " << r.corrupt_caught << "}\n";
  out << "  ]\n}\n";
  return bool(out);
}

/// Bit-flip and truncate a durable checkpoint at spread offsets: every
/// corruption must throw SnapshotError out of the framed read (or, for the
/// header region the CRC index cannot localize, out of the decoder).
void CorruptSweep(const std::string& ckpt_path, ResultRow& row) {
  std::ifstream in(ckpt_path, std::ios::binary);
  std::vector<char> file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::string tmp = ckpt_path + ".corrupt";
  auto expect_throw = [&](const std::vector<char>& bytes) {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), std::streamsize(bytes.size()));
    out.close();
    ++row.corrupt_trials;
    try {
      ReadSnapshotFile(tmp);
    } catch (const SnapshotError&) {
      ++row.corrupt_caught;
    }
  };
  constexpr std::size_t kFlips = 64;
  for (std::size_t i = 0; i < kFlips; ++i) {
    std::vector<char> flipped = file;
    const std::size_t at = (i * file.size()) / kFlips;
    flipped[at] = char(flipped[at] ^ (1 << (i % 8)));
    expect_throw(flipped);
  }
  for (const double frac : {0.0, 0.1, 0.5, 0.9, 0.999}) {
    std::vector<char> cut = file;
    cut.resize(std::size_t(double(file.size()) * frac));
    expect_throw(cut);
  }
  std::remove(tmp.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (HasArg(argc, argv, "--child")) return RunChild(argc, argv);

  const double pps = ArgD(argc, argv, "--pps", 8'000);
  const std::string out_path =
      bench::OutPathFromArgs(argc, argv, "BENCH_lifetime.json");
  const Trace trace = MakeTrace(pps);

  // Segment boundaries: a checkpoint every kCadence boundaries, final
  // segment runs to the sentinel and finishes.
  std::vector<std::size_t> cuts;
  for (std::size_t k = kCadence; k + 1 < kTotal; k += kCadence) {
    cuts.push_back(k);
  }
  std::printf(
      "Exp#14: process-lifetime splice — %zu packets, %lld ms, %zu "
      "boundaries, checkpoint every %zu (%zu process segments)\n\n",
      trace.packets.size(), (long long)(kDuration / kMilli), kTotal, kCadence,
      cuts.size() + 1);

  ResultRow row;
  row.segments = cuts.size() + 1;

  // Uninterrupted reference, sampling checkpoint bytes at every would-be
  // checkpoint boundary.
  const std::uint64_t ref_start = WallNs();
  FabricSession ref_session(trace, MakeApp, BaseConfig(), Detect);
  for (std::size_t i = 0; i < ref_session.num_switches(); ++i) {
    row.provisioned_table_bytes +=
        ref_session.controller(i).table().capacity() * sizeof(KvSlot);
  }
  double total_bytes = 0;
  std::size_t next_cut = 0;
  for (std::size_t k = 1; k < kTotal; ++k) {
    ref_session.DriveUntil(Nanos(k) * kSub);
    if (next_cut < cuts.size() && k == cuts[next_cut]) {
      total_bytes += double(ref_session.Snapshot().size());
      ++next_cut;
      ++row.checkpoints;
    }
  }
  const FlatRun ref = FlattenResult(ref_session.Finish(), true);
  row.ref_wall_ms = double(WallNs() - ref_start) / 1e6;
  row.snapshot_bytes = total_bytes / double(row.checkpoints);
  row.capacity_reduction =
      double(row.provisioned_table_bytes) / row.snapshot_bytes;

  // Segmented run: each lifetime is a real child process.
  const std::string tag = "exp14";
  const std::uint64_t splice_start = WallNs();
  std::vector<FlatRun> segments;
  bool spawn_ok = true;
  for (std::size_t s = 0; s <= cuts.size(); ++s) {
    const std::size_t from = s == 0 ? 0 : cuts[s - 1];
    const bool final = s == cuts.size();
    const std::size_t to = final ? kTotal : cuts[s];
    const std::string ckpt = tag + "_ck" + std::to_string(s) + ".owsnap";
    const std::string dump = tag + "_seg" + std::to_string(s) + ".bin";
    std::string cmd = std::string(argv[0]) + " --child --pps=" +
                      std::to_string(pps) + " --from=" + std::to_string(from) +
                      " --to=" + std::to_string(to) + " --dump=" + dump;
    if (s > 0) {
      cmd += " --restore=" + tag + "_ck" + std::to_string(s - 1) + ".owsnap";
    }
    if (final) {
      cmd += " --finish";
    } else {
      cmd += " --ckpt=" + ckpt;
    }
    if (std::system(cmd.c_str()) != 0) {
      std::printf("FAIL: child segment %zu exited non-zero\n", s);
      spawn_ok = false;
      break;
    }
    segments.push_back(ReadRun(dump));
  }
  row.splice_wall_ms = double(WallNs() - splice_start) / 1e6;
  row.restart_overhead =
      row.ref_wall_ms > 0 ? row.splice_wall_ms / row.ref_wall_ms : 0;

  bool ok = spawn_ok;
  if (spawn_ok) {
    const std::string mismatch = CompareSplice(ref, segments);
    row.splice_identical = mismatch.empty();
    if (!row.splice_identical) {
      std::printf("FAIL: splice diverges: %s\n", mismatch.c_str());
      ok = false;
    }
  }

  // Durable-file metrics + corruption sweep on the first checkpoint.
  const std::string first_ck = tag + "_ck0.owsnap";
  row.checkpoint_file_bytes = FileBytes(first_ck);
  {
    // Only SnapshotToFile is timed: building and restoring the probe
    // session is not part of the write.
    FabricSession probe(trace, MakeApp, BaseConfig(), Detect);
    probe.RestoreFromFile(first_ck);
    const std::string wtmp = tag + "_wprobe.owsnap";
    const std::uint64_t w0 = WallNs();
    probe.SnapshotToFile(wtmp);
    const std::uint64_t w1 = WallNs();
    row.write_mbps = double(FileBytes(wtmp)) / 1e6 / (double(w1 - w0) / 1e9);
    std::remove(wtmp.c_str());
  }
  CorruptSweep(first_ck, row);
  if (row.corrupt_caught != row.corrupt_trials) {
    std::printf("FAIL: %zu/%zu corruptions loaded without SnapshotError\n",
                row.corrupt_trials - row.corrupt_caught, row.corrupt_trials);
    ok = false;
  }
  if (row.capacity_reduction < 10.0) {
    std::printf("FAIL: capacity reduction %.2fx below the 10x bar\n",
                row.capacity_reduction);
    ok = false;
  }

  for (std::size_t s = 0; s <= cuts.size(); ++s) {
    std::remove((tag + "_ck" + std::to_string(s) + ".owsnap").c_str());
    std::remove((tag + "_seg" + std::to_string(s) + ".bin").c_str());
  }

  std::printf(
      "segments=%zu ckpt=%6.0fKB provisioned=%7.0fKB (%.1fx)  file=%zuB "
      "write=%.0fMB/s  ref=%.0fms splice=%.0fms (%.2fx)  corrupt=%zu/%zu  "
      "%s\n",
      row.segments, row.snapshot_bytes / 1e3,
      double(row.provisioned_table_bytes) / 1e3, row.capacity_reduction,
      row.checkpoint_file_bytes, row.write_mbps,
      row.ref_wall_ms, row.splice_wall_ms, row.restart_overhead,
      row.corrupt_caught, row.corrupt_trials,
      row.splice_identical ? "splice-identical" : "SPLICE DIVERGED");

  if (WriteJson(out_path, trace, row)) {
    std::printf("\nwrote %s\n", out_path.c_str());
  } else {
    std::printf("\nFAILED to write %s\n", out_path.c_str());
    return 2;
  }
  return ok ? 0 : 1;
}
