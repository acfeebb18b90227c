// owtrace — trace generation and inspection CLI.
//
//   owtrace generate <out.owtr> [seed] [duration_ms] [pps] [flows]
//       Build the standard evaluation trace (background + all anomalies)
//       and save it in the binary trace format.
//   owtrace info <trace.owtr>
//       Print summary statistics: packets, duration, flows, top talkers,
//       protocol mix.
//   owtrace csv <trace.owtr> <out.csv> | owtrace fromcsv <in.csv> <out.owtr>
//       Convert between the binary format and CSV for external tooling.
//
// Every command accepts `--obs-out=<prefix>`: spans are traced for the
// command body and <prefix>.stats.json + <prefix>.trace.json are written at
// exit (docs/observability.md).
//
// Useful for caching a deterministic workload across bench runs and for
// feeding identical traffic to external tools.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "src/common/metrics.h"
#include "src/obs/obs.h"
#include "src/trace/generator.h"
#include "src/trace/trace_io.h"

namespace {

using namespace ow;

int Generate(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: owtrace generate <out.owtr> [seed] [duration_ms] "
                 "[pps] [flows]\n");
    return 2;
  }
  TraceConfig cfg;
  cfg.seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;
  cfg.duration =
      (argc > 4 ? std::strtoll(argv[4], nullptr, 10) : 2'000) * kMilli;
  cfg.packets_per_sec = argc > 5 ? std::strtod(argv[5], nullptr) : 60'000;
  cfg.num_flows =
      argc > 6 ? std::strtoull(argv[6], nullptr, 10) : std::size_t(8'000);

  TraceGenerator gen(cfg);
  const Trace trace = gen.GenerateEvaluationTrace();
  SaveTrace(trace, argv[2]);
  std::printf("wrote %zu packets (%lld ms, seed %llu) to %s\n",
              trace.packets.size(), (long long)(trace.Duration() / kMilli),
              (unsigned long long)cfg.seed, argv[2]);
  std::printf("injected anomalies:\n");
  for (const auto& a : gen.injected()) {
    std::printf("  %-18s %-32s [%lld ms, %lld ms) %zu pkts\n", a.kind.c_str(),
                a.victim_or_actor.ToString().c_str(),
                (long long)(a.start / kMilli), (long long)(a.end / kMilli),
                a.packets);
  }
  return 0;
}

int Info(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: owtrace info <trace.owtr>\n");
    return 2;
  }
  const Trace trace = LoadTrace(argv[2]);
  FlowCounts flows;
  std::unordered_set<std::uint32_t> srcs, dsts;
  std::uint64_t tcp = 0, udp = 0, bytes = 0;
  for (const Packet& p : trace.packets) {
    ++flows[p.Key(FlowKeyKind::kFiveTuple)];
    srcs.insert(p.ft.src_ip);
    dsts.insert(p.ft.dst_ip);
    bytes += p.size_bytes;
    (p.ft.proto == 6 ? tcp : udp) += 1;
  }
  std::printf("packets: %zu\n", trace.packets.size());
  std::printf("duration: %lld ms\n", (long long)(trace.Duration() / kMilli));
  std::printf("bytes: %llu (avg %.1f B/pkt)\n", (unsigned long long)bytes,
              trace.packets.empty()
                  ? 0.0
                  : double(bytes) / double(trace.packets.size()));
  std::printf("flows: %zu (%zu src hosts, %zu dst hosts)\n", flows.size(),
              srcs.size(), dsts.size());
  std::printf("protocol mix: %.1f%% tcp / %.1f%% udp-other\n",
              100.0 * double(tcp) / double(trace.packets.size()),
              100.0 * double(udp) / double(trace.packets.size()));

  std::vector<std::pair<FlowKey, std::uint64_t>> top(flows.begin(),
                                                     flows.end());
  std::partial_sort(
      top.begin(), top.begin() + std::min<std::size_t>(5, top.size()),
      top.end(), [](const auto& a, const auto& b) { return a.second > b.second; });
  std::printf("top flows:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, top.size()); ++i) {
    std::printf("  %8llu pkts  %s\n", (unsigned long long)top[i].second,
                top[i].first.ToString().c_str());
  }
  return 0;
}

}  // namespace

namespace {

int Dispatch(int argc, char** argv) {
  if (std::strcmp(argv[1], "generate") == 0) {
    obs::ScopedSpan span(obs::Global(), "owtrace.generate");
    return Generate(argc, argv);
  }
  if (std::strcmp(argv[1], "info") == 0) {
    obs::ScopedSpan span(obs::Global(), "owtrace.info");
    return Info(argc, argv);
  }
  if (std::strcmp(argv[1], "csv") == 0) {
    if (argc < 4) {
      std::fprintf(stderr, "usage: owtrace csv <trace.owtr> <out.csv>\n");
      return 2;
    }
    obs::ScopedSpan span(obs::Global(), "owtrace.csv");
    ExportTraceCsv(LoadTrace(argv[2]), argv[3]);
    std::printf("wrote %s\n", argv[3]);
    return 0;
  }
  if (std::strcmp(argv[1], "fromcsv") == 0) {
    if (argc < 4) {
      std::fprintf(stderr,
                   "usage: owtrace fromcsv <in.csv> <out.owtr>\n");
      return 2;
    }
    obs::ScopedSpan span(obs::Global(), "owtrace.fromcsv");
    SaveTrace(ImportTraceCsv(argv[2]), argv[3]);
    std::printf("wrote %s\n", argv[3]);
    return 0;
  }
  std::fprintf(stderr, "owtrace: unknown command '%s'\n", argv[1]);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off --obs-out=<prefix> (position-independent) before dispatching.
  std::string obs_out;
  int n = 1;
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kFlag = "--obs-out=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      obs_out = argv[i] + std::strlen(kFlag);
    } else {
      argv[n++] = argv[i];
    }
  }
  argc = n;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: owtrace <generate|info|csv|fromcsv> ... "
                 "[--obs-out=<prefix>]\n");
    return 2;
  }
  if (!obs_out.empty()) obs::Global().SetTracing(true);
  int rc = 1;
  try {
    rc = Dispatch(argc, argv);
  } catch (const std::exception& e) {
    // A malformed input file (a field that does not fit its type, a
    // truncated record) is refused with its loader's message.
    std::fprintf(stderr, "owtrace: %s\n", e.what());
  }
  if (!obs_out.empty() && !obs::Global().DumpToFiles(obs_out)) {
    std::fprintf(stderr, "failed to write obs dump to %s.*\n",
                 obs_out.c_str());
    return rc ? rc : 1;
  }
  return rc;
}
