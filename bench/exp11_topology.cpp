// Exp#11: OmniWindow on arbitrary fabrics — scale sweep and hop-by-hop
// loss localization fidelity.
//
// Part A replays one trace through fabrics of growing size (line,
// leaf-spine) with a per-switch app + controller each, and reports the
// simulation cost and the per-link load the deterministic ECMP produced.
//
// Part B arms a drop fault on ONE leaf-spine link and localizes it from the
// per-switch consistent windows alone (per-link flow conservation,
// LocalizeFlowLoss). The sweep varies the measurement instrument: an exact
// per-flow counter, then QueryAdapter at shrinking cell counts. The exact
// instrument charges every lost packet to the armed link and nothing
// anywhere else; hash-cell collisions (the paper's residual-error model for
// Sonata-style operators) appear as phantom loss on unarmed links as the
// table tightens — localization inherits the app's error, the window
// mechanism adds none of its own.
//
// Part C times the fabric engine (docs/network_topologies.md) over three
// leaf-spine sizes, one row per fabric, and emits BENCH_fabric.json
// (override with --out=, round budget with --min-time=) for the regression
// gate in tools/check_bench_regression.py. Every row replays once untimed
// before its timed rounds.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "src/core/network_runner.h"
#include "src/telemetry/exact_count.h"
#include "src/telemetry/network_queries.h"
#include "src/telemetry/query_builder.h"
#include "src/trace/generator.h"

namespace {

using namespace ow;

Trace MakeTrace(std::uint64_t seed) {
  TraceConfig tc;
  tc.seed = seed;
  tc.duration = 400 * kMilli;
  tc.packets_per_sec = 25'000;
  tc.num_flows = 2'500;
  TraceGenerator gen(tc);
  return gen.GenerateBackground();
}

NetworkRunConfig BaseConfig(TopologyConfig topo) {
  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = 100 * kMilli;
  spec.subwindow_size = 50 * kMilli;
  spec.slide = spec.window_size;
  NetworkRunConfig cfg;
  cfg.base = RunConfig::Make(spec);
  cfg.base.controller.kv_capacity = 1 << 16;
  cfg.topology = topo;
  cfg.capture_counts = true;
  cfg.link.latency = 20 * kMicro;
  cfg.link.jitter = 0;
  return cfg;
}

QueryDef CountAllDef() {
  return QueryBuilder("count_all")
      .KeyBy(FlowKeyKind::kFiveTuple)
      .Count()
      .Threshold(1)
      .Build();
}

// ---------------------------------------------------------------------------
// Part A: fabric scale sweep.

void ScaleSweep(const Trace& trace) {
  struct Row {
    const char* name;
    TopologyConfig topo;
  };
  std::vector<Row> rows;
  {
    TopologyConfig t;
    t.kind = TopologyKind::kLine;
    t.line_switches = 4;
    rows.push_back({"line-4", t});
  }
  {
    TopologyConfig t;
    t.kind = TopologyKind::kLeafSpine;
    t.leaves = 2;
    t.spines = 2;
    rows.push_back({"leafspine-2x2", t});
  }
  {
    TopologyConfig t;
    t.kind = TopologyKind::kLeafSpine;
    t.leaves = 4;
    t.spines = 3;
    rows.push_back({"leafspine-4x3", t});
  }

  std::printf("%14s %9s %6s %8s %10s %9s %10s\n", "topology", "switches",
              "links", "windows", "delivered", "wall(ms)", "pkts/s");
  for (const Row& row : rows) {
    NetworkRunConfig cfg = BaseConfig(row.topo);
    const auto t0 = std::chrono::steady_clock::now();
    const NetworkRunResult net = RunOmniWindowFabric(
        trace, [](std::size_t) { return std::make_shared<ExactCountApp>(); },
        cfg);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    std::size_t windows = 0;
    for (const SwitchRun& sw : net.per_switch) windows += sw.windows.size();
    std::printf("%14s %9zu %6zu %8zu %10llu %9.1f %10.0f\n", row.name,
                net.per_switch.size(), net.links.size(), windows,
                (unsigned long long)net.delivered, ms,
                double(trace.packets.size()) / (ms / 1e3));
  }
}

// ---------------------------------------------------------------------------
// Part B: localization fidelity vs measurement instrument.

struct LocalizationOutcome {
  std::uint64_t true_drops = 0;
  std::uint64_t on_armed = 0;
  std::uint64_t elsewhere = 0;
  std::size_t windows = 0;
};

LocalizationOutcome Localize(
    const Trace& trace, const NetworkRunConfig& cfg,
    const std::function<AdapterPtr(std::size_t)>& make_app) {
  const NetworkRunResult net = RunOmniWindowFabric(trace, make_app, cfg);
  const NextHopFn next_hop = MakeTopologyNextHop(cfg.topology);
  LocalizationOutcome out;
  out.true_drops = net.links[std::size_t(cfg.fault_link_index)].dropped;
  const int armed_from = net.links[std::size_t(cfg.fault_link_index)].from;
  const int armed_to = net.links[std::size_t(cfg.fault_link_index)].to;
  for (const auto& [span, counts0] : net.per_switch[0].counts) {
    std::vector<FlowCounts> per_switch{counts0};
    bool complete = true;
    for (std::size_t i = 1; i < net.per_switch.size(); ++i) {
      const auto it = net.per_switch[i].counts.find(span);
      if (it == net.per_switch[i].counts.end()) {
        complete = false;
        break;
      }
      per_switch.push_back(it->second);
    }
    if (!complete) continue;
    ++out.windows;
    for (const LinkLossReport& link : LocalizeFlowLoss(per_switch, next_hop)) {
      if (link.from == armed_from && link.to == armed_to) {
        out.on_armed += link.lost();
      } else {
        out.elsewhere += link.lost();
      }
    }
  }
  return out;
}

void LocalizationSweep(const Trace& trace) {
  TopologyConfig topo;
  topo.kind = TopologyKind::kLeafSpine;
  topo.leaves = 2;
  topo.spines = 2;
  NetworkRunConfig cfg = BaseConfig(topo);
  cfg.base.fault.inner_link.drop_rate = 0.05;
  cfg.fault_link_index = 2;  // spine 2 -> egress leaf 1

  struct Row {
    std::string name;
    std::function<AdapterPtr(std::size_t)> make_app;
  };
  std::vector<Row> rows;
  rows.push_back({"exact", [](std::size_t) {
                    return std::make_shared<ExactCountApp>();
                  }});
  for (const std::size_t cells : {std::size_t(1) << 16, std::size_t(1) << 13,
                                  std::size_t(1) << 11}) {
    rows.push_back({"query-" + std::to_string(cells), [cells](std::size_t) {
                      return std::make_shared<QueryAdapter>(CountAllDef(),
                                                            cells);
                    }});
  }

  std::printf("%14s %10s %10s %10s %8s\n", "instrument", "true", "on-armed",
              "phantom", "windows");
  for (const Row& row : rows) {
    const LocalizationOutcome o = Localize(trace, cfg, row.make_app);
    std::printf("%14s %10llu %10llu %10llu %8zu\n", row.name.c_str(),
                (unsigned long long)o.true_drops,
                (unsigned long long)o.on_armed,
                (unsigned long long)o.elsewhere, o.windows);
  }
}

// ---------------------------------------------------------------------------
// Part C: fabric engine cost by fabric size.

void FabricSweep(const Trace& trace, double min_time,
                 const std::string& out_path) {
  struct Fabric {
    const char* name;
    std::size_t leaves, spines;
  };
  // 64 switches (48 leaves x 16 spines) is the headline point; the smaller
  // fabrics show how the per-packet cost grows with the hop count and the
  // number of switches the engine scans.
  const std::vector<Fabric> fabrics = {
      {"leafspine-4x3", 4, 3},
      {"leafspine-8x8", 8, 8},
      {"leafspine-48x16", 48, 16},
  };
  std::vector<bench::BenchThroughputRow> rows;
  std::printf("%16s %7s %9s %8s %10s\n", "fabric", "rounds", "agg-pkts",
              "ns/pkt", "Mpps");
  for (const Fabric& fab : fabrics) {
    TopologyConfig topo;
    topo.kind = TopologyKind::kLeafSpine;
    topo.leaves = fab.leaves;
    topo.spines = fab.spines;
    NetworkRunConfig cfg = BaseConfig(topo);
    cfg.capture_counts = false;  // bench the engine, not the table copies
    const auto replay = [&] {
      return RunOmniWindowFabric(
          trace, [](std::size_t) { return std::make_shared<ExactCountApp>(); },
          cfg);
    };
    // One untimed round first, so the timed rounds do not pay the
    // first-touch page faults of the per-switch tables (64 x 4 MB at
    // 48x16).
    (void)replay();
    double wall_ns = 0;
    std::uint64_t agg_pkts = 0;  // every packet at every switch it crossed
    int rounds = 0;
    while (rounds < 1 || wall_ns < min_time * 1e9) {
      const auto t0 = std::chrono::steady_clock::now();
      const NetworkRunResult net = replay();
      wall_ns += double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
      agg_pkts = 0;
      for (const SwitchRun& sw : net.per_switch) {
        agg_pkts += sw.data_plane.packets_measured;
      }
      ++rounds;
    }
    bench::BenchThroughputRow row;
    row.workload = fab.name;
    row.items = agg_pkts;
    row.rounds = rounds;
    row.ns_per_item = wall_ns / (double(agg_pkts) * rounds);
    row.items_per_sec = 1e9 / row.ns_per_item;
    std::printf("%16s %7d %9llu %8.1f %10.3f\n", fab.name, rounds,
                (unsigned long long)agg_pkts, row.ns_per_item,
                row.items_per_sec / 1e6);
    rows.push_back(std::move(row));
  }
  char trace_desc[160];
  std::snprintf(trace_desc, sizeof(trace_desc),
                "{\"name\": \"MakeTrace(1101)\", \"packets\": %zu, "
                "\"duration_ms\": 400}",
                trace.packets.size());
  if (bench::WriteThroughputJson(out_path, "fabric", trace_desc,
                                 min_time, "packet", rows)) {
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::printf("FAILED to write %s\n", out_path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double min_time = bench::MinTimeFromArgs(argc, argv, 0.3);
  const std::string out_path =
      bench::OutPathFromArgs(argc, argv, "BENCH_fabric.json");
  const Trace trace = MakeTrace(1101);
  std::printf("Exp#11: OmniWindow on arbitrary fabrics "
              "(%zu packets, 400 ms, per-switch controllers)\n\n",
              trace.packets.size());
  std::printf("-- Part A: fabric scale sweep (exact per-flow app) --\n");
  ScaleSweep(trace);
  std::printf("\n-- Part B: leaf-spine 2x2, 5%% drop armed on spine2->leaf1, "
              "localization by flow conservation --\n");
  LocalizationSweep(trace);
  std::printf("\n(The exact instrument charges every drop to the armed link; "
              "shrinking hash tables add collision phantoms — the residual "
              "error is the app's, not the window mechanism's.)\n");
  std::printf("\n-- Part C: fabric engine cost by leaf-spine size --\n");
  FabricSweep(trace, min_time, out_path);
  return 0;
}
