// Controller merge throughput.
//
// Reconstructs the per-sub-window AFR batches a controller would collect
// from the standard evaluation trace (one frequency record per flow per
// sub-window) and replays them through MergeBatch, reporting wall ns per
// record and records/s. Results go to BENCH_merge.json (override with
// argv[1]); CI's bench-gate and alloc-gate jobs compare it with
// bench/results/BENCH_merge.json.
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/harness.h"
#include "src/common/alloc_trace.h"
#include "src/controller/merge.h"

namespace {

using namespace ow;
using namespace ow::bench;

using Batches = std::vector<std::vector<FlowRecord>>;

/// Per-sub-window frequency AFRs (count + bytes) for every flow of the
/// trace — the batch shape OnPacket hands to FinalizeSubWindow.
Batches MakeAfrBatches(const Trace& trace, Nanos subwindow_size) {
  std::map<SubWindowNum, std::unordered_map<FlowKey, FlowRecord, FlowKeyHasher>>
      per_sw;
  for (const Packet& p : trace.packets) {
    const SubWindowNum sw = SubWindowNum(p.ts / subwindow_size);
    FlowRecord& rec = per_sw[sw][p.Key(FlowKeyKind::kFiveTuple)];
    rec.key = p.Key(FlowKeyKind::kFiveTuple);
    rec.attrs[0] += 1;
    rec.attrs[1] += p.size_bytes;
    rec.num_attrs = 2;
    rec.subwindow = sw;
  }
  Batches batches;
  for (auto& [sw, flows] : per_sw) {
    std::vector<FlowRecord> batch;
    batch.reserve(flows.size());
    std::uint32_t seq = 0;
    for (auto& [key, rec] : flows) {
      rec.seq_id = seq++;
      batch.push_back(rec);
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_merge.json";
  const EvalParams params;
  const Trace trace = MakeEvalTrace(/*seed=*/4004);
  const Batches batches = MakeAfrBatches(trace, params.subwindow_size);
  std::size_t total_records = 0;
  for (const auto& b : batches) total_records += b.size();
  std::printf(
      "perf_merge: %zu packets -> %zu AFRs across %zu sub-windows\n",
      trace.packets.size(), total_records, batches.size());

  constexpr int kRounds = 20;
  MergeScratch scratch;
  double wall_ns = 0;
  std::uint64_t allocs = 0;
  for (int round = -1; round < kRounds; ++round) {  // round -1 warms up
    KeyValueTable table(1 << 17);
    for (const auto& batch : batches) {
      const alloc_trace::Scope trace_scope;
      const auto t0 = std::chrono::steady_clock::now();
      MergeBatch(MergeKind::kFrequency, batch, table, scratch);
      const auto t1 = std::chrono::steady_clock::now();
      if (round >= 0) {
        wall_ns += double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              t1 - t0)
                              .count());
        allocs += trace_scope.news();
      }
    }
  }
  const double n = double(total_records) * kRounds;
  const double ns_per_record = wall_ns / n;
  // Heap allocations inside the timed MergeBatch calls per record
  // (OW_ALLOC_TRACE builds only). Steady-state target: 0.
  const bool traced = alloc_trace::Enabled();
  const double allocs_per_record = double(allocs) / n;
  std::printf("  wall %7.1f ns/rec (%6.2f Mrec/s)", ns_per_record,
              1e3 / ns_per_record);
  if (traced) std::printf("  %.4f allocs/rec", allocs_per_record);
  std::printf("\n");

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (!f) {
    std::perror("perf_merge: fopen");
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"controller_merge\",\n");
  std::fprintf(f,
               "  \"trace\": {\"name\": \"MakeEvalTrace(4004)\", "
               "\"packets\": %zu, \"afrs\": %zu, \"subwindows\": %zu},\n",
               trace.packets.size(), total_records, batches.size());
  std::fprintf(f, "  \"rounds\": %d,\n", kRounds);
  std::fprintf(f, "  \"host_cpus\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"results\": [\n");
  std::fprintf(f,
               "    {\"workload\": \"frequency\", "
               "\"wall_ns_per_record\": %.1f, \"wall_records_per_sec\": %.0f",
               ns_per_record, 1e9 / ns_per_record);
  if (traced) {
    std::fprintf(f, ", \"allocs_per_record\": %.4f", allocs_per_record);
  }
  std::fprintf(f, "}\n  ]\n}\n");
  std::fclose(f);
  std::printf("  wrote %s\n", json_path.c_str());
  return 0;
}
