// Exp#7 (Figure 12): time of AFR aggregation — sum and max reductions,
// scalar vs SIMD (vectorized) merge kernels.
//
// These are REAL CPU measurements (google-benchmark) of the controller's
// batch merge path. The paper reports 502 us (sum) / 728 us (max) scalar
// over 1 M flows, reduced 75–81% with AVX-512. Two batch sizes are swept:
// 64 K flows (cache-resident — compute-bound, where vectorization shines)
// and 1 M flows (streaming — partially memory-bandwidth-bound, so the SIMD
// advantage narrows; the paper's testbed had more memory bandwidth per
// core). The shape to reproduce: both reductions finish orders of magnitude
// below a 100 ms sub-window, and the vectorized kernel wins.
// A third subject extends the figure: the controller's full batch merge
// (MergeBatch: insert + fold). Items/s is AFR records merged per second
// (bench/perf_merge.cpp emits the JSON baseline CI gates).
#include <benchmark/benchmark.h>

#include <vector>

#include "src/common/hash.h"
#include "src/controller/merge.h"

namespace {

using namespace ow;

std::vector<std::uint64_t> MakeValues(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint64_t> v(n);
  std::uint64_t s = seed;
  for (auto& x : v) {
    s = Mix64(s + 1);
    x = s % 10'000;
  }
  return v;
}

template <typename Kernel>
void RunKernel(benchmark::State& state, Kernel&& kernel, std::uint64_t seed) {
  const std::size_t n = std::size_t(state.range(0));
  auto acc = MakeValues(n, seed);
  const auto vals = MakeValues(n, seed + 1);
  for (auto _ : state) {
    kernel(std::span<std::uint64_t>(acc),
           std::span<const std::uint64_t>(vals));
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(n));
}

void BM_SumScalar(benchmark::State& state) {
  RunKernel(state, BatchSumScalar, 1);
}
void BM_SumSimd(benchmark::State& state) { RunKernel(state, BatchSumSimd, 1); }
void BM_MaxScalar(benchmark::State& state) {
  RunKernel(state, BatchMaxScalar, 3);
}
void BM_MaxSimd(benchmark::State& state) { RunKernel(state, BatchMaxSimd, 3); }

// The controller merge (batch = one sub-window's AFR flood, 64 K records
// over 48 K keys — enough duplication to exercise both the insert and the
// fold path).
void BM_Merge(benchmark::State& state) {
  constexpr std::size_t kRecords = 64 * 1024;
  constexpr std::size_t kKeys = 48 * 1024;
  std::vector<FlowRecord> batch;
  batch.reserve(kRecords);
  std::uint64_t s = 7;
  for (std::size_t i = 0; i < kRecords; ++i) {
    s = Mix64(s + 1);
    FlowRecord rec;
    rec.key = FlowKey(FlowKeyKind::kFiveTuple,
                      FiveTuple{std::uint32_t(s % kKeys), 2, 3, 4, 17});
    rec.attrs[0] = s % 1000;
    rec.attrs[1] = s % 1500;
    rec.num_attrs = 2;
    rec.seq_id = std::uint32_t(i);
    batch.push_back(rec);
  }
  MergeScratch scratch;
  for (auto _ : state) {
    state.PauseTiming();
    KeyValueTable table(1 << 17);
    state.ResumeTiming();
    MergeBatch(MergeKind::kFrequency, batch, table, scratch);
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(kRecords));
}

constexpr std::int64_t kCacheResident = 64 * 1024;
constexpr std::int64_t kPaperScale = 1'000'000;

BENCHMARK(BM_SumScalar)
    ->Arg(kCacheResident)
    ->Arg(kPaperScale)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SumSimd)
    ->Arg(kCacheResident)
    ->Arg(kPaperScale)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MaxScalar)
    ->Arg(kCacheResident)
    ->Arg(kPaperScale)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MaxSimd)
    ->Arg(kCacheResident)
    ->Arg(kPaperScale)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Merge)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
