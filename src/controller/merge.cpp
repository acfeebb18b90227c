#include "src/controller/merge.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "src/common/hash.h"
#include "src/obs/obs.h"

namespace ow {

void ApplyMerge(MergeKind kind, KvSlot& slot, bool created,
                const FlowRecord& rec) {
  if (created) {
    slot.attrs = rec.attrs;
    slot.num_attrs = rec.num_attrs;
    slot.last_subwindow = rec.subwindow;
    if (kind == MergeKind::kExistence) {
      slot.attrs[0] = 1;
      slot.num_attrs = std::max<std::uint8_t>(slot.num_attrs, 1);
    }
    return;
  }
  slot.last_subwindow = std::max(slot.last_subwindow, rec.subwindow);
  switch (kind) {
    case MergeKind::kFrequency:
      for (std::size_t i = 0; i < rec.num_attrs; ++i) {
        slot.attrs[i] += rec.attrs[i];
      }
      break;
    case MergeKind::kExistence:
      slot.attrs[0] = 1;
      break;
    case MergeKind::kMax:
      for (std::size_t i = 0; i < rec.num_attrs; ++i) {
        slot.attrs[i] = std::max(slot.attrs[i], rec.attrs[i]);
      }
      break;
    case MergeKind::kMin:
      for (std::size_t i = 0; i < rec.num_attrs; ++i) {
        slot.attrs[i] = std::min(slot.attrs[i], rec.attrs[i]);
      }
      break;
    case MergeKind::kDistinction: {
      Signature256 merged = {slot.attrs[0], slot.attrs[1], slot.attrs[2],
                             slot.attrs[3]};
      MergeSpreadSignature(merged, {rec.attrs[0], rec.attrs[1], rec.attrs[2],
                                    rec.attrs[3]});
      slot.attrs = merged;
      slot.num_attrs = 4;
      break;
    }
    case MergeKind::kXorSum:
      slot.attrs[0] += rec.attrs[0];
      for (std::size_t i = 1; i < 4; ++i) slot.attrs[i] ^= rec.attrs[i];
      slot.num_attrs = 4;
      break;
  }
}

// --------------------------------------------------------------- batch merge

namespace {

Nanos WallNow() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The span-free half of MergeBatch: a live RAII span frame across the
/// per-record loops pessimizes their codegen (docs/observability.md).
MergeTiming MergeBatchHot(MergeKind kind, std::span<const FlowRecord> records,
                          KeyValueTable& table, MergeScratch& scratch) {
  scratch.clear();
  scratch.reserve(records.size());
  const Nanos t0 = WallNow();
  for (const FlowRecord& rec : records) {
    bool created = false;
    KvSlot* slot = table.TryFindOrInsert(rec.key, created);
    scratch.emplace_back(slot, created);
  }
  const Nanos t1 = WallNow();
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (KvSlot* slot = scratch[i].first) {
      ApplyMerge(kind, *slot, scratch[i].second, records[i]);
    }
  }
  return {t1 - t0, WallNow() - t1};
}

}  // namespace

MergeTiming MergeBatch(MergeKind kind, std::span<const FlowRecord> records,
                       KeyValueTable& table, MergeScratch& scratch) {
  if (obs::Global().tracing()) {
    obs::ScopedSpan span(obs::Global(), "merge.batch");
    return MergeBatchHot(kind, records, table, scratch);
  }
  return MergeBatchHot(kind, records, table, scratch);
}

// ------------------------------------------------------------- batch kernels

#if defined(__GNUC__) && !defined(__clang__)
#define OW_NO_VECTORIZE __attribute__((optimize("no-tree-vectorize")))
#else
#define OW_NO_VECTORIZE
#endif

#if defined(__x86_64__) && defined(__GNUC__)
#define OW_HAVE_AVX2_KERNELS 1
#include <immintrin.h>
#endif

namespace {

#ifdef OW_HAVE_AVX2_KERNELS

/// Runtime feature gate, resolved once per process.
bool HasAvx2() noexcept {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
}

__attribute__((target("avx2"))) void SumAvx2(std::uint64_t* a,
                                             const std::uint64_t* v,
                                             std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + i),
                        _mm256_add_epi64(va, vv));
  }
  for (; i < n; ++i) a[i] += v[i];
}

__attribute__((target("avx2"))) void MaxAvx2(std::uint64_t* a,
                                             const std::uint64_t* v,
                                             std::size_t n) {
  // AVX2 has no unsigned 64-bit compare; bias both operands by 2^63 and use
  // the signed compare (monotone under the shift), then blend the winners.
  const __m256i bias = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ull));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    const __m256i v_gt_a = _mm256_cmpgt_epi64(_mm256_xor_si256(vv, bias),
                                              _mm256_xor_si256(va, bias));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + i),
                        _mm256_blendv_epi8(va, vv, v_gt_a));
  }
  for (; i < n; ++i) {
    if (v[i] > a[i]) a[i] = v[i];
  }
}

#endif  // OW_HAVE_AVX2_KERNELS

/// Portable fallback, written for the auto-vectorizer (non-x86 hosts, and
/// x86 CPUs without AVX2).
void SumPortable(std::uint64_t* __restrict a, const std::uint64_t* __restrict v,
                 std::size_t n) {
#pragma GCC ivdep
  for (std::size_t i = 0; i < n; ++i) {
    a[i] += v[i];
  }
}

void MaxPortable(std::uint64_t* __restrict a, const std::uint64_t* __restrict v,
                 std::size_t n) {
#pragma GCC ivdep
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = a[i] > v[i] ? a[i] : v[i];
  }
}

}  // namespace

OW_NO_VECTORIZE
void BatchSumScalar(std::span<std::uint64_t> acc,
                    std::span<const std::uint64_t> vals) {
  if (acc.size() != vals.size()) {
    throw std::invalid_argument("BatchSumScalar: size mismatch");
  }
  for (std::size_t i = 0; i < acc.size(); ++i) {
    acc[i] += vals[i];
  }
}

void BatchSumSimd(std::span<std::uint64_t> acc,
                  std::span<const std::uint64_t> vals) {
  if (acc.size() != vals.size()) {
    throw std::invalid_argument("BatchSumSimd: size mismatch");
  }
#ifdef OW_HAVE_AVX2_KERNELS
  if (HasAvx2()) {
    SumAvx2(acc.data(), vals.data(), acc.size());
    return;
  }
#endif
  SumPortable(acc.data(), vals.data(), acc.size());
}

OW_NO_VECTORIZE
void BatchMaxScalar(std::span<std::uint64_t> acc,
                    std::span<const std::uint64_t> vals) {
  if (acc.size() != vals.size()) {
    throw std::invalid_argument("BatchMaxScalar: size mismatch");
  }
  for (std::size_t i = 0; i < acc.size(); ++i) {
    if (vals[i] > acc[i]) acc[i] = vals[i];
  }
}

void BatchMaxSimd(std::span<std::uint64_t> acc,
                  std::span<const std::uint64_t> vals) {
  if (acc.size() != vals.size()) {
    throw std::invalid_argument("BatchMaxSimd: size mismatch");
  }
#ifdef OW_HAVE_AVX2_KERNELS
  if (HasAvx2()) {
    MaxAvx2(acc.data(), vals.data(), acc.size());
    return;
  }
#endif
  MaxPortable(acc.data(), vals.data(), acc.size());
}

}  // namespace ow
