// AFR merge strategies, the controller's batch merge, and batch kernels.
//
// The controller merges the AFRs of a flowkey across sub-windows according
// to the statistic's algebraic pattern (§4.2): frequency sums, existence
// ORs, max/min picks extrema, and distinction merges distinct-value
// signatures before counting. The distinct-value signature is a 256-bit
// bitmap carried in the AFR's four attribute words — the data-plane query
// folds the sketch's per-flow distinct structure into it, and merging is a
// plain OR (so sub-window merging introduces no double counting, the error
// the AFR abstraction exists to avoid). MergeBatch applies one sub-window's
// AFRs to the controller's flow table (O2 insert, then O3 merge).
//
// The batch kernels at the bottom are the Exp#7 subjects: the same sum/max
// reduction written once as a defiantly scalar loop and once with explicit
// AVX2 intrinsics (runtime-dispatched, standing in for the paper's AVX-512
// path; hosts without AVX2 fall back to a vectorization-friendly loop).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>

#include "src/common/arena.h"
#include "src/common/packet.h"
#include "src/common/types.h"
#include "src/controller/key_value_table.h"
#include "src/sketch/signature.h"

namespace ow {

/// Algebraic pattern of a flow statistic (paper §4.2, after FlyMon's
/// four-pattern taxonomy).
enum class MergeKind : std::uint8_t {
  kFrequency = 0,   ///< sum across sub-windows (packet/byte counts)
  kExistence = 1,   ///< logical OR (did the key appear)
  kMax = 2,         ///< max across sub-windows
  kMin = 3,         ///< min across sub-windows
  kDistinction = 4, ///< OR 256-bit distinct signatures, then count
  kXorSum = 5,      ///< attr[0] sums, attrs[1..3] XOR — invertible-Bloom
                    ///< cells (LossRadar/IBF state migration): the merge of
                    ///< sub-window cells is the cell of the union stream
};

/// Fold one AFR into the key's accumulated slot. For a freshly created slot
/// the record's attributes are copied as-is.
void ApplyMerge(MergeKind kind, KvSlot& slot, bool created,
                const FlowRecord& rec);

/// Wall time of one batch's two passes (Exp#4's O2 and O3).
struct MergeTiming {
  Nanos insert = 0;  ///< O2: find or insert every record's slot
  Nanos merge = 0;   ///< O3: fold every record into its slot
};

/// Pass-1 result per record, (slot or nullptr, created), carried into
/// pass 2. The caller keeps one across batches so a warmed-up merge
/// allocates nothing.
using MergeScratch = PooledVector<std::pair<KvSlot*, bool>>;

/// Merge one sub-window's AFRs into `table` in two passes: TryFindOrInsert
/// every record (O2), then ApplyMerge every record in batch order (O3), so
/// a key repeated within the batch is created once and folded after. An
/// insert refused at the table's 7/8 load limit leaves a null slot in
/// `scratch` that pass 2 skips; the table counts it in rejected_inserts().
/// Records a `merge.batch` span while tracing.
MergeTiming MergeBatch(MergeKind kind, std::span<const FlowRecord> records,
                       KeyValueTable& table, MergeScratch& scratch);

/// 256-bit distinct signatures: see src/sketch/signature.h (re-exported
/// here because merge strategies and AFR consumers use them together).
using Signature256 = SpreadSignature;

/// Batch reduction kernels (Exp#7) ----------------------------------------

/// acc[i] += vals[i], strictly scalar (vectorization disabled).
void BatchSumScalar(std::span<std::uint64_t> acc,
                    std::span<const std::uint64_t> vals);

/// acc[i] += vals[i] with explicit AVX2 intrinsics when the host CPU has
/// them (checked once at runtime); portable vectorizer-friendly loop
/// otherwise.
void BatchSumSimd(std::span<std::uint64_t> acc,
                  std::span<const std::uint64_t> vals);

/// acc[i] = max(acc[i], vals[i]), strictly scalar.
void BatchMaxScalar(std::span<std::uint64_t> acc,
                    std::span<const std::uint64_t> vals);

/// acc[i] = max(acc[i], vals[i]); AVX2 (unsigned max via sign-bias compare)
/// with runtime dispatch, portable loop otherwise.
void BatchMaxSimd(std::span<std::uint64_t> acc,
                  std::span<const std::uint64_t> vals);

}  // namespace ow
