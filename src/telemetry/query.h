// Query-driven telemetry (Sonata-style), §9.2 Q1–Q7.
//
// A QueryDef is the compiled form of a Sonata query: a packet filter, a
// flowkey projection, an aggregate (count / byte sum / distinct elements)
// and a detection threshold. QueryAdapter executes a QueryDef in the data
// plane against hash-indexed register cells — deliberately WITHOUT collision
// handling, because the paper attributes OmniWindow's residual error to
// exactly that property of Sonata's stateful operators. IdealQueryEngine
// computes the exact (error-free) answer for arbitrary window bounds and
// serves as the ITW/ISW ground truth.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/packet.h"
#include "src/controller/key_value_table.h"
#include "src/core/adapter.h"
#include "src/core/state_layout.h"
#include "src/trace/trace.h"

namespace ow {

enum class QueryAggregate : std::uint8_t {
  kCount = 0,     ///< number of filtered packets per key
  kSumBytes = 1,  ///< byte volume per key
  kDistinct = 2,  ///< distinct elements (via 256-bit signatures)
};

struct QueryDef {
  std::string name;
  std::function<bool(const Packet&)> filter;          ///< null = match all
  FlowKeyKind key_kind = FlowKeyKind::kDstIp;
  QueryAggregate aggregate = QueryAggregate::kCount;
  /// Element projected for kDistinct (e.g. hash of src ip).
  std::function<std::uint64_t(const Packet&)> element;
  std::uint64_t threshold = 100;
};

/// The paper's Table 1 anomaly-detection queries Q1–Q7, with thresholds
/// tuned to the synthetic evaluation trace.
std::vector<QueryDef> StandardQueries();

/// Single query by index (1-based, Q1..Q7).
QueryDef StandardQuery(int number);

/// Data-plane execution of one QueryDef under OmniWindow: hash-indexed
/// cells in shared-region register arrays (one 64-bit array for scalar
/// aggregates, four for distinct signatures).
class QueryAdapter final : public TelemetryAppAdapter {
 public:
  /// `cells_per_region`: hash table width per memory region.
  QueryAdapter(QueryDef def, std::size_t cells_per_region,
               std::uint64_t seed = 0x50A7A0ull);

  std::string name() const override { return def_.name; }
  FlowKeyKind key_kind() const override { return def_.key_kind; }
  MergeKind merge_kind() const override {
    return def_.aggregate == QueryAggregate::kDistinct
               ? MergeKind::kDistinction
               : MergeKind::kFrequency;
  }

  void Update(const Packet& p, int region) override;
  FlowRecord Query(const FlowKey& key, int region,
                   SubWindowNum subwindow) const override;
  void ResetSlice(int region, std::size_t index) override;
  std::size_t NumResetSlices() const override { return cells_; }
  void ChargeResources(ResourceLedger& ledger) const override;
  std::vector<RegisterArray*> Registers() override;

  const QueryDef& def() const noexcept { return def_; }

  /// Decision rule applied to a merged table slot.
  bool OverThreshold(const KvSlot& slot) const;

  /// All keys whose merged statistics exceed the threshold.
  FlowSet Detect(TableView table) const;

 private:
  std::size_t CellOf(const FlowKey& key) const;

  QueryDef def_;
  std::size_t cells_;
  std::uint64_t seed_;
  /// Scalar aggregate state, or signature word 0.
  std::vector<std::unique_ptr<RegionedArray>> arrays_;
};

/// Exact offline evaluation of a QueryDef over arbitrary window bounds —
/// the ITW / ISW ground truth of the evaluation.
class IdealQueryEngine {
 public:
  explicit IdealQueryEngine(const Trace& trace) : trace_(&trace) {}

  /// Keys exceeding the query threshold within [start, end).
  FlowSet Evaluate(const QueryDef& def, Nanos start, Nanos end) const;

  /// Exact per-key scalar aggregates within [start, end) (count/bytes, or
  /// exact distinct cardinality for kDistinct).
  FlowCounts Aggregate(const QueryDef& def, Nanos start, Nanos end) const;

 private:
  const Trace* trace_;
};

}  // namespace ow
