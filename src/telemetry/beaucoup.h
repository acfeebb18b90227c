// BeauCoup (Chen et al., SIGCOMM 2020) — "many network traffic queries,
// one memory update at a time".
//
// Runs many distinct-counting queries simultaneously under the RMT
// constraint that each packet may perform ONE state update. Every query q
// owns m_q coupons, each collected with probability p_q; a single hash draw
// per packet selects at most one (query, coupon) pair, and the packet's
// key collects that coupon. A key that gathers c_q distinct coupons raises
// the query's alert — by the coupon-collector bound that corresponds to
// roughly m_q/p_q · H(m_q)/m_q distinct attribute values.
//
// Belongs to the query-driven telemetry family the paper integrates with
// (reference [14]); here it runs per sub-window like any other app, with
// alerts unioned across the merged window via the existence pattern.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/packet.h"

namespace ow {

struct BeauCoupQuery {
  std::string name;
  FlowKeyKind key_kind = FlowKeyKind::kSrcIp;
  /// Attribute whose distinct values are counted (e.g. hash of dst ip).
  std::function<std::uint64_t(const Packet&)> attribute;
  std::uint32_t coupons = 32;          ///< m_q
  std::uint32_t alert_threshold = 24;  ///< c_q coupons -> alert
  double coupon_probability = 1.0 / 128;  ///< p_q per coupon
};

class BeauCoup {
 public:
  /// `table_cells`: per-query key-table cells (collision-prone, hash
  /// indexed, as on the switch).
  explicit BeauCoup(std::vector<BeauCoupQuery> queries,
                    std::size_t table_cells = 4'096,
                    std::uint64_t seed = 0xB0C09F0Full);

  /// Process one packet: at most ONE (query, coupon) update happens.
  void Update(const Packet& p);

  /// Keys that reached a query's alert threshold so far.
  FlowSet Alerts(std::size_t query_index) const;

  /// Coupons collected for (query, key) — for tests/inspection.
  std::uint32_t CouponsOf(std::size_t query_index, const FlowKey& key) const;

  void Reset();

  const BeauCoupQuery& query(std::size_t i) const { return queries_[i]; }

  /// Total updates performed (must be <= packets seen: the one-update
  /// guarantee).
  std::uint64_t updates() const noexcept { return updates_; }
  std::uint64_t packets() const noexcept { return packets_; }

  /// Expected distinct attribute values needed to collect c of m coupons
  /// at per-coupon probability p (coupon-collector partial sum).
  static double ExpectedDistinctForAlert(const BeauCoupQuery& q);

 private:
  struct Range {
    std::uint64_t begin;  // inclusive, in 2^-64 probability units
    std::uint64_t end;    // exclusive
    std::uint32_t query;
    std::uint32_t coupon;
  };
  struct Cell {
    FlowKey key;
    std::uint64_t coupons = 0;  // bitmap (m_q <= 64)
    bool occupied = false;
  };

  std::vector<BeauCoupQuery> queries_;
  std::vector<Range> ranges_;
  std::size_t cells_;
  std::uint64_t seed_;
  std::vector<std::vector<Cell>> tables_;  // per query
  std::uint64_t updates_ = 0;
  std::uint64_t packets_ = 0;
};

}  // namespace ow
