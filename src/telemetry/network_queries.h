// Network-wide queries over consistent windows.
//
// The consistency model's motivating example (§5): an administrator
// compares per-flow packet counts on adjacent switches to infer loss. That
// only works if both switches measured every packet in the SAME window —
// which OmniWindow's embedded sub-window numbers guarantee. These helpers
// implement the two-switch comparison over merged window tables, and its
// fabric-scale generalization: hop-by-hop flow-conservation checks that
// LOCALIZE loss to the exact link. With deterministic routing (hash-based
// ECMP) every flow rides a unique path, so for each directed link (u, v) on
// a flow's path the flow's count at u minus its count at v is exactly the
// loss on that link — provided both counts come from the same consistent
// window.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/metrics.h"
#include "src/controller/key_value_table.h"

namespace ow {

struct FlowLossReport {
  FlowKey flow;
  std::uint64_t upstream = 0;
  std::uint64_t downstream = 0;
  /// Saturating: link-level duplication (fault-injected dup faults) can
  /// inflate the downstream count past the upstream one; that is "no loss",
  /// never a wrapped-around huge value.
  std::uint64_t lost() const {
    return upstream > downstream ? upstream - downstream : 0;
  }
};

/// Per-flow counts whose upstream total exceeds the downstream one by at
/// least `min_loss` in the same window. With consistent windows every
/// entry is real loss; with skewed local clocks boundary packets masquerade
/// as losses (see Exp#9).
std::vector<FlowLossReport> InferFlowLoss(TableView upstream,
                                          TableView downstream,
                                          std::uint64_t min_loss = 1);

/// Convenience overload on plain count maps (window handler snapshots).
std::vector<FlowLossReport> InferFlowLoss(const FlowCounts& upstream,
                                          const FlowCounts& downstream,
                                          std::uint64_t min_loss = 1);

/// Total packets lost across all reports.
std::uint64_t TotalLost(const std::vector<FlowLossReport>& reports);

/// Flow-conservation result for one directed fabric link.
struct LinkLossReport {
  int from = -1;  ///< upstream switch id
  int to = -1;    ///< downstream switch id
  /// Totals over every flow routed across this link (not just the lossy
  /// ones), so upstream - downstream is the link's aggregate loss.
  std::uint64_t upstream = 0;
  std::uint64_t downstream = 0;
  /// Flows whose per-link deficit reached min_loss, worst first.
  std::vector<FlowLossReport> flows;

  std::uint64_t lost() const {
    return upstream > downstream ? upstream - downstream : 0;
  }
};

/// Hop-by-hop loss localization over one consistent window: for every flow
/// present at switch u with next hop v, charge the count difference to link
/// (u, v). `per_switch[i]` is switch i's per-flow count table for the
/// window; the routing oracle is the shared NextHopFn
/// (src/common/metrics.h), derived for generated topologies by
/// MakeTopologyNextHop in src/core/network_runner.h — tables must be keyed
/// by the same flow key the fabric routes on (five-tuple). Links with at
/// least one flow conserved or lost appear in the result; ordered by
/// lost() descending (then by (from, to)), so the lossiest link is first.
/// Requires consistent windows — with skewed clocks boundary packets show
/// up as phantom per-link loss exactly as in the two-switch case.
std::vector<LinkLossReport> LocalizeFlowLoss(
    const std::vector<FlowCounts>& per_switch, const NextHopFn& next_hop,
    std::uint64_t min_loss = 1);

/// Total packets lost across all links of a localization result.
std::uint64_t TotalLost(const std::vector<LinkLossReport>& reports);

}  // namespace ow
