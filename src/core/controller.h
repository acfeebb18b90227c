// OmniWindow controller (§4.2, §7, §8).
//
// The control-plane half of the collaborative architecture. It
//  * reacts to sub-window termination triggers by returning the trigger
//    after a grace period (out-of-order tolerance) and injecting collection
//    packets plus any controller-resident flowkeys,
//  * collects AFR reports (or drains RDMA memory regions), checks
//    completeness against per-sub-window sequence numbers and requests
//    retransmissions for losses,
//  * merges sub-windows into the user's windows — tumbling, sliding or
//    variable size — in a flow key-value table, and
//  * invokes the application's window handler with each completed window.
//
// Controller CPU work (table insert, merge, window processing, eviction) is
// real computation measured with a wall clock; network/IO costs come from
// the DPDK cost model in simulated time. Both feed Exp#4 through the
// controller.o1_collect_ns … o5_evict_ns histograms (docs/observability.md).
// Event counts live in Stats alone; a FabricSession publishes them to the
// obs registry once, when it finishes.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/common/packet.h"
#include "src/controller/key_value_table.h"
#include "src/controller/merge.h"
#include "src/core/data_plane.h"
#include "src/core/window.h"
#include "src/obs/obs.h"
#include "src/switchsim/pipeline.h"

namespace ow {

struct ControllerConfig {
  WindowSpec window;
  /// Wait after a trigger before starting collection, so late (out-of-order)
  /// packets can still land in the terminated sub-window (§5).
  Nanos grace_period = 2 * kMilli;
  /// Collection packets injected per C&R round (the paper uses <= 20;
  /// Exp#6/#8 sweep 3/4/8/16).
  std::size_t collection_packets = 16;
  std::size_t kv_capacity = 1 << 17;
  bool rdma = false;
  /// RDMA variant where the CONTROLLER resolves each injected key's
  /// key-value-table address before injection (the CPC* path of Exp#6)
  /// instead of letting the switch's address MAT do it. Adds the lookup
  /// cost to every injected packet.
  bool rdma_controller_resolves_addresses = false;
  /// Sub-windows of AFR history to retain beyond what the window type
  /// needs (G1: administrators can re-merge arbitrary spans — e.g. the
  /// whole lifetime of a suspicious flow — via QueryRange). 0 keeps only
  /// what sliding/tumbling assembly requires.
  std::size_t retain_subwindows = 0;
  /// App identity stamped on every injected packet, so a MultiAppProgram
  /// pipeline can route it to the right sub-program.
  std::uint8_t app_id = 0;
};

/// Retransmission rounds a sub-window gets (collection-packet reissue,
/// completion probes, RDMA-path re-collection, each sent at once) before
/// Flush gives up and force-finalizes it as partial (§8).
inline constexpr std::uint32_t kMaxRetransmitAttempts = 8;

/// One completed window handed to the application. `table` is the
/// controller's merged flow table; it is valid only for the duration of the
/// handler call.
struct WindowResult {
  SubWindowSpan span;
  const KeyValueTable* table = nullptr;
  Nanos completed_at = 0;  ///< simulated time
  /// True when any sub-window in `span` was finalized degraded: it
  /// exhausted its retry budget, lost unfoldable latency-spike copies, or
  /// the switch reported its region damaged (destroyed or truncated before
  /// collection; Stats::subwindows_degraded_by_switch). Contents may then be
  /// over as well as short: on a report link dropping 10% of packets, one
  /// such tumbling window summed 816 packets where the lossless run had
  /// 799. A partial window is explicitly degraded, never silently wrong:
  /// consumers must not treat its contents as exact.
  bool partial = false;
};

class OmniWindowController {
 public:
  using WindowHandler = std::function<void(const WindowResult&)>;

  OmniWindowController(ControllerConfig cfg, MergeKind merge_kind);

  /// Bind this controller to `sw`: injections go to it via
  /// EnqueueFromController. The caller routes the switch's controller-bound
  /// packets into OnPacket (Switch::SetControllerHandler), directly or over
  /// a report link.
  void AttachSwitch(Switch* sw);

  /// Set up the RDMA context shared with `prog` (§7). Must be called before
  /// traffic when ControllerConfig::rdma is set.
  std::shared_ptr<RdmaContext> InitRdma(RdmaNic& nic);

  void SetWindowHandler(WindowHandler handler) {
    handler_ = std::move(handler);
  }

  /// Transform applied to a sub-window's raw records before merging,
  /// once per finalized sub-window: the app's SubWindowDecoder(), which a
  /// FabricSession installs on every controller it builds.
  void SetSubWindowTransform(SubWindowTransform transform) {
    transform_ = std::move(transform);
  }

  /// Entry point for every switch-to-controller packet.
  void OnPacket(const Packet& p, Nanos arrival);

  /// End-of-run cleanup. First call: issues retransmissions for incomplete
  /// sub-windows and returns false (drive the switch with RunBatch, then
  /// call again). Once nothing is missing (or nothing can be
  /// recovered), force-finalizes the remainder and returns true.
  bool Flush(Nanos now);

  /// Management-path recovery: callers that learn the data plane's current
  /// sub-window out of band (e.g. the runner reading it over the reliable
  /// switch-OS channel) report it here; any earlier sub-window the
  /// controller never got a trigger for starts collection immediately.
  /// Also invoked internally on every trigger (Lamport-style gap recovery).
  void EnsureCollectedThrough(SubWindowNum through, Nanos now);

  /// Standby takeover (docs/failover.md). Called after Load() of a STALE
  /// controller-plane checkpoint against a live switch: classifies every
  /// sub-window in [next_to_finalize(), through) via `classify` (backed by
  /// the switch's management path, OmniWindowProgram::QueryRecoverability)
  /// and either lets the in-flight collection keep delivering, chases the
  /// retransmission cache, starts a fresh collection, or — when the switch
  /// has evicted the records — marks the sub-window lost so its covering
  /// windows emit flagged instead of stalling forever. Windows are
  /// exact-or-flagged across a takeover, never silently dropped.
  struct TakeoverPlan {
    std::size_t requeried = 0;  ///< sub-windows re-requested from the switch
    std::size_t lost = 0;       ///< sub-windows unrecoverable (flagged)
  };
  TakeoverPlan BeginTakeover(
      SubWindowNum through, Nanos now,
      const std::function<OmniWindowProgram::CollectRecoverability(
          SubWindowNum)>& classify);

  /// Next sub-window awaiting in-order finalization (recovery progress
  /// marker: a takeover has caught up once this passes the kill point).
  SubWindowNum next_to_finalize() const noexcept { return next_to_finalize_; }

  const KeyValueTable& table() const { return table_; }

  /// Merge an arbitrary retained span of sub-windows into a fresh table
  /// (variable window sizes, requirement G1). Returns false if any
  /// sub-window of the span has been finalized-and-released already or is
  /// not finalized yet; configure `retain_subwindows` to keep more history.
  bool QueryRange(SubWindowSpan span, KeyValueTable& out) const;

  /// Sub-window span currently available to QueryRange (empty if none).
  std::optional<SubWindowSpan> RetainedSpan() const;

  struct Stats {
    std::uint64_t afrs_received = 0;
    /// Sub-windows finalized with a COMPLETE record set (every expected
    /// sequence number / injected key accounted for).
    std::uint64_t subwindows_finalized = 0;
    /// Sub-windows Flush gave up on after kMaxRetransmitAttempts and
    /// finalized with missing records. Disjoint from subwindows_finalized;
    /// the total processed is the sum of the two.
    std::uint64_t subwindows_force_finalized = 0;
    std::uint64_t windows_emitted = 0;
    std::uint64_t spilled_keys_stored = 0;
    std::uint64_t retransmissions_requested = 0;
    std::uint64_t spike_packets = 0;
    std::uint64_t duplicate_afrs = 0;
    /// AFRs dropped because the flow table hit its 7/8 load limit: the
    /// table's rejected_inserts(), read after each merge and on Load. Each
    /// flags its sub-window.
    std::uint64_t inserts_rejected = 0;
    /// Windows emitted with the partial flag set (degraded, not wrong).
    std::uint64_t windows_partial = 0;
    /// Invalid (fault-truncated or dropped) RDMA buffer slots detected by
    /// the drain's checksum scan.
    std::uint64_t rdma_holes_detected = 0;
    /// Sub-windows the switch itself reported as damaged (overrun
    /// force-finish destroyed or truncated their state; degraded bit on
    /// the count announcement).
    std::uint64_t subwindows_degraded_by_switch = 0;
    /// Every sub-window that ever received a degraded mark, in first-mark
    /// order (duplicates suppressed). Ground truth for the partial flag:
    /// a window must emit partial iff its span intersects this set, which
    /// pins the mark-eviction point (span.first + slide) across
    /// overlapping sliding windows.
    std::vector<SubWindowNum> degraded_subwindows;
  };
  const Stats& stats() const noexcept { return stats_; }

  /// Checkpoint the controller's complete merge/collection state: flow
  /// table (live slots only, so checkpoint bytes scale with live state
  /// rather than capacity), retained history, pending sub-windows, spilled
  /// keys, degraded marks and stats. Only restorable state is written, so
  /// one seed writes the same bytes on every run.
  /// Handlers, window spec and the switch attachment are configuration the
  /// restoring side rebuilds. The RDMA path is not checkpointable (throws
  /// SnapshotError when enabled).
  void Save(SnapshotWriter& w) const;
  void Load(SnapshotReader& r);

 private:
  struct PendingSubWindow {
    SubWindowNum subwindow = 0;
    std::uint32_t expected_dataplane = 0;  ///< from the trigger payload
    std::uint32_t expected_injected = 0;
    RecordVec records;
    /// Data-plane sequence numbers received, sorted and unique. AFRs arrive
    /// in sequence order, so a new one is normally an append.
    PooledVector<std::uint32_t> seqs_seen;
    PooledSet<FlowKey> injected_keys_seen;
    bool collection_started = false;
    std::uint32_t retransmit_attempts = 0;
    bool rdma_done = false;
    /// The switch's completion notification carried the FINAL enumerated
    /// count; before it arrives, coverage of the trigger-time count is not
    /// sufficient (keys may have been added before collection started).
    bool count_final = false;
    /// The RDMA memory regions for this sub-window have been drained.
    bool rdma_drained = false;
    /// Buffer slots in [0, write high-water mark) whose record was missing
    /// or failed its checksum — each is a lost/truncated WRITE the seq
    /// chase must recover (or the window degrades to partial).
    std::uint32_t rdma_holes = 0;
    /// Keys whose attrs were drained from the hot-key mirror. Chased seq
    /// retransmissions for these arrive as report packets carrying values
    /// the mirror already merged; they cover the seq without re-counting.
    PooledSet<FlowKey> mirror_keys;
    /// Takeover verdict: the switch evicted this sub-window's records from
    /// its retransmission cache before the standby could re-request them.
    /// Never complete; MaybeFinalize retires it immediately as degraded
    /// (flagged) so later sub-windows are not blocked behind it.
    bool lost = false;
    /// O1: simulated DPDK cost of this sub-window's injections and report
    /// RX so far, recorded into controller.o1_collect_ns at finalize.
    Nanos o1_collect = 0;
  };

  /// One recovery round, the ask phase of Flush: re-request
  /// retransmissions for every sub-window NeedsChase names. Returns true if
  /// anything was asked.
  bool ChaseIncomplete(Nanos now);
  /// Collecting, not lost, still missing records and within its retry
  /// budget: a retransmission request can still help.
  bool NeedsChase(const PendingSubWindow& pending) const;
  /// The one record-acceptance rule: a record is fresh unless its seq (or,
  /// without one, its injected key) was seen before. A fresh record is
  /// appended and counted; returns whether it was fresh.
  bool AcceptRecord(PendingSubWindow& pending, const FlowRecord& rec);
  /// Sub-window `sw`'s spilled keys in arrival order; empty when none
  /// spilled. Only a spilled-key report creates a spilled_ entry.
  std::span<const FlowKey> SpilledKeysOf(SubWindowNum sw) const;
  void StartCollection(PendingSubWindow& pending, Nanos now);
  /// Enqueue one controller packet for sub-window `sw` on the switch's
  /// management port: it leaves at `tx_time` and arrives one wire latency
  /// later.
  void SendToSwitch(OwFlag flag, SubWindowNum sw, std::uint32_t payload,
                    const FlowKey& key, Nanos tx_time);

  bool IsComplete(const PendingSubWindow& pending) const;
  void MaybeFinalize(Nanos now);
  /// Drop a finalized sub-window's pending state and spilled keys, and
  /// advance next_to_finalize_ past it.
  void Retire(PooledMap<SubWindowNum, PendingSubWindow>::iterator it);
  void FinalizeSubWindow(PendingSubWindow& pending, Nanos now, bool complete);
  void EmitWindowsAfter(SubWindowNum sw, Nanos now);
  void MarkDegraded(SubWindowNum sw);
  void EvictFromTable(SubWindowNum keep_from);
  void TrimHistory();
  void RequestRetransmissions(PendingSubWindow& pending, Nanos now);
  void DrainRdma(PendingSubWindow& pending);
  void UpdateHotKeys(const PendingSubWindow& pending);
  /// A pending sub-window's fields after its number, which the caller
  /// writes once as the map key and sets before LoadPending.
  void SavePending(SnapshotWriter& w, const PendingSubWindow& p) const;
  void LoadPending(SnapshotReader& r, PendingSubWindow& p) const;

  ControllerConfig cfg_;
  MergeKind merge_kind_;
  Switch* switch_ = nullptr;
  WindowHandler handler_;
  SubWindowTransform transform_;

  KeyValueTable table_;
  /// MergeBatch's pass-1 slots, reused across sub-windows.
  MergeScratch merge_scratch_;
  /// O5's non-invertible rebuild scratch, reused across emissions: the
  /// retired keys' slots (sorted, unique), whether a retained record has
  /// re-merged each yet, and the keys of the slots none did.
  PooledVector<KvSlot*> evict_slots_;
  PooledVector<std::uint8_t> evict_touched_;
  PooledVector<FlowKey> evict_stale_;
  /// Finalized sub-window records retained while a window may still need
  /// them (O5 eviction reads them in place, O6 releases them).
  PooledDeque<std::pair<SubWindowNum, RecordVec>> history_;
  PooledMap<SubWindowNum, PendingSubWindow> pending_;
  /// Controller-resident (spilled) keys of one sub-window awaiting
  /// injection, in arrival order, and the same keys as a set for the
  /// dedupe. A checkpoint writes the keys; Load rebuilds the set.
  struct SpilledKeys {
    PooledVector<FlowKey> keys;
    PooledSet<FlowKey> seen;
  };
  PooledMap<SubWindowNum, SpilledKeys> spilled_;
  /// Sub-windows finalized with missing records (retry budget exhausted or
  /// unfoldable spike copies). Windows covering any of them emit with the
  /// partial flag; entries are pruned once no future window can cover them.
  PooledSet<SubWindowNum> degraded_;
  SubWindowNum next_to_finalize_ = 0;
  /// Sub-windows below this are no longer reflected in table_.
  SubWindowNum table_floor_ = 0;

  // RDMA state (§7).
  std::shared_ptr<RdmaContext> rdma_ctx_;
  MemoryRegion* table_mr_ = nullptr;   ///< hot-key attr mirror
  MemoryRegion* buffer_mr_ = nullptr;  ///< cold-key append buffer
  std::map<FlowKey, std::uint32_t> hot_counts_;
  std::map<FlowKey, std::size_t> hot_slots_;  ///< key -> mirror slot index
  std::size_t next_hot_slot_ = 0;

  Stats stats_;

  /// Registry instruments with no Stats twin: two counters and the retry
  /// and O1–O5 phase histograms (docs/observability.md).
  struct ObsInstruments {
    obs::Counter* trigger_gaps_recovered;
    obs::Counter* merge_records;
    obs::Histogram* retry_attempts;
    obs::Histogram* o1_collect_ns;
    obs::Histogram* o2_insert_ns;
    obs::Histogram* o3_merge_ns;
    obs::Histogram* o4_process_ns;
    obs::Histogram* o5_evict_ns;
  };
  ObsInstruments obs_;
};

}  // namespace ow
