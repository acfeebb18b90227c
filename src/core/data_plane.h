// OmniWindow data-plane program.
//
// The P4 program of the paper, targeting the Switch model: per-packet
// sub-window bookkeeping (signals + Lamport consistency, §5), flowkey
// tracking (Algorithm 1), AFR generation driven by recirculating collection
// packets (Algorithm 2), in-switch reset via clear packets (§4.3), and the
// optional RDMA request path (§7). One OmniWindowProgram instance is one
// switch's pipeline; the telemetry application is plugged in through
// TelemetryAppAdapter.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "src/common/packet.h"
#include "src/controller/key_value_table.h"
#include "src/core/adapter.h"
#include "src/core/flowkey_tracker.h"
#include "src/core/signal.h"
#include "src/rdma/rdma.h"
#include "src/switchsim/mat.h"
#include "src/switchsim/pipeline.h"

namespace ow {

struct OmniWindowConfig {
  /// First-hop switches run signals and stamp sub-window numbers; others
  /// follow the embedded number (consistency model, §5).
  bool first_hop = true;
  SignalConfig signal;
  FlowkeyTrackerConfig tracker;
  /// Sub-windows preserved after termination for out-of-order packets.
  std::uint32_t preserve_subwindows = 1;
  /// Enable the RDMA collection path (§7).
  bool rdma = false;
};

/// Shared state of the RDMA optimization: the controller registers MRs and
/// installs hot-key addresses; the switch crafts requests against them.
struct RdmaContext {
  RdmaNic* nic = nullptr;
  std::uint32_t table_rkey = 0;   ///< MR mirroring the key-value table
  std::uint32_t buffer_rkey = 0;  ///< MR of the cold-key append buffer
  std::size_t buffer_bytes = 0;
  /// Hot-key address MAT: flowkey -> byte offset of the slot's attr[0] in
  /// the table MR. Installed/removed by controller notifications.
  MatchActionTable<FlowKey, std::uint64_t, FlowKeyHasher> address_mat{
      "rdma_address_mat", UINT64_MAX};
};

class OmniWindowProgram final : public SwitchProgram {
 public:
  OmniWindowProgram(OmniWindowConfig cfg, AdapterPtr app);

  void Process(Packet& p, Nanos now, PacketSource src,
               PipelineActions& act) override;
  void ChargeResources(ResourceLedger& ledger) const override;
  std::vector<RegisterArray*> Registers() override {
    return app_->Registers();
  }

  /// Attach the RDMA context (owned by the controller side).
  void SetRdmaContext(std::shared_ptr<RdmaContext> ctx) {
    rdma_ = std::move(ctx);
  }

  SubWindowNum current_subwindow() const noexcept { return current_; }
  const TelemetryAppAdapter& app() const noexcept { return *app_; }
  TelemetryAppAdapter& app() noexcept { return *app_; }
  const FlowkeyTracker& tracker() const noexcept { return tracker_; }

  /// What a takeover controller can still learn about sub-window `sw` from
  /// this switch (management-plane query used by FabricSession::FailOver —
  /// not part of the P4 program).
  enum class CollectRecoverability {
    kActive,  ///< C&R running or queued: reports will (still) arrive
    kCached,  ///< C&R finished; records live in the retransmission cache
    kIntact,  ///< C&R never started: region state intact, collect normally
    kLost,    ///< started and evicted from the cache: unrecoverable
  };
  CollectRecoverability QueryRecoverability(SubWindowNum sw) const;

  struct Stats {
    std::uint64_t packets_measured = 0;
    std::uint64_t terminations = 0;
    std::uint64_t afr_generated = 0;
    std::uint64_t reset_passes = 0;
    std::uint64_t spilled_keys = 0;
    std::uint64_t stale_packets = 0;   ///< beyond the preserve horizon
    std::uint64_t collect_overruns = 0;///< C&R still running at termination
    std::uint64_t rdma_writes = 0;
    std::uint64_t rdma_fetch_adds = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

  /// Checkpoint the program's complete windowing state: signal machine,
  /// flowkey tracker, app measurement state, the C&R state machine,
  /// retransmission cache and stats. The RDMA collection path shares
  /// externally owned NIC/MR state and is not checkpointable — Save and
  /// Load throw SnapshotError when it is enabled. Load also throws on a
  /// collect region other than 0 or 1, or a key count beyond what the
  /// sub-window under C&R can enumerate.
  void Save(SnapshotWriter& w);
  void Load(SnapshotReader& r);

 private:
  void HandleNormal(Packet& p, Nanos now, PipelineActions& act);
  void HandleCollectionStart(const Packet& p);
  void HandleCollection(Packet& p, PipelineActions& act);
  void HandleFlowkeyInject(Packet& p, PipelineActions& act);
  void HandleReset(Packet& p, PipelineActions& act);
  void TerminateSubWindow(Nanos now, PipelineActions& act);
  void EmitAfr(const FlowKey& key, std::uint32_t seq, PipelineActions& act);
  void EmitRecord(FlowRecord rec, PipelineActions& act);
  void ForceFinishCollection();

  OmniWindowConfig cfg_;
  AdapterPtr app_;
  SignalGenerator signal_;
  FlowkeyTracker tracker_;
  std::shared_ptr<RdmaContext> rdma_;

  SubWindowNum current_ = 0;

  /// Collect-and-reset state machine for the region under C&R. Only one
  /// region is ever under C&R (the other is active), so one instance.
  struct CollectState {
    bool active = false;
    bool resetting = false;
    SubWindowNum subwindow = 0;
    int region = 0;
    std::uint32_t num_keys = 0;          ///< keys in fk_buffer
    std::uint32_t collect_counter = 0;   ///< Algorithm 2 counter register
    std::uint32_t reset_counter = 0;     ///< §4.3 reset_counter register
    std::uint32_t injected_remaining = 0;///< keys the controller will inject
    std::uint64_t buffer_cursor = 0;     ///< RDMA cold-key append offset
  };
  CollectState collect_;
  /// Collection-start requests received while a C&R is still in progress
  /// (several sub-windows can terminate at one packet after an idle gap);
  /// started in order as each collection completes.
  PooledDeque<Packet> pending_starts_;
  /// Snapshot of the keys being enumerated for the sub-window under C&R.
  PooledVector<FlowKey> collect_keys_;
  /// Retransmission cache: generated AFRs of the last few collections,
  /// keyed by sub-window and indexed by sequence number. Served to the
  /// controller when reports are lost (§8 reliability) — the state itself
  /// is reset long before a loss can be detected, and retransmissions can
  /// themselves be lost, so the cache must outlive several rounds.
  static constexpr std::size_t kRetransmitCacheDepth = 8;
  PooledMap<SubWindowNum, RecordVec> afr_cache_;
  /// Sub-windows whose measured state is knowably damaged: a late or
  /// force-finished C&R enumerated a region a newer same-parity sub-window
  /// had already written into, so its values are contaminated and the
  /// region reset destroys the newer sub-window's state. Count
  /// announcements for these carry the degraded bit so the controller can
  /// flag the covering window instead of trusting an under-count as final.
  /// Bounded like the cache.
  PooledSet<SubWindowNum> compromised_;
  /// Newest sub-window that has written each region (detects the
  /// late-collection hazard above).
  SubWindowNum last_writer_[2] = {0, 0};
  /// Exclusive upper bound of sub-windows whose C&R has started (i.e. the
  /// region was enumerated and reset). Below this bound a sub-window's
  /// in-region state is gone: it is recoverable only through the
  /// retransmission cache. QueryRecoverability keys off this.
  SubWindowNum collect_started_through_ = 0;
  /// RoCEv2 packet sequence number register (§8).
  std::uint32_t rdma_psn_ = 0;
  /// First user-defined iteration number observed (maps iterations to
  /// sub-window indices under kUserDefined signals).
  std::uint32_t user_base_ = kNoIteration;

  Stats stats_;
};

}  // namespace ow
