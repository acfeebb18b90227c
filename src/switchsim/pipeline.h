// RMT switch model.
//
// A Switch owns an event queue of arriving packets and a SwitchProgram (the
// P4-equivalent). Each packet makes exactly ONE pass through the program —
// single-pass processing is the C4 constraint the paper designs around. The
// program can request the three hardware primitives OmniWindow relies on:
//
//   * recirculate   — re-enqueue the packet at now + kRecircLatency over the
//                     dedicated recirculation port (used by AFR enumeration
//                     and in-switch reset),
//   * clone to CPU  — mirror a copy toward the controller port,
//   * forward/drop  — normal egress, on the port the switch's forwarding
//                     policy picks (port 0 without one).
//
// Event engine (docs/pipeline_performance.md): pending events live in two
// lanes that together realize one total order by (time, seq). Wire packets
// arriving in non-decreasing time order — the overwhelmingly common case,
// traces are replayed chronologically — go to a FIFO ring with O(1)
// push/pop; recirculations, controller injections and out-of-order wire
// arrivals go to a binary heap. Dispatch pops whichever lane fronts the
// smaller (time, seq), which reproduces the historical single
// priority-queue order bit for bit. Events are moved, never copied; each
// pass reuses a per-switch PipelineActions scratch whose action lists store
// small bursts inline, so an ordinary forwarding pass performs zero heap
// allocations. Register arrays are armed per pass by bumping one shared
// epoch counter instead of touching every array (see register_array.h).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/common/packet.h"
#include "src/common/small_vector.h"
#include "src/obs/obs.h"
#include "src/switchsim/register_array.h"
#include "src/switchsim/resources.h"

namespace ow {

/// Where a packet entered the pipeline from.
enum class PacketSource : std::uint8_t {
  kWire = 0,           ///< a front-panel port
  kController = 1,     ///< the controller-facing port (injected packets)
  kRecirculation = 2,  ///< the recirculation port
};

/// Replicate the packet on every connected egress port (protocol floods,
/// e.g. the end-of-trace sentinel that must terminate every path).
inline constexpr int kFloodEgress = -2;

/// Side effects one pipeline pass may request. The switch reuses one
/// instance across passes; programs only ever append.
struct PipelineActions {
  bool drop = false;
  SmallVector<Packet, 2> recirculate;
  SmallVector<Packet, 2> to_controller;

  void Clear() noexcept {
    drop = false;
    recirculate.clear();
    to_controller.clear();
  }
};

/// The data-plane program (P4 stand-in). Implementations live in src/core.
class SwitchProgram {
 public:
  virtual ~SwitchProgram() = default;

  /// One single pass over the pipeline. May mutate `p` (header rewrites);
  /// unless `act.drop` is set the mutated packet is forwarded.
  virtual void Process(Packet& p, Nanos now, PacketSource src,
                       PipelineActions& act) = 0;

  /// Register arrays the program owns; the switch binds their per-pass
  /// access check to its pass epoch when the program is installed.
  virtual std::vector<RegisterArray*> Registers() { return {}; }

  /// Charge this program's hardware usage to `ledger` (Exp#5).
  virtual void ChargeResources(ResourceLedger& ledger) const {
    (void)ledger;
  }
};

// Latencies of the switch model, loosely calibrated to Tofino-class
// hardware so the C&R experiments land in the paper's millisecond regime
// (see DESIGN.md, substitution table).

/// Ingress to egress.
inline constexpr Nanos kPipelineLatency = 600;
/// Egress back to ingress over the recirculation port.
inline constexpr Nanos kRecircLatency = 250;
/// Egress port to the controller NIC.
inline constexpr Nanos kToControllerLatency = 2'000;

class Switch {
 public:
  using PacketHandler = std::function<void(const Packet&, Nanos)>;
  /// Picks the egress port for a forwarded packet. May return kFloodEgress
  /// to replicate on every connected port. Must be deterministic for
  /// reproducible runs.
  using ForwardingPolicy = std::function<int(const Packet&, Nanos)>;

  explicit Switch(int id);

  // Register arrays hold a pointer to this switch's pass epoch; the switch
  // must stay put.
  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  int id() const noexcept { return id_; }

  void SetProgram(std::shared_ptr<SwitchProgram> program);
  SwitchProgram* program() const noexcept { return program_.get(); }

  /// Delivery of forwarded packets (next hop / end host) on an egress
  /// port. Ports are dense small integers; setting a port grows the port
  /// table.
  void SetPortHandler(int port, PacketHandler handler);
  bool HasPortHandler(int port) const noexcept {
    return port >= 0 && std::size_t(port) < ports_.size() &&
           bool(ports_[std::size_t(port)]);
  }
  /// Picks the egress of every forwarded packet. Without a policy,
  /// forwarded packets leave on port 0.
  void SetForwardingPolicy(ForwardingPolicy policy) {
    policy_ = std::move(policy);
  }
  /// Delivery of cloned/report packets to the controller.
  void SetControllerHandler(PacketHandler handler) {
    to_controller_ = std::move(handler);
  }

  void EnqueueFromWire(Packet p, Nanos arrival);
  void EnqueueFromController(Packet p, Nanos arrival);
  /// Enqueue a whole trace from the wire, each packet arriving at its own
  /// timestamp (EnqueueFromWire(p, p.ts) per packet, in order), with the
  /// FIFO ring sized once for all of them instead of doubling its way up.
  void EnqueueTrace(std::span<const Packet> packets);

  /// Hook invoked on every enqueue (when set). The owning Network uses it to
  /// maintain the idle-switch skip list: quiescence detection only scans
  /// switches that have signalled activity. Kept as a bare branch +
  /// indirect call so the enqueue path stays on its fast admission check.
  void SetActivityListener(std::function<void()> listener) {
    on_activity_ = std::move(listener);
  }

  /// Batched drain: process every event with time <= `max_time`, in
  /// (time, seq) order — recirculations and injections scheduled within
  /// the horizon included — favoring tight runs of same-lane events (no
  /// per-event lane comparison while the heap is empty). Returns the number
  /// of events processed; last_event_time() reports how far the drain got.
  std::size_t RunBatch(Nanos max_time);

  /// Earliest pending event time, or -1 when idle.
  Nanos NextEventTime() const;

  /// Time of the most recently dispatched event (-1 before any dispatch).
  Nanos last_event_time() const noexcept { return last_dispatched_; }

  /// Total passes executed (normal + recirculated) — used by tests and by
  /// the recirculation-overhead accounting.
  std::uint64_t total_passes() const noexcept { return total_passes_; }
  std::uint64_t recirc_passes() const noexcept { return recirc_passes_; }

  /// Checkpoint the event lanes (FIFO, heap) and the seq / pass counters.
  /// Program state, port handlers and the forwarding policy are
  /// configuration the restoring side rebuilds before calling Load. The
  /// FIFO ring is renormalized to head 0 and the heap restored in layout
  /// order, so dispatch order is preserved exactly; Load throws
  /// SnapshotError unless the FIFO strictly increases in (time, seq), the
  /// heap array is a heap, every source byte names a PacketSource and the
  /// saved next seq is above every restored event's seq (a lower one would
  /// let the next enqueue dispatch ahead of a restored event at its time).
  void Save(SnapshotWriter& w) const;
  void Load(SnapshotReader& r);

 private:
  struct Event {
    Nanos time;
    std::uint64_t seq;  // FIFO tiebreak
    PacketSource source;
    Packet packet;
  };
  /// min-heap comparator: `a` pops after `b`.
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  void DispatchEvent(Event& ev);
  void NotifyActivity() {
    if (on_activity_) on_activity_();
  }

  // FIFO ring lane (power-of-two capacity).
  bool FifoEmpty() const noexcept { return fifo_size_ == 0; }
  const Event& FifoFront() const noexcept { return fifo_[fifo_head_]; }
  const Event& FifoTail() const noexcept {
    return fifo_[(fifo_head_ + fifo_size_ - 1) & (fifo_.size() - 1)];
  }
  /// The ring only accepts events that extend its tail in (time, seq)
  /// order. Seqs are drawn from one increasing counter, so a new event
  /// extends the tail exactly when it is not earlier.
  bool FifoAdmissible(Nanos time) const noexcept {
    return FifoEmpty() || time >= FifoTail().time;
  }
  void FifoPush(Event ev);
  Event FifoPop() noexcept;
  /// Move the ring's events into a fresh ring of `new_cap` slots (a power
  /// of two no smaller than fifo_size_), head at 0.
  void ResizeFifo(std::size_t new_cap);

  void HeapPush(Event ev);
  Event HeapPop() noexcept;

  int id_;
  std::shared_ptr<SwitchProgram> program_;
  std::vector<RegisterArray*> registers_;
  std::vector<PacketHandler> ports_;  ///< per-egress-port delivery
  ForwardingPolicy policy_;
  PacketHandler to_controller_;

  PooledVector<Event> fifo_;
  std::size_t fifo_head_ = 0;
  std::size_t fifo_size_ = 0;
  PooledVector<Event> heap_;

  std::function<void()> on_activity_;

  std::uint64_t next_seq_ = 0;
  Nanos last_dispatched_ = -1;
  std::uint64_t total_passes_ = 0;
  std::uint64_t recirc_passes_ = 0;
  /// Pass-epoch counter the program's register arrays are bound to;
  /// incremented before every Process call (starts >0 so a freshly bound
  /// array is accessible on the first pass).
  std::uint64_t pass_epoch_ = 0;
  PipelineActions scratch_;

  // Registry-backed pass/egress counters (docs/observability.md); shared
  // across all Switch instances by name.
  obs::Counter* obs_passes_;
  obs::Counter* obs_recirc_passes_;
  obs::Counter* obs_to_controller_;
  obs::Counter* obs_forwarded_;
  obs::Counter* obs_dropped_;
};

}  // namespace ow
