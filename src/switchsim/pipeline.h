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
//   * forward/drop  — normal egress: port 0, or on a switch with an ECMP
//                     seed the flow's EcmpPort.
//
// Event engine (docs/pipeline_performance.md): pending events live in two
// lanes that together realize one total order by (time, seq). Wire packets
// arriving in non-decreasing time order — the overwhelmingly common case,
// traces are replayed chronologically — go to the wire lane with O(1)
// push/pop: the unread suffix of a trace the switch was fed (FeedTrace),
// read in place through a cursor, then a FIFO ring. Recirculations,
// controller injections and out-of-order wire arrivals go to a binary
// heap. Dispatch pops whichever lane fronts the smaller (time, seq), which
// reproduces the historical single priority-queue order bit for bit.
// Events are moved, never copied, except that a trace packet is copied
// once, when it is dispatched, and the end-of-trace sentinel once per port
// it floods; egress moves the packet into its port's handler. Each pass
// reuses a per-switch PipelineActions scratch whose pool-backed action
// lists keep their capacity, so an ordinary forwarding pass performs zero
// heap allocations. Register arrays are armed per pass by bumping the
// switch's pass count, which every array of the program is bound to,
// instead of touching every array (see register_array.h).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/common/packet.h"
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

/// Side effects one pipeline pass may request. The switch reuses one
/// instance across passes; programs only ever append.
struct PipelineActions {
  bool drop = false;
  PooledVector<Packet> recirculate;
  PooledVector<Packet> to_controller;

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
  /// access check to its pass count when the program is installed.
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

/// The ECMP hash unit: the member port in [0, ports) that every packet of
/// `flow` leaves on, a pure function of the key and `seed` (reseeding
/// reshuffles the flow->port map). `ports` must be positive. Switches with
/// an ECMP seed forward by it, and MakeTopologyNextHop replays it as the
/// routing oracle.
inline int EcmpPort(const FlowKey& flow, std::size_t ports,
                    std::uint64_t seed) {
  return int(flow.Hash(seed) % ports);
}

class Switch {
 public:
  /// Receives each forwarded or cloned packet at its delivery time; the
  /// switch moves the packet in.
  using PacketHandler = std::function<void(Packet&&, Nanos)>;

  explicit Switch(int id);

  // Register arrays hold a pointer to this switch's pass count; the switch
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
  /// Forward by hash-based ECMP over every port: a packet leaves on
  /// EcmpPort(its five-tuple key, port count, seed), and one with an
  /// all-zero five-tuple (the end-of-trace sentinel, which must terminate
  /// every path) is copied onto every connected port. Without a seed,
  /// forwarded packets leave on port 0.
  void SetEcmpSeed(std::uint64_t seed) { ecmp_seed_ = seed; }
  /// Delivery of cloned/report packets to the controller.
  void SetControllerHandler(PacketHandler handler) {
    to_controller_ = std::move(handler);
  }

  void EnqueueFromWire(Packet p, Nanos arrival);
  void EnqueueFromController(Packet p, Nanos arrival);
  /// Feed a whole trace from the wire, each packet arriving at its own
  /// timestamp: the same dispatch order as EnqueueFromWire(p, p.ts) per
  /// packet, with packet i at seq i, but the switch reads the packets in
  /// place through a cursor instead of copying them into its ring. The
  /// switch borrows `packets`, which must outlive it unchanged. Throws
  /// std::invalid_argument naming the first packet earlier than its
  /// predecessor, and std::logic_error unless this is the switch's first
  /// enqueue.
  void FeedTrace(std::span<const Packet> packets);

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
  /// While tracing is on, each call records one `switch.run_batch` span.
  std::size_t RunBatch(Nanos max_time);

  /// Earliest pending event time, or -1 when idle.
  Nanos NextEventTime() const;

  /// Time of the most recently dispatched event (-1 before any dispatch).
  Nanos last_event_time() const noexcept { return last_dispatched_; }

  /// Total passes executed (normal + recirculated) — used by tests, by
  /// the recirculation-overhead accounting and by FabricSession::Finish,
  /// which publishes them as `switch.passes` / `switch.recirc_passes`.
  /// The count is also the pass epoch the program's register arrays are
  /// bound to: it is bumped before every pass.
  std::uint64_t total_passes() const noexcept { return total_passes_; }
  std::uint64_t recirc_passes() const noexcept { return recirc_passes_; }

  /// Checkpoint the event lanes and the seq / pass counters. The fed
  /// trace is not written, only the cursor into it, its packet count and
  /// its FingerprintPackets value (computed on the first Save or Load,
  /// then kept); the restoring switch must have been fed the same trace.
  /// Program state, port handlers and the ECMP seed are
  /// configuration the restoring side rebuilds before calling Load. The
  /// FIFO ring is renormalized to head 0 and the heap restored in layout
  /// order, so dispatch order is preserved exactly; Load throws
  /// SnapshotError unless the trace matches and the cursor is within it,
  /// the wire lane strictly increases in (time, seq) from the trace's
  /// unread packets into the ring, the heap array is a heap, every source
  /// byte names a PacketSource and the saved next seq is above every
  /// restored event's seq (a lower one would let the next enqueue dispatch
  /// ahead of a restored event at its time). Load re-arms the program's
  /// register arrays against the restored pass count.
  void Save(SnapshotWriter& w) const;
  void Load(SnapshotReader& r);

 private:
  struct Event {
    Nanos time;
    std::uint64_t seq;  // FIFO tiebreak
    PacketSource source;
    Packet packet;
  };
  static_assert(sizeof(Event) == 120);
  /// min-heap comparator: `a` pops after `b`.
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  /// RunBatch without its span.
  std::size_t Drain(Nanos max_time);
  void DispatchEvent(Event& ev);
  void NotifyActivity() {
    if (on_activity_) on_activity_();
  }

  // Wire lane: the fed trace's unread suffix, then the FIFO ring
  // (power-of-two capacity). Trace packet i has seq i, and everything else
  // draws a later seq, so the ring only ever follows the trace.
  bool TraceUnread() const noexcept { return cursor_ < trace_.size(); }
  bool FifoEmpty() const noexcept { return fifo_size_ == 0; }
  const Event& FifoFront() const noexcept { return fifo_[fifo_head_]; }
  const Event& FifoTail() const noexcept {
    return fifo_[(fifo_head_ + fifo_size_ - 1) & (fifo_.size() - 1)];
  }
  bool LaneEmpty() const noexcept { return !TraceUnread() && FifoEmpty(); }
  Nanos LaneFrontTime() const noexcept {
    return TraceUnread() ? trace_[cursor_].ts : FifoFront().time;
  }
  std::uint64_t LaneFrontSeq() const noexcept {
    return TraceUnread() ? cursor_ : FifoFront().seq;
  }
  /// The lane only accepts events that extend its tail in (time, seq)
  /// order. Seqs are drawn from one increasing counter, so a new event
  /// extends the tail exactly when it is not earlier.
  bool LaneAdmits(Nanos time) const noexcept {
    if (!FifoEmpty()) return time >= FifoTail().time;
    return !TraceUnread() || time >= trace_.back().ts;
  }
  /// Pops the lane's front: a copy of the next trace packet, or the ring's
  /// front event moved out.
  Event LanePop();
  /// FingerprintPackets(trace_), computed on first use; a snapshot names
  /// its trace by it.
  std::uint64_t TraceFingerprint() const;

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
  std::optional<std::uint64_t> ecmp_seed_;
  PacketHandler to_controller_;

  std::span<const Packet> trace_;
  std::size_t cursor_ = 0;  ///< trace_[cursor_..] is still to dispatch
  mutable std::optional<std::uint64_t> trace_fingerprint_;
  PooledVector<Event> fifo_;
  std::size_t fifo_head_ = 0;
  std::size_t fifo_size_ = 0;
  PooledVector<Event> heap_;

  std::function<void()> on_activity_;

  std::uint64_t next_seq_ = 0;
  Nanos last_dispatched_ = -1;
  /// Passes so far, and the pass epoch the program's register arrays are
  /// bound to: incremented before every Process call, so a freshly bound
  /// array (stamp 0) is accessible on the first pass.
  std::uint64_t total_passes_ = 0;
  std::uint64_t recirc_passes_ = 0;
  PipelineActions scratch_;

  // Registry-backed egress counters (docs/observability.md); shared across
  // all Switch instances by name.
  obs::Counter* obs_to_controller_;
  obs::Counter* obs_forwarded_;
  obs::Counter* obs_dropped_;
};

}  // namespace ow
