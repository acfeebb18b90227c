#include "src/switchsim/pipeline.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/common/snapshot.h"

namespace ow {

Switch::Switch(int id)
    : id_(id),
      obs_to_controller_(
          &obs::Global().GetCounter("switch.to_controller_packets")),
      obs_forwarded_(&obs::Global().GetCounter("switch.forwarded")),
      obs_dropped_(&obs::Global().GetCounter("switch.dropped_in_pipeline")) {}

void Switch::SetProgram(std::shared_ptr<SwitchProgram> program) {
  for (RegisterArray* r : registers_) r->BindPassEpoch(nullptr);
  program_ = std::move(program);
  registers_ = program_ ? program_->Registers() : std::vector<RegisterArray*>{};
  for (RegisterArray* r : registers_) r->BindPassEpoch(&total_passes_);
}

void Switch::SetPortHandler(int port, PacketHandler handler) {
  if (port < 0) {
    throw std::invalid_argument("Switch::SetPortHandler: negative port");
  }
  if (std::size_t(port) >= ports_.size()) ports_.resize(std::size_t(port) + 1);
  ports_[std::size_t(port)] = std::move(handler);
}

void Switch::EnqueueFromWire(Packet p, Nanos arrival) {
  NotifyActivity();
  Event ev{arrival, next_seq_++, PacketSource::kWire, std::move(p)};
  // In-order arrivals ride the wire lane; a late arrival (links with jitter
  // can reorder) falls back to the heap so the (time, seq) total order is
  // preserved exactly.
  if (LaneAdmits(ev.time)) {
    FifoPush(std::move(ev));
  } else {
    HeapPush(std::move(ev));
  }
}

void Switch::EnqueueFromController(Packet p, Nanos arrival) {
  NotifyActivity();
  HeapPush({arrival, next_seq_++, PacketSource::kController, std::move(p)});
}

void Switch::FeedTrace(std::span<const Packet> packets) {
  if (next_seq_ != 0) {
    throw std::logic_error("Switch " + std::to_string(id_) +
                           ": FeedTrace after another enqueue");
  }
  for (std::size_t i = 1; i < packets.size(); ++i) {
    if (packets[i].ts < packets[i - 1].ts) {
      throw std::invalid_argument(
          "Switch::FeedTrace: packet " + std::to_string(i) + " (t=" +
          std::to_string(packets[i].ts) + ") is earlier than packet " +
          std::to_string(i - 1) + " (t=" + std::to_string(packets[i - 1].ts) +
          ")");
    }
  }
  NotifyActivity();
  trace_ = packets;
  trace_fingerprint_.reset();  // a Save before the feed cached the empty one
  next_seq_ = packets.size();
}

Switch::Event Switch::LanePop() {
  if (TraceUnread()) {
    const Packet& p = trace_[cursor_];
    return Event{p.ts, cursor_++, PacketSource::kWire, p};
  }
  return FifoPop();
}

std::uint64_t Switch::TraceFingerprint() const {
  if (!trace_fingerprint_) trace_fingerprint_ = FingerprintPackets(trace_);
  return *trace_fingerprint_;
}

void Switch::FifoPush(Event ev) {
  if (fifo_size_ == fifo_.size()) {
    ResizeFifo(std::max<std::size_t>(64, fifo_.size() * 2));
  }
  fifo_[(fifo_head_ + fifo_size_) & (fifo_.size() - 1)] = std::move(ev);
  ++fifo_size_;
}

Switch::Event Switch::FifoPop() noexcept {
  Event ev = std::move(fifo_[fifo_head_]);
  fifo_head_ = (fifo_head_ + 1) & (fifo_.size() - 1);
  --fifo_size_;
  return ev;
}

void Switch::ResizeFifo(std::size_t new_cap) {
  // Ring indexing masks with size-1, so capacity must stay a power of two.
  PooledVector<Event> bigger(new_cap);
  const std::size_t mask = fifo_.empty() ? 0 : fifo_.size() - 1;
  for (std::size_t i = 0; i < fifo_size_; ++i) {
    bigger[i] = std::move(fifo_[(fifo_head_ + i) & mask]);
  }
  fifo_ = std::move(bigger);
  fifo_head_ = 0;
}

void Switch::HeapPush(Event ev) {
  heap_.push_back(std::move(ev));
  std::push_heap(heap_.begin(), heap_.end(), EventAfter{});
}

Switch::Event Switch::HeapPop() noexcept {
  std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  return ev;
}

void Switch::DispatchEvent(Event& ev) {
  ++total_passes_;  // arms every bound register array for this pass
  last_dispatched_ = ev.time;
  if (ev.source == PacketSource::kRecirculation) ++recirc_passes_;

  scratch_.Clear();
  program_->Process(ev.packet, ev.time, ev.source, scratch_);

  for (Packet& p : scratch_.recirculate) {
    HeapPush({ev.time + kRecircLatency, next_seq_++,
              PacketSource::kRecirculation, std::move(p)});
  }
  if (to_controller_ && !scratch_.to_controller.empty()) {
    obs_to_controller_->Add(scratch_.to_controller.size());
    for (Packet& p : scratch_.to_controller) {
      to_controller_(std::move(p), ev.time + kToControllerLatency);
    }
  }
  if (scratch_.drop) {
    obs_dropped_->Add();
    return;
  }
  // Egress: port 0, or the flow's ECMP port. ECMP floods the all-zero
  // sentinel down every path.
  const Nanos out = ev.time + kPipelineLatency;
  int port = 0;
  if (ecmp_seed_ && !ports_.empty()) {
    if (ev.packet.ft == FiveTuple{}) {
      for (const PacketHandler& handler : ports_) {
        if (!handler) continue;
        obs_forwarded_->Add();
        handler(Packet(ev.packet), out);
      }
      return;
    }
    port = EcmpPort(ev.packet.Key(FlowKeyKind::kFiveTuple), ports_.size(),
                    *ecmp_seed_);
  }
  if (HasPortHandler(port)) {
    obs_forwarded_->Add();
    ports_[std::size_t(port)](std::move(ev.packet), out);
  }
}

std::size_t Switch::RunBatch(Nanos max_time) {
  // One span per drain, none per pass: the dispatch loop stays span-free
  // (docs/observability.md, "Keep span frames off measured hot loops").
  if (obs::Global().tracing()) {
    obs::ScopedSpan span(obs::Global(), "switch.run_batch");
    return Drain(max_time);
  }
  return Drain(max_time);
}

std::size_t Switch::Drain(Nanos max_time) {
  if (!program_ && (!LaneEmpty() || !heap_.empty())) {
    throw std::logic_error("Switch " + std::to_string(id_) + ": no program");
  }
  std::size_t processed = 0;

  while (true) {
    // Fast lane: a run of in-order wire packets with nothing on the heap
    // (the steady state between collection rounds) needs no lane
    // comparison — pop, process, repeat.
    while (!LaneEmpty() && heap_.empty()) {
      if (LaneFrontTime() > max_time) return processed;
      Event ev = LanePop();
      DispatchEvent(ev);
      ++processed;
    }

    const bool have_lane = !LaneEmpty();
    const bool have_heap = !heap_.empty();
    if (!have_lane && !have_heap) break;
    bool use_lane = have_lane;
    if (have_lane && have_heap) {
      const Nanos f = LaneFrontTime();
      const Event& h = heap_.front();
      use_lane = f != h.time ? f < h.time : LaneFrontSeq() < h.seq;
    }
    const Nanos front_time = use_lane ? LaneFrontTime() : heap_.front().time;
    if (front_time > max_time) break;
    Event ev = use_lane ? LanePop() : HeapPop();
    DispatchEvent(ev);
    ++processed;
  }
  return processed;
}

namespace {

void SaveEvent(SnapshotWriter& w, Nanos time, std::uint64_t seq,
               PacketSource source, const Packet& packet) {
  w.I64(time);
  w.U64(seq);
  w.U8(std::uint8_t(source));
  SavePacket(w, packet);
}

}  // namespace

void Switch::Save(SnapshotWriter& w) const {
  w.Section(snap::kSwitch);
  // The fed trace by reference: its size, how far it was read, and its
  // fingerprint, which Load checks against the restoring switch's trace.
  w.Size(trace_.size());
  w.Size(cursor_);
  w.U64(TraceFingerprint());
  // FIFO ring, serialized from the head in dispatch order.
  w.Size(fifo_size_);
  for (std::size_t i = 0; i < fifo_size_; ++i) {
    const Event& ev = fifo_[(fifo_head_ + i) & (fifo_.size() - 1)];
    SaveEvent(w, ev.time, ev.seq, ev.source, ev.packet);
  }
  // Heap lane in layout order: the array is a valid binary heap, so
  // restoring it verbatim reproduces the exact pop sequence.
  w.Size(heap_.size());
  for (const Event& ev : heap_) {
    SaveEvent(w, ev.time, ev.seq, ev.source, ev.packet);
  }
  w.U64(next_seq_);
  w.I64(last_dispatched_);
  w.U64(total_passes_);
  w.U64(recirc_passes_);
}

void Switch::Load(SnapshotReader& r) {
  r.Section(snap::kSwitch);
  const std::uint64_t trace_size = r.U64();
  if (trace_size != trace_.size()) {
    throw SnapshotError("Switch [section 0x14]: the snapshot's trace holds " +
                        std::to_string(trace_size) +
                        " packets, the trace this switch was fed " +
                        std::to_string(trace_.size()));
  }
  const std::uint64_t cursor = r.U64();
  if (cursor > trace_size) {
    throw SnapshotError("Switch [section 0x14]: trace cursor " +
                        std::to_string(cursor) + " is past the " +
                        std::to_string(trace_size) + "-packet trace");
  }
  if (r.U64() != TraceFingerprint()) {
    throw SnapshotError(
        "Switch [section 0x14]: the snapshot's trace fingerprint does not "
        "match the trace this switch was fed");
  }
  cursor_ = std::size_t(cursor);
  // The unread trace packets dispatch ahead of the ring and carry their
  // trace indices as seqs.
  bool any_event = TraceUnread();
  std::uint64_t max_seq = any_event ? trace_.size() - 1 : 0;
  const auto load_event = [&](Event& ev) {
    ev.time = r.I64();
    ev.seq = r.U64();
    max_seq = std::max(max_seq, ev.seq);
    any_event = true;
    const std::uint8_t source = r.U8();
    if (source > std::uint8_t(PacketSource::kRecirculation)) {
      throw SnapshotError("Switch [section 0x14]: event source byte " +
                          std::to_string(source) + " is not a PacketSource");
    }
    ev.source = PacketSource(source);
    LoadPacket(r, ev.packet);
  };
  // Counts are bounded by the bytes left (an event is at least its
  // time + seq + source) before either lane is sized.
  const std::size_t nfifo = r.Count(17);
  std::size_t cap = 64;
  while (cap < nfifo) cap *= 2;
  fifo_.clear();
  fifo_.resize(cap);
  fifo_head_ = 0;
  fifo_size_ = nfifo;
  // Both lanes dispatch as restored, so their order is checked here: the
  // wire lane must increase by (time, seq) from the unread trace into the
  // ring, and the heap array must be a heap.
  for (std::size_t i = 0; i < nfifo; ++i) {
    load_event(fifo_[i]);
    if (i > 0 && !EventAfter{}(fifo_[i], fifo_[i - 1])) {
      throw SnapshotError(
          "Switch [section 0x14]: FIFO entry " + std::to_string(i) +
          " (t=" + std::to_string(fifo_[i].time) + ", seq " +
          std::to_string(fifo_[i].seq) + ") does not follow entry " +
          std::to_string(i - 1) + " (t=" + std::to_string(fifo_[i - 1].time) +
          ", seq " + std::to_string(fifo_[i - 1].seq) + ")");
    }
  }
  if (nfifo > 0 && TraceUnread()) {
    const Event& head = fifo_[0];
    const Nanos tail_time = trace_.back().ts;
    const std::uint64_t tail_seq = trace_.size() - 1;
    if (head.time != tail_time ? head.time < tail_time : head.seq <= tail_seq) {
      throw SnapshotError(
          "Switch [section 0x14]: FIFO head (t=" + std::to_string(head.time) +
          ", seq " + std::to_string(head.seq) +
          ") does not follow the trace's last packet (t=" +
          std::to_string(tail_time) + ", seq " + std::to_string(tail_seq) +
          ")");
    }
  }
  heap_.clear();
  heap_.resize(r.Count(17));
  for (Event& ev : heap_) load_event(ev);
  if (!std::is_heap(heap_.begin(), heap_.end(), EventAfter{})) {
    throw SnapshotError("Switch [section 0x14]: the " +
                        std::to_string(heap_.size()) +
                        "-event heap lane is not a (time, seq) min-heap");
  }
  // New events take seqs from next_seq_ on; one at or below a restored
  // event's seq would win a time tie against it, and the wire lane's
  // time-only admission would no longer keep it sorted.
  next_seq_ = r.U64();
  if (any_event && next_seq_ <= max_seq) {
    throw SnapshotError("Switch [section 0x14]: saved next seq " +
                        std::to_string(next_seq_) +
                        " does not exceed the restored events' highest seq " +
                        std::to_string(max_seq));
  }
  last_dispatched_ = r.I64();
  total_passes_ = r.U64();
  recirc_passes_ = r.U64();
  // The arrays' access stamps may lie above the restored count (a restore
  // into a switch that ran past the snapshot); re-arm them against it.
  for (RegisterArray* reg : registers_) reg->BindPassEpoch(&total_passes_);
}

Nanos Switch::NextEventTime() const {
  Nanos t = -1;
  if (!LaneEmpty()) t = LaneFrontTime();
  if (!heap_.empty() && (t < 0 || heap_.front().time < t)) {
    t = heap_.front().time;
  }
  return t;
}

}  // namespace ow
