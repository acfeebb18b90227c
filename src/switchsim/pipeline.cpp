#include "src/switchsim/pipeline.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "src/common/snapshot.h"

namespace ow {

Switch::Switch(int id)
    : id_(id),
      obs_passes_(&obs::Global().GetCounter("switch.passes")),
      obs_recirc_passes_(&obs::Global().GetCounter("switch.recirc_passes")),
      obs_to_controller_(
          &obs::Global().GetCounter("switch.to_controller_packets")),
      obs_forwarded_(&obs::Global().GetCounter("switch.forwarded")),
      obs_dropped_(&obs::Global().GetCounter("switch.dropped_in_pipeline")) {}

void Switch::SetProgram(std::shared_ptr<SwitchProgram> program) {
  for (RegisterArray* r : registers_) r->BindPassEpoch(nullptr);
  program_ = std::move(program);
  registers_ = program_ ? program_->Registers() : std::vector<RegisterArray*>{};
  for (RegisterArray* r : registers_) r->BindPassEpoch(&pass_epoch_);
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
  // In-order arrivals ride the FIFO lane; a late arrival (links with jitter
  // can reorder) falls back to the heap so the (time, seq) total order is
  // preserved exactly.
  if (FifoAdmissible(ev.time)) {
    FifoPush(std::move(ev));
  } else {
    HeapPush(std::move(ev));
  }
}

void Switch::EnqueueFromController(Packet p, Nanos arrival) {
  NotifyActivity();
  HeapPush({arrival, next_seq_++, PacketSource::kController, std::move(p)});
}

void Switch::EnqueueTrace(std::span<const Packet> packets) {
  // Room for every packet on the ring, so a million-packet trace allocates
  // one ring instead of a doubling chain whose retired blocks the pool
  // keeps (docs/memory_arena.md). Late packets still go to the heap.
  const std::size_t need = fifo_size_ + packets.size();
  if (need > fifo_.size()) {
    ResizeFifo(std::bit_ceil(std::max<std::size_t>(64, need)));
  }
  for (const Packet& p : packets) EnqueueFromWire(p, p.ts);
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
  // One span per pipeline pass (wire, injected and recirculated alike):
  // in the Chrome trace, collection enumeration shows up as the burst of
  // recirculation passes between the trigger and the AFR reports. Costs a
  // load + branch unless tracing is enabled.
  obs::ScopedSpan span(obs::Global(),
                       ev.source == PacketSource::kRecirculation
                           ? "switch.pass.recirc"
                           : (ev.source == PacketSource::kController
                                  ? "switch.pass.injected"
                                  : "switch.pass.wire"));
  ++pass_epoch_;  // arms every bound register array for this pass
  last_dispatched_ = ev.time;
  ++total_passes_;
  obs_passes_->Add();
  if (ev.source == PacketSource::kRecirculation) {
    ++recirc_passes_;
    obs_recirc_passes_->Add();
  }

  scratch_.Clear();
  program_->Process(ev.packet, ev.time, ev.source, scratch_);

  for (Packet& p : scratch_.recirculate) {
    HeapPush({ev.time + kRecircLatency, next_seq_++,
              PacketSource::kRecirculation, std::move(p)});
  }
  if (to_controller_ && !scratch_.to_controller.empty()) {
    obs_to_controller_->Add(scratch_.to_controller.size());
    for (const Packet& p : scratch_.to_controller) {
      to_controller_(p, ev.time + kToControllerLatency);
    }
  }
  if (!scratch_.drop) {
    // Egress: the forwarding policy (ECMP) if the switch has one, else
    // port 0.
    const int port = policy_ ? policy_(ev.packet, ev.time) : 0;
    if (port == kFloodEgress) {
      for (const PacketHandler& out : ports_) {
        if (!out) continue;
        obs_forwarded_->Add();
        out(ev.packet, ev.time + kPipelineLatency);
      }
    } else if (HasPortHandler(port)) {
      obs_forwarded_->Add();
      ports_[std::size_t(port)](ev.packet, ev.time + kPipelineLatency);
    }
  } else {
    obs_dropped_->Add();
  }
}

std::size_t Switch::RunBatch(Nanos max_time) {
  if (!program_ && (!FifoEmpty() || !heap_.empty())) {
    throw std::logic_error("Switch " + std::to_string(id_) + ": no program");
  }
  std::size_t processed = 0;

  while (true) {
    // Fast lane: a run of in-order wire packets with nothing on the heap
    // (the steady state between collection rounds) needs no lane
    // comparison — pop, process, repeat.
    while (!FifoEmpty() && heap_.empty()) {
      if (FifoFront().time > max_time) return processed;
      Event ev = FifoPop();
      DispatchEvent(ev);
      ++processed;
    }

    const bool have_fifo = !FifoEmpty();
    const bool have_heap = !heap_.empty();
    if (!have_fifo && !have_heap) break;
    bool use_fifo = have_fifo;
    if (have_fifo && have_heap) {
      const Event& f = FifoFront();
      const Event& h = heap_.front();
      use_fifo = f.time != h.time ? f.time < h.time : f.seq < h.seq;
    }
    const Nanos front_time = use_fifo ? FifoFront().time : heap_.front().time;
    if (front_time > max_time) break;
    Event ev = use_fifo ? FifoPop() : HeapPop();
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
  // FIFO lane, serialized from the head in dispatch order.
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
  w.U64(pass_epoch_);
}

void Switch::Load(SnapshotReader& r) {
  r.Section(snap::kSwitch);
  std::uint64_t max_seq = 0;
  bool any_event = false;
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
  // FIFO must be sorted by (time, seq) and the heap array must be a heap.
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
  heap_.clear();
  heap_.resize(r.Count(17));
  for (Event& ev : heap_) load_event(ev);
  if (!std::is_heap(heap_.begin(), heap_.end(), EventAfter{})) {
    throw SnapshotError("Switch [section 0x14]: the " +
                        std::to_string(heap_.size()) +
                        "-event heap lane is not a (time, seq) min-heap");
  }
  // New events take seqs from next_seq_ on; one at or below a restored
  // event's seq would win a time tie against it, and the FIFO's time-only
  // admission would no longer keep the ring sorted.
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
  pass_epoch_ = r.U64();
}

Nanos Switch::NextEventTime() const {
  Nanos t = -1;
  if (!FifoEmpty()) t = FifoFront().time;
  if (!heap_.empty() && (t < 0 || heap_.front().time < t)) {
    t = heap_.front().time;
  }
  return t;
}

}  // namespace ow
