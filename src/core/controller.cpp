#include "src/core/controller.h"

#include <algorithm>
#include <chrono>
#include <ranges>
#include <stdexcept>

#include "src/common/snapshot.h"
#include "src/controller/dpdk_model.h"
#include "src/core/afr_wire.h"

namespace ow {
namespace {

constexpr Nanos kWireLatency = 2 * kMicro;  // controller NIC -> switch port
/// RDMA cold-key append buffer registered by InitRdma.
constexpr std::size_t kRdmaBufferBytes = 8u << 20;
/// A key becomes "hot" (address-MAT resident) after appearing in this many
/// distinct sub-windows (§7).
constexpr std::uint32_t kHotKeyThreshold = 2;

/// Wall-clock measurement of one controller CPU operation.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  Nanos Elapsed() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Add `seq` to a sorted, unique sequence list; false if already there.
/// In-order arrival appends; a retransmitted seq is inserted in place.
bool InsertSeq(PooledVector<std::uint32_t>& seqs, std::uint32_t seq) {
  if (seqs.empty() || seqs.back() < seq) {
    seqs.push_back(seq);
    return true;
  }
  const auto it = std::lower_bound(seqs.begin(), seqs.end(), seq);
  if (*it == seq) return false;
  seqs.insert(it, seq);
  return true;
}

}  // namespace

OmniWindowController::OmniWindowController(ControllerConfig cfg,
                                           MergeKind merge_kind)
    : cfg_(cfg),
      merge_kind_(merge_kind),
      table_(cfg.kv_capacity) {
  cfg_.window.Validate();
  obs::Registry& reg = obs::Global();
  obs_.trigger_gaps_recovered =
      &reg.GetCounter("controller.trigger_gaps_recovered");
  obs_.merge_records = &reg.GetCounter("merge.records");
  obs_.retry_attempts = &reg.GetHistogram("controller.retry_attempts");
  obs_.o1_collect_ns = &reg.GetHistogram("controller.o1_collect_ns");
  obs_.o2_insert_ns = &reg.GetHistogram("controller.o2_insert_ns");
  obs_.o3_merge_ns = &reg.GetHistogram("controller.o3_merge_ns");
  obs_.o4_process_ns = &reg.GetHistogram("controller.o4_process_ns");
  obs_.o5_evict_ns = &reg.GetHistogram("controller.o5_evict_ns");
}

void OmniWindowController::AttachSwitch(Switch* sw) { switch_ = sw; }

std::shared_ptr<RdmaContext> OmniWindowController::InitRdma(RdmaNic& nic) {
  rdma_ctx_ = std::make_shared<RdmaContext>();
  rdma_ctx_->nic = &nic;
  // Hot-key attr mirror: one 32-byte attr block per hot slot.
  table_mr_ = &nic.RegisterMemory(std::max<std::size_t>(
      32 * 1024, cfg_.kv_capacity * 4));  // capacity/8 hot slots
  buffer_mr_ = &nic.RegisterMemory(kRdmaBufferBytes);
  rdma_ctx_->table_rkey = table_mr_->rkey();
  rdma_ctx_->buffer_rkey = buffer_mr_->rkey();
  rdma_ctx_->buffer_bytes = buffer_mr_->size();
  return rdma_ctx_;
}

void OmniWindowController::OnPacket(const Packet& p, Nanos arrival) {
  if (!p.ow.present) return;
  obs::ScopedSpan span(obs::Global(), "controller.on_packet");
  switch (p.ow.flag) {
    case OwFlag::kTrigger: {
      const SubWindowNum sw = p.ow.subwindow_num;
      // Lamport-style gap recovery: a trigger for `sw` proves every earlier
      // sub-window terminated too, so a missing one means its trigger was
      // lost on the report path.
      EnsureCollectedThrough(sw, arrival);
      PendingSubWindow& pending = pending_[sw];
      pending.subwindow = sw;
      // max(): a duplicate trigger must not lower a count already raised by
      // the completion notification.
      pending.expected_dataplane =
          std::max(pending.expected_dataplane, p.ow.payload);
      StartCollection(pending, arrival);
      // A new termination is the natural point to chase losses of OLDER
      // sub-windows. Skip the immediately preceding one: consecutive
      // terminations can arrive back to back (idle-gap catch-up) while its
      // collection is still queued, and chasing it would only inject
      // no-op requests.
      for (auto& [old_sw, old_pending] : pending_) {
        if (old_sw + 1 < sw && NeedsChase(old_pending)) {
          RequestRetransmissions(old_pending, arrival);
        }
      }
      MaybeFinalize(arrival);
      return;
    }
    case OwFlag::kSpilledKey: {
      SpilledKeys& spilled = spilled_[p.ow.subwindow_num];
      if (spilled.seen.insert(p.ow.injected_key).second) {
        spilled.keys.push_back(p.ow.injected_key);
        ++stats_.spilled_keys_stored;
      }
      return;
    }
    case OwFlag::kAfrReport: {
      const SubWindowNum sw = p.ow.subwindow_num;
      auto it = pending_.find(sw);
      if (it == pending_.end()) return;  // already finalized (stale dup)
      PendingSubWindow& pending = it->second;
      if (p.ow.afrs.empty()) {
        // Completion notification. payload = the final enumerated count
        // (both modes; in RDMA mode it also marks the memory regions
        // drainable, and the drain happens right here — waiting until
        // finalize would let the next collection's buffer writes overwrite
        // slots this one has not read yet).
        pending.expected_dataplane =
            std::max(pending.expected_dataplane, p.ow.payload);
        pending.count_final = true;
        if (p.ow.degraded) {
          // The switch aborted this sub-window's C&R (overrun force-finish)
          // or destroyed its region before collecting it: the announced
          // count undercounts the truth and no retry can recover the gap.
          // Degrade the covering window explicitly.
          MarkDegraded(sw);
          ++stats_.subwindows_degraded_by_switch;
        }
        if (cfg_.rdma) {
          pending.rdma_done = true;
          DrainRdma(pending);
        }
      }
      for (const FlowRecord& rec : p.ow.afrs) {
        pending.o1_collect += dpdk::kPerRxPacket;
        if (rec.seq_id != kNoExplicitIndex && cfg_.rdma &&
            pending.mirror_keys.contains(rec.key)) {
          // Chased hot-key seq: the value already merged via the mirror
          // drain; the report only proves the sequence number exists.
          InsertSeq(pending.seqs_seen, rec.seq_id);
          continue;
        }
        if (!AcceptRecord(pending, rec)) ++stats_.duplicate_afrs;
      }
      MaybeFinalize(arrival);
      return;
    }
    case OwFlag::kLatencySpike: {
      // §5: copies of packets delayed beyond the preserve horizon. The
      // controller "processes them as needed": for invertible (frequency)
      // statistics it folds them into the not-yet-finalized sub-window so
      // the packet is not lost to measurement.
      ++stats_.spike_packets;
      const SubWindowNum sw = p.ow.payload;
      auto it = pending_.find(sw);
      if (it != pending_.end() && merge_kind_ == MergeKind::kFrequency) {
        FlowRecord rec;
        rec.key = p.ow.injected_key;
        rec.attrs[0] = 1;  // one packet's worth of frequency
        rec.num_attrs = 1;
        rec.subwindow = sw;
        rec.seq_id = kNoExplicitIndex;
        it->second.records.push_back(rec);
      } else {
        // The copy cannot be folded back (sub-window already finalized, or
        // the statistic is not invertible): the measurement for that
        // sub-window is knowably short one packet. Degrade the covering
        // window explicitly instead of staying silently wrong.
        MarkDegraded(sw);
      }
      return;
    }
    default:
      return;
  }
}

void OmniWindowController::EnsureCollectedThrough(SubWindowNum through,
                                                  Nanos now) {
  // Every sub-window below `through` has terminated; one the controller has
  // never heard of lost its trigger on the report path. Start its
  // collection now — the switch replays the full C&R (its region has not
  // been reset, and finished collections answer from the retransmission
  // cache) and the completion notification establishes the record count.
  for (SubWindowNum gap = next_to_finalize_; gap < through; ++gap) {
    if (pending_.contains(gap)) continue;
    PendingSubWindow& recovered = pending_[gap];
    recovered.subwindow = gap;
    obs_.trigger_gaps_recovered->Add();
    StartCollection(recovered, now);
  }
}

std::span<const FlowKey> OmniWindowController::SpilledKeysOf(
    SubWindowNum sw) const {
  const auto it = spilled_.find(sw);
  if (it == spilled_.end()) return {};
  return it->second.keys;
}

void OmniWindowController::StartCollection(PendingSubWindow& pending,
                                           Nanos now) {
  if (pending.collection_started) return;
  obs::ScopedSpan span(obs::Global(), "controller.start_collection");
  pending.collection_started = true;
  const SubWindowNum sw = pending.subwindow;
  const std::span<const FlowKey> spilled = SpilledKeysOf(sw);
  pending.expected_injected = std::uint32_t(spilled.size());

  if (!switch_) return;

  // Return the trigger after the grace period (Figure 3 step 2).
  Nanos tx_time = now + cfg_.grace_period;
  SendToSwitch(OwFlag::kTrigger, sw, pending.expected_injected, {}, tx_time);

  // Inject controller-resident flowkeys, one packet each, paced at the
  // controller's TX cost (CPC-style path). With RDMA the cost depends on
  // who resolves write addresses: the switch's address MAT (cheap batched
  // TX) or the controller itself (per-key table lookup, the CPC* case).
  Nanos per_tx = dpdk::kPerTxPacket;
  if (cfg_.rdma) {
    per_tx = cfg_.rdma_controller_resolves_addresses
                 ? dpdk::kPerTxPacket + dpdk::kPerTxAddrLookup
                 : dpdk::kPerTxPacketRdma;
  }
  for (const FlowKey& key : spilled) {
    tx_time += per_tx;
    pending.o1_collect += per_tx;
    SendToSwitch(OwFlag::kFlowkeyInject, sw, 0, key, tx_time);
  }

  // Inject the collection packets that enumerate the data-plane key array.
  for (std::size_t i = 0; i < cfg_.collection_packets; ++i) {
    tx_time += per_tx;
    pending.o1_collect += per_tx;
    SendToSwitch(OwFlag::kCollection, sw, kNoExplicitIndex, {}, tx_time);
  }
}

void OmniWindowController::SendToSwitch(OwFlag flag, SubWindowNum sw,
                                        std::uint32_t payload,
                                        const FlowKey& key, Nanos tx_time) {
  Packet p;
  p.ow.present = true;
  p.ow.app_id = cfg_.app_id;
  p.ow.flag = flag;
  p.ow.subwindow_num = sw;
  p.ow.payload = payload;
  p.ow.injected_key = key;
  switch_->EnqueueFromController(p, tx_time + kWireLatency);
}

bool OmniWindowController::AcceptRecord(PendingSubWindow& pending,
                                        const FlowRecord& rec) {
  const bool fresh = rec.seq_id != kNoExplicitIndex
                         ? InsertSeq(pending.seqs_seen, rec.seq_id)
                         : pending.injected_keys_seen.insert(rec.key).second;
  if (fresh) {
    pending.records.push_back(rec);
    ++stats_.afrs_received;
  }
  return fresh;
}

bool OmniWindowController::IsComplete(const PendingSubWindow& p) const {
  if (p.lost) return false;
  if (!p.collection_started) return false;
  if (cfg_.rdma) {
    if (!p.rdma_done) return false;
    // A clean drain (no fault-induced holes) is complete on its own. With
    // holes, fall through to the generic coverage check: the seq chase
    // recovers the lost WRITEs through the report path.
    if (p.rdma_holes == 0) return true;
  }
  if (!p.count_final) return false;
  if (p.injected_keys_seen.size() < p.expected_injected) return false;
  // seqs_seen may contain indices >= expected (keys added between
  // termination and collection start); require full coverage of [0, n).
  // It is sorted and unique, so [0, n) is covered iff its n-th entry is
  // n - 1.
  const std::uint32_t n = p.expected_dataplane;
  return p.seqs_seen.size() >= n && (n == 0 || p.seqs_seen[n - 1] == n - 1);
}

void OmniWindowController::MaybeFinalize(Nanos now) {
  while (true) {
    auto it = pending_.find(next_to_finalize_);
    if (it == pending_.end()) return;
    // A takeover-lost sub-window can never complete; retire it immediately
    // as degraded so the sub-windows behind it are not blocked.
    const bool complete = !it->second.lost && IsComplete(it->second);
    if (!complete && !it->second.lost) return;
    FinalizeSubWindow(it->second, now, complete);
    Retire(it);
  }
}

void OmniWindowController::Retire(
    PooledMap<SubWindowNum, PendingSubWindow>::iterator it) {
  spilled_.erase(it->first);
  pending_.erase(it);
  ++next_to_finalize_;
}

void OmniWindowController::FinalizeSubWindow(PendingSubWindow& pending,
                                             Nanos now, bool complete) {
  obs::ScopedSpan span(obs::Global(), "controller.finalize_subwindow");
  // Normally drained at notification time; this covers force-finalize of a
  // sub-window whose notification never arrived (DrainRdma is idempotent).
  if (cfg_.rdma) DrainRdma(pending);
  obs_.retry_attempts->Record(pending.retransmit_attempts);
  if (!complete) MarkDegraded(pending.subwindow);
  obs_.o1_collect_ns->Record(std::uint64_t(pending.o1_collect));
  // §8: construct AFRs from migrated state (e.g. FlowRadar decode); its
  // wall time is part of this sub-window's O3 sample.
  Nanos transform_ns = 0;
  if (transform_) {
    WallTimer timer;
    pending.records = transform_(std::move(pending.records));
    transform_ns = timer.Elapsed();
  }

  // O2 + O3: table inserts, then attribute merges.
  {
    const std::uint64_t rejected = table_.rejected_inserts();
    const MergeTiming mt =
        MergeBatch(merge_kind_, pending.records, table_, merge_scratch_);
    // A refused insert leaves its key out of every window over this
    // sub-window: flag them rather than emit them short, and keep the
    // record out of history_ so that O5 never retires what never landed.
    if (table_.rejected_inserts() != rejected) {
      MarkDegraded(pending.subwindow);
      std::size_t kept = 0;
      for (std::size_t i = 0; i < pending.records.size(); ++i) {
        if (!merge_scratch_[i].first) continue;
        pending.records[kept++] = pending.records[i];
      }
      pending.records.resize(kept);
    }
    obs_.merge_records->Add(pending.records.size());
    obs_.o2_insert_ns->Record(std::uint64_t(mt.insert));
    obs_.o3_merge_ns->Record(std::uint64_t(transform_ns + mt.merge));
  }
  if (cfg_.rdma) UpdateHotKeys(pending);
  history_.emplace_back(pending.subwindow, std::move(pending.records));
  if (complete) {
    ++stats_.subwindows_finalized;
  } else {
    // Retransmission attempts exhausted: the merged sub-window is missing
    // records. Accounted separately so lossy runs are diagnosable instead
    // of folding silently into the clean-finalize count.
    ++stats_.subwindows_force_finalized;
  }
  EmitWindowsAfter(pending.subwindow, now);
  stats_.inserts_rejected = table_.rejected_inserts();
}

void OmniWindowController::MarkDegraded(SubWindowNum sw) {
  if (degraded_.insert(sw).second) {
    stats_.degraded_subwindows.push_back(sw);
  }
}

void OmniWindowController::EmitWindowsAfter(SubWindowNum sw, Nanos now) {
  // Every window type but sliding advances by a whole window (S == W).
  const std::size_t W = cfg_.window.SubWindowsPerWindow();
  const std::size_t S = cfg_.window.SubWindowsPerSlide();
  if (sw + 1 < W || (sw + 1 - W) % S != 0) return;

  const SubWindowSpan span{SubWindowNum(sw + 1 - W), sw};
  bool partial = false;
  for (SubWindowNum d : degraded_) {
    if (span.Contains(d)) {
      partial = true;
      break;
    }
  }
  // O4: process the merged result.
  {
    obs::ScopedSpan ospan(obs::Global(), "controller.o4_process");
    WallTimer timer;
    if (handler_) {
      handler_(WindowResult{span, &table_, now, partial});
    }
    obs_.o4_process_ns->Record(std::uint64_t(timer.Elapsed()));
  }
  ++stats_.windows_emitted;
  if (partial) ++stats_.windows_partial;
  // Degraded marks below the next window's first sub-window can never be
  // covered again.
  const SubWindowNum next_first = span.first + S;
  degraded_.erase(degraded_.begin(), degraded_.lower_bound(next_first));

  // O5 / O6: retire sub-windows that no future window needs.
  {
    obs::ScopedSpan ospan(obs::Global(), "controller.o5_evict");
    WallTimer timer;
    EvictFromTable(next_first);
    TrimHistory();
    obs_.o5_evict_ns->Record(std::uint64_t(timer.Elapsed()));
  }
}

void OmniWindowController::EvictFromTable(SubWindowNum keep_from) {
  // The retired sub-windows' records, read in place: history_ holds every
  // record the table was merged from, in sub-window order.
  const SubWindowNum old_floor = table_floor_;
  table_floor_ = std::max(table_floor_, keep_from);
  auto retired = history_ | std::views::filter([&](const auto& h) {
                   return h.first >= old_floor && h.first < keep_from;
                 }) |
                 std::views::values | std::views::join;

  if (history_.empty() || history_.back().first < keep_from) {
    // No retained sub-window stays in the table (every tumbling emission):
    // the retired keys are all it holds.
    for (const FlowRecord& rec : retired) table_.Erase(rec.key);
    return;
  }

  if (merge_kind_ == MergeKind::kFrequency) {
    // Frequency merges invert: subtract and drop emptied slots.
    for (const FlowRecord& rec : retired) {
      KvSlot* slot = table_.Find(rec.key);
      if (!slot) continue;
      bool all_zero = true;
      for (std::size_t i = 0; i < rec.num_attrs; ++i) {
        slot->attrs[i] -= std::min(slot->attrs[i], rec.attrs[i]);
      }
      for (std::size_t i = 0; i < slot->num_attrs; ++i) {
        if (slot->attrs[i] != 0) all_zero = false;
      }
      if (all_zero) table_.Erase(rec.key);
    }
    return;
  }

  // Non-invertible merges: rebuild the retired keys' slots in place from
  // the sub-windows still reflected in the table. Mark each retired key's
  // slot, re-merge every retained record of a marked slot (its first touch
  // copies, as a fresh insert would), then erase the marked slots no
  // retained record touched. Nothing moves before the erases, so the slot
  // pointers stay valid until then.
  evict_slots_.clear();
  for (const FlowRecord& rec : retired) {
    if (KvSlot* slot = table_.Find(rec.key)) evict_slots_.push_back(slot);
  }
  std::sort(evict_slots_.begin(), evict_slots_.end());
  evict_slots_.erase(std::unique(evict_slots_.begin(), evict_slots_.end()),
                     evict_slots_.end());
  if (evict_slots_.empty()) return;
  evict_touched_.assign(evict_slots_.size(), 0);
  for (const auto& [hsw, recs] : history_) {
    if (hsw < table_floor_) continue;
    for (const FlowRecord& rec : recs) {
      KvSlot* slot = table_.Find(rec.key);
      const auto it =
          std::lower_bound(evict_slots_.begin(), evict_slots_.end(), slot);
      if (it == evict_slots_.end() || *it != slot) continue;
      std::uint8_t& touched = evict_touched_[it - evict_slots_.begin()];
      ApplyMerge(merge_kind_, *slot, /*created=*/touched == 0, rec);
      touched = 1;
    }
  }
  evict_stale_.clear();
  for (std::size_t i = 0; i < evict_slots_.size(); ++i) {
    if (!evict_touched_[i]) evict_stale_.push_back(evict_slots_[i]->key);
  }
  for (const FlowKey& key : evict_stale_) table_.Erase(key);
}

void OmniWindowController::TrimHistory() {
  // Keep what future windows need plus the user-requested retention.
  const std::size_t needed =
      cfg_.window.SubWindowsPerWindow() + cfg_.retain_subwindows;
  while (history_.size() > needed &&
         history_.front().first < table_floor_) {
    history_.pop_front();
  }
}

bool OmniWindowController::QueryRange(SubWindowSpan span,
                                      KeyValueTable& out) const {
  // Verify full coverage of the span in retained history. history_ ascends
  // in sub-window order, so the span is covered iff one walk meets each of
  // its sub-windows in turn.
  std::uint64_t next = span.first;  // 64-bit: span.last may be the maximum
  for (const auto& h : history_) {
    if (h.first == next && next <= span.last) ++next;
  }
  if (next <= span.last) return false;
  out.Clear();
  for (const auto& [hsw, recs] : history_) {
    if (!span.Contains(hsw)) continue;
    for (const FlowRecord& rec : recs) {
      bool created = false;
      KvSlot& slot = out.FindOrInsert(rec.key, created);
      ApplyMerge(merge_kind_, slot, created, rec);
    }
  }
  return true;
}

std::optional<SubWindowSpan> OmniWindowController::RetainedSpan() const {
  if (history_.empty()) return std::nullopt;
  return SubWindowSpan{history_.front().first, history_.back().first};
}

void OmniWindowController::RequestRetransmissions(PendingSubWindow& pending,
                                                  Nanos now) {
  if (!switch_) return;
  obs::ScopedSpan span(obs::Global(), "controller.request_retransmissions");
  if (cfg_.rdma && pending.rdma_done && pending.rdma_holes == 0) {
    // Clean RDMA drain: nothing on the report path to chase. (Legacy runs
    // always land here, so arming zero faults changes nothing.)
    return;
  }
  ++pending.retransmit_attempts;
  // Every round reissues at once; only the per-packet TX cost spaces it.
  Nanos tx_time = now;
  const auto request = [&](OwFlag flag, std::uint32_t payload,
                           const FlowKey& key) {
    tx_time += dpdk::kPerTxPacket;
    SendToSwitch(flag, pending.subwindow, payload, key, tx_time);
    ++stats_.retransmissions_requested;
  };
  if (cfg_.rdma && !pending.rdma_done) {
    // Only the completion notification can be outstanding before the drain;
    // probe for it (the switch re-notifies a finished collection).
    request(OwFlag::kCollection, kNoExplicitIndex, {});
    return;
  }
  // Missing data-plane sequence numbers.
  for (std::uint32_t s = 0; s < pending.expected_dataplane; ++s) {
    if (!std::binary_search(pending.seqs_seen.begin(),
                            pending.seqs_seen.end(), s)) {
      request(OwFlag::kCollection, s, {});
    }
  }
  // The completion notification itself may have been lost: without it the
  // final record count is unknown, so the per-seq chase above cannot cover
  // the tail. Probe with an enumeration request — the switch answers a
  // finished collection from its retransmission cache with a fresh
  // notification.
  if (!cfg_.rdma && !pending.count_final) {
    request(OwFlag::kCollection, kNoExplicitIndex, {});
  }
  // Missing injected keys.
  for (const FlowKey& key : SpilledKeysOf(pending.subwindow)) {
    if (!pending.injected_keys_seen.contains(key)) {
      request(OwFlag::kFlowkeyInject, 0, key);
    }
  }
}

void OmniWindowController::DrainRdma(PendingSubWindow& pending) {
  if (!buffer_mr_ || !table_mr_) return;
  if (pending.rdma_drained) return;
  pending.rdma_drained = true;
  // Cold-key buffer: decode sequential 64-byte records up to the NIC's
  // write high-water mark. Slots the writer attempted but whose record is
  // missing or fails its checksum (dropped / truncated WRITE) are counted
  // as holes the seq chase must fill; every scanned slot is zeroed so
  // fault-corrupted bytes cannot resurface in a later collection.
  auto bytes = buffer_mr_->bytes();
  const std::size_t limit =
      std::min<std::size_t>(bytes.size(), buffer_mr_->write_hwm());
  for (std::size_t off = 0; off + kAfrWireBytes <= limit;
       off += kAfrWireBytes) {
    std::span<const std::uint8_t, kAfrWireBytes> slot(bytes.data() + off,
                                                      kAfrWireBytes);
    if (IsIntactRecord(slot)) {
      AcceptRecord(pending, DecodeFlowRecord(slot));
    } else {
      ++pending.rdma_holes;
      ++stats_.rdma_holes_detected;
    }
    std::fill(bytes.begin() + off, bytes.begin() + off + kAfrWireBytes, 0);
  }
  buffer_mr_->ResetWriteHwm();
  // Hot-key mirror: one 32-byte attr block per hot slot.
  for (const auto& [key, slot_index] : hot_slots_) {
    const std::size_t off = slot_index * 32;
    bool any = false;
    std::array<std::uint64_t, 4> attrs{};
    for (std::size_t i = 0; i < 4; ++i) {
      attrs[i] = table_mr_->ReadU64(off + i * 8);
      if (attrs[i] != 0) any = true;
    }
    if (!any) continue;
    FlowRecord rec;
    rec.key = key;
    rec.attrs = attrs;
    rec.num_attrs = 4;
    rec.subwindow = pending.subwindow;
    rec.seq_id = kNoExplicitIndex;
    pending.records.push_back(rec);
    pending.mirror_keys.insert(key);
    ++stats_.afrs_received;
    for (std::size_t i = 0; i < 4; ++i) table_mr_->WriteU64(off + i * 8, 0);
  }
  // A spilled key that went hot mid-stream lands in the mirror instead of
  // producing an injected-key record; its mirror value covers it.
  for (const FlowKey& key : SpilledKeysOf(pending.subwindow)) {
    if (pending.mirror_keys.contains(key)) {
      pending.injected_keys_seen.insert(key);
    }
  }
}

void OmniWindowController::UpdateHotKeys(const PendingSubWindow& pending) {
  if (!rdma_ctx_ || !table_mr_) return;
  const std::size_t max_hot = table_mr_->size() / 32;
  for (const FlowRecord& rec : pending.records) {
    const std::uint32_t count = ++hot_counts_[rec.key];
    if (count >= kHotKeyThreshold && !hot_slots_.contains(rec.key) &&
        next_hot_slot_ < max_hot) {
      const std::size_t slot = next_hot_slot_++;
      hot_slots_[rec.key] = slot;
      rdma_ctx_->address_mat.Install(rec.key, slot * 32);
    }
  }
}

bool OmniWindowController::NeedsChase(const PendingSubWindow& pending) const {
  return pending.collection_started && !pending.lost &&
         pending.retransmit_attempts < kMaxRetransmitAttempts &&
         !IsComplete(pending);
}

bool OmniWindowController::ChaseIncomplete(Nanos now) {
  bool asked = false;
  for (auto& [sw, pending] : pending_) {
    if (NeedsChase(pending)) {
      RequestRetransmissions(pending, now);
      asked = true;
    }
  }
  return asked;
}

OmniWindowController::TakeoverPlan OmniWindowController::BeginTakeover(
    SubWindowNum through, Nanos now,
    const std::function<OmniWindowProgram::CollectRecoverability(
        SubWindowNum)>& classify) {
  obs::ScopedSpan span(obs::Global(), "controller.begin_takeover");
  using Rec = OmniWindowProgram::CollectRecoverability;
  TakeoverPlan plan;
  for (SubWindowNum sw = next_to_finalize_; sw < through; ++sw) {
    PendingSubWindow& pending = pending_[sw];
    pending.subwindow = sw;
    // A pending the snapshot already fully collected needs nothing from the
    // switch (it was merely blocked behind an earlier sub-window); asking
    // again — or worse, marking it lost on a cache miss — would be wrong.
    if (IsComplete(pending)) continue;
    // The snapshot's retry spend belongs to the dead primary; the standby
    // chases with a fresh budget.
    pending.retransmit_attempts = 0;
    switch (classify(sw)) {
      case Rec::kIntact:
        // The switch never started this sub-window's C&R — its region state
        // is intact; collect it through the normal path.
        StartCollection(pending, now);
        ++plan.requeried;
        break;
      case Rec::kActive:
      case Rec::kCached: {
        // C&R is running/queued (reports will keep arriving at this
        // controller — the wiring is live, only the state was stale) or has
        // finished with its records in the retransmission cache. Either
        // way, do NOT re-trigger: probe and chase. Injected-key records are
        // not cached, so any the snapshot had not yet seen are gone once
        // the collection is past its inject phase; lower the expectation
        // and flag rather than stall on an unanswerable re-inject.
        pending.collection_started = true;
        if (pending.expected_injected >
            std::uint32_t(pending.injected_keys_seen.size())) {
          pending.expected_injected =
              std::uint32_t(pending.injected_keys_seen.size());
          MarkDegraded(sw);
        }
        RequestRetransmissions(pending, now);
        ++plan.requeried;
        break;
      }
      case Rec::kLost:
        // Started, finished, and evicted from the cache before the standby
        // could ask: unrecoverable. Flag instead of losing silently.
        pending.lost = true;
        MarkDegraded(sw);
        ++plan.lost;
        break;
    }
  }
  MaybeFinalize(now);
  return plan;
}

bool OmniWindowController::Flush(Nanos now) {
  obs::ScopedSpan span(obs::Global(), "controller.flush");
  if (ChaseIncomplete(now)) return false;
  // Finalize whatever remains, in order. Sub-windows that are complete but
  // were blocked behind an incomplete earlier one count as clean finalizes;
  // only the ones still missing records are "forced".
  while (!pending_.empty()) {
    auto it = pending_.begin();
    if (it->first > next_to_finalize_) next_to_finalize_ = it->first;
    FinalizeSubWindow(it->second, now, IsComplete(it->second));
    Retire(it);
  }
  return true;
}

namespace {

template <typename Set>
void SaveSet(SnapshotWriter& w, const Set& s) {
  w.Size(s.size());
  for (const auto& v : s) w.Pod(v);
}

template <typename Set>
void LoadSet(SnapshotReader& r, Set& s) {
  s.clear();
  const std::size_t n = r.Count(sizeof(typename Set::value_type));
  for (std::size_t i = 0; i < n; ++i) {
    typename Set::value_type v;
    r.Pod(v);
    s.insert(s.end(), v);  // read back in sorted order: end() is the hint
  }
}

}  // namespace

void OmniWindowController::SavePending(SnapshotWriter& w,
                                       const PendingSubWindow& p) const {
  w.U32(p.expected_dataplane);
  w.U32(p.expected_injected);
  w.PodVec(p.records);
  w.PodVec(p.seqs_seen);  // a count, then the seqs ascending
  SaveSet(w, p.injected_keys_seen);
  w.Bool(p.collection_started);
  w.U32(p.retransmit_attempts);
  w.Bool(p.count_final);
  w.Bool(p.lost);
  w.Pod(p.o1_collect);
}

void OmniWindowController::LoadPending(SnapshotReader& r,
                                       PendingSubWindow& p) const {
  p.expected_dataplane = r.U32();
  p.expected_injected = r.U32();
  r.PodVec(p.records);
  for (const FlowRecord& rec : p.records) {
    CheckRecord(rec.key, rec.num_attrs, snap::kController,
                "OmniWindowController", "a pending record");
  }
  r.PodVec(p.seqs_seen);
  // IsComplete and the seq inserts rely on a sorted, unique list.
  for (std::size_t i = 1; i < p.seqs_seen.size(); ++i) {
    if (p.seqs_seen[i] <= p.seqs_seen[i - 1]) {
      throw SnapshotError(
          "OmniWindowController [section 0x1C]: pending sub-window " +
          std::to_string(p.subwindow) + " seq entry " + std::to_string(i) +
          " (" + std::to_string(p.seqs_seen[i]) + ") does not exceed entry " +
          std::to_string(i - 1) + " (" + std::to_string(p.seqs_seen[i - 1]) +
          ")");
    }
  }
  LoadSet(r, p.injected_keys_seen);
  for (const FlowKey& key : p.injected_keys_seen) {
    CheckKey(key, snap::kController, "OmniWindowController",
             "a pending injected key");
  }
  p.collection_started = r.Bool();
  p.retransmit_attempts = r.U32();
  p.count_final = r.Bool();
  // The RDMA flags, hole count and mirror keys keep the defaults Load's
  // fresh pending_ entry has: they move only under RDMA, and a controller
  // with RDMA neither saves nor loads.
  p.lost = r.Bool();
  r.Pod(p.o1_collect);
}

void OmniWindowController::Save(SnapshotWriter& w) const {
  if (cfg_.rdma) {
    throw SnapshotError(
        "OmniWindowController: the RDMA collection path shares externally "
        "owned NIC/MR state and is not checkpointable");
  }
  w.Section(snap::kController);
  table_.Save(w);
  w.Size(history_.size());
  for (const auto& [sub, recs] : history_) {
    w.Pod(sub);
    w.PodVec(recs);
  }
  w.Size(pending_.size());
  for (const auto& [sub, p] : pending_) {
    w.Pod(sub);
    SavePending(w, p);
  }
  w.Size(spilled_.size());
  for (const auto& [sub, spilled] : spilled_) {
    w.Pod(sub);
    w.PodVec(spilled.keys);
  }
  SaveSet(w, degraded_);
  w.Pod(next_to_finalize_);
  w.Pod(table_floor_);
  w.U64(stats_.afrs_received);
  w.U64(stats_.subwindows_finalized);
  w.U64(stats_.subwindows_force_finalized);
  w.U64(stats_.windows_emitted);
  w.U64(stats_.spilled_keys_stored);
  w.U64(stats_.retransmissions_requested);
  w.U64(stats_.spike_packets);
  w.U64(stats_.duplicate_afrs);
  w.U64(stats_.windows_partial);
  w.U64(stats_.subwindows_degraded_by_switch);
  w.PodVec(stats_.degraded_subwindows);
}

void OmniWindowController::Load(SnapshotReader& r) {
  if (cfg_.rdma) {
    throw SnapshotError(
        "OmniWindowController: the RDMA collection path is not "
        "checkpointable");
  }
  r.Section(snap::kController);
  table_.Load(r);
  stats_.inserts_rejected = table_.rejected_inserts();
  history_.clear();
  // Map/list entry counts come off the untrusted stream; bound each by the
  // smallest possible serialized entry (key + length prefix) so a forged
  // count throws instead of ballooning allocations.
  const std::size_t num_history = r.Count(sizeof(SubWindowNum) + 8);
  for (std::size_t i = 0; i < num_history; ++i) {
    const SubWindowNum sub = r.Get<SubWindowNum>();
    // O5, TrimHistory and QueryRange walk history_ in sub-window order.
    if (i > 0 && sub <= history_.back().first) {
      throw SnapshotError(
          "OmniWindowController [section 0x1C]: history entry " +
          std::to_string(i) + " (sub-window " + std::to_string(sub) +
          ") does not follow sub-window " +
          std::to_string(history_.back().first));
    }
    RecordVec recs;
    r.PodVec(recs);
    for (const FlowRecord& rec : recs) {
      CheckRecord(rec.key, rec.num_attrs, snap::kController,
                  "OmniWindowController", "a history record");
    }
    history_.emplace_back(sub, std::move(recs));
  }
  pending_.clear();
  const std::size_t num_pending = r.Count(sizeof(SubWindowNum) + 8);
  for (std::size_t i = 0; i < num_pending; ++i) {
    const SubWindowNum sub = r.Get<SubWindowNum>();
    PendingSubWindow& p = pending_[sub];
    p.subwindow = sub;
    LoadPending(r, p);
  }
  spilled_.clear();
  const std::size_t num_spilled = r.Count(sizeof(SubWindowNum) + 8);
  for (std::size_t i = 0; i < num_spilled; ++i) {
    const SubWindowNum sub = r.Get<SubWindowNum>();
    SpilledKeys& spilled = spilled_[sub];
    r.PodVec(spilled.keys);
    spilled.seen.clear();
    for (const FlowKey& key : spilled.keys) {
      CheckKey(key, snap::kController, "OmniWindowController",
               "a spilled key");
      // The list is what the dedupe let through: each key once.
      if (!spilled.seen.insert(key).second) {
        throw SnapshotError(
            "OmniWindowController [section 0x1C]: sub-window " +
            std::to_string(sub) + " lists a spilled key twice");
      }
    }
  }
  LoadSet(r, degraded_);
  r.Pod(next_to_finalize_);
  r.Pod(table_floor_);
  stats_.afrs_received = r.U64();
  stats_.subwindows_finalized = r.U64();
  stats_.subwindows_force_finalized = r.U64();
  stats_.windows_emitted = r.U64();
  stats_.spilled_keys_stored = r.U64();
  stats_.retransmissions_requested = r.U64();
  stats_.spike_packets = r.U64();
  stats_.duplicate_afrs = r.U64();
  stats_.windows_partial = r.U64();
  stats_.rdma_holes_detected = 0;
  stats_.subwindows_degraded_by_switch = r.U64();
  r.PodVec(stats_.degraded_subwindows);
}

}  // namespace ow
