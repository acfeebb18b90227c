#include "src/core/data_plane.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <string>

#include "src/common/snapshot.h"
#include "src/core/afr_wire.h"
#include "src/core/state_layout.h"

namespace ow {

OmniWindowProgram::OmniWindowProgram(OmniWindowConfig cfg, AdapterPtr app)
    : cfg_(cfg),
      app_(std::move(app)),
      signal_(cfg.signal),
      tracker_(cfg.tracker) {
  if (!app_) throw std::invalid_argument("OmniWindowProgram: null adapter");
}

void OmniWindowProgram::Process(Packet& p, Nanos now, PacketSource src,
                                PipelineActions& act) {
  (void)src;
  if (p.ow.present) {
    switch (p.ow.flag) {
      case OwFlag::kTrigger:
        // Trigger returned by the controller: start collection.
        HandleCollectionStart({p.ow.subwindow_num, p.ow.payload});
        act.drop = true;
        return;
      case OwFlag::kCollection:
        HandleCollection(p, act);
        act.drop = true;
        return;
      case OwFlag::kFlowkeyInject:
        HandleFlowkeyInject(p, act);
        act.drop = true;
        return;
      case OwFlag::kReset:
        HandleReset(p, act);
        act.drop = true;
        return;
      case OwFlag::kNormal:
        break;  // measured below
      default:
        // Report flags (kAfrReport etc.) never enter a pipeline.
        act.drop = true;
        return;
    }
  }
  HandleNormal(p, now, act);
}

void OmniWindowProgram::HandleNormal(Packet& p, Nanos now,
                                     PipelineActions& act) {
  // --- consistency model (§5) ---
  if (!p.ow.present) {
    if (cfg_.first_hop) {
      std::uint32_t fired = signal_.Advance(p, now);
      while (fired-- > 0) TerminateSubWindow(now, act);
    }
    p.ow.present = true;
    p.ow.flag = OwFlag::kNormal;
    p.ow.subwindow_num = current_;
    // User-defined signals (§5): the packet BELONGS to the sub-window its
    // embedded number names, which may lag the newest one (e.g. a slow DML
    // worker still transmitting iteration i while another started i+1).
    if (cfg_.first_hop && cfg_.signal.kind == SignalKind::kUserDefined &&
        p.iteration != kNoIteration) {
      if (user_base_ == kNoIteration) user_base_ = p.iteration;
      if (p.iteration >= user_base_) {
        const SubWindowNum sw = p.iteration - user_base_;
        if (sw <= current_) p.ow.subwindow_num = sw;
      }
    }
  } else if (p.ow.subwindow_num > current_) {
    // Embedded number is newer: the window-moving signal propagates here.
    while (current_ < p.ow.subwindow_num) TerminateSubWindow(now, act);
  }

  const SubWindowNum sw = p.ow.subwindow_num;
  if (sw + cfg_.preserve_subwindows < current_) {
    // Latency spike: beyond the preserve horizon. Escalate a copy to the
    // controller instead of corrupting a recycled region (§5).
    ++stats_.stale_packets;
    Packet copy = p;
    copy.ow.flag = OwFlag::kLatencySpike;
    copy.ow.injected_key = p.Key(app_->key_kind());
    copy.ow.payload = sw;
    act.to_controller.push_back(std::move(copy));
    return;
  }

  const int region = RegionedArray::RegionOf(sw);
  app_->Update(p, region);
  if (sw > last_writer_[region]) last_writer_[region] = sw;
  ++stats_.packets_measured;

  // Flowkey tracking only serves AFR generation; state-migration apps and
  // invertible sketches do not need it.
  if (!app_->TracksOwnKeys() && app_->SupportsAfr()) {
    const FlowKey key = p.Key(app_->key_kind());
    const auto outcome = tracker_.Track(region, key);
    if (outcome == FlowkeyTracker::Outcome::kSpilled) {
      ++stats_.spilled_keys;
      Packet copy;
      copy.ow.present = true;
      copy.ow.flag = OwFlag::kSpilledKey;
      copy.ow.subwindow_num = sw;
      copy.ow.injected_key = key;
      act.to_controller.push_back(std::move(copy));
    }
  }
}

void OmniWindowProgram::TerminateSubWindow(Nanos now, PipelineActions& act) {
  (void)now;
  if (collect_.active) {
    // C&R of the previous sub-window has not finished — the paper sizes
    // sub-windows so this never happens; we recover but count it.
    ++stats_.collect_overruns;
    ForceFinishCollection();
  }
  const SubWindowNum ended = current_;
  const int region = RegionedArray::RegionOf(ended);
  ++current_;
  ++stats_.terminations;

  Packet trigger;
  trigger.ow.present = true;
  trigger.ow.flag = OwFlag::kTrigger;
  trigger.ow.subwindow_num = ended;
  if (!app_->SupportsAfr()) {
    trigger.ow.payload = std::uint32_t(app_->NumResetSlices());
  } else {
    trigger.ow.payload = std::uint32_t(
        app_->TracksOwnKeys() ? app_->TrackedKeys(region).size()
                              : tracker_.Keys(region).size());
  }
  act.to_controller.push_back(std::move(trigger));
}

void OmniWindowProgram::HandleCollectionStart(CollectStart start) {
  // Idempotent triggers: a sub-window whose C&R already ran must not run a
  // second one — the region was reset at enumeration end, so a re-run would
  // enumerate nothing and (same-parity hazard below) falsely mark newer
  // sub-windows compromised. Duplicates arise from dup-injecting report
  // links and from a standby controller re-triggering while the dead
  // primary's trigger return is still in flight (takeover); losses on the
  // re-announce path are already served by the retransmission cache.
  if (start.sw < collect_started_through_) return;
  if (collect_.active) {
    // A C&R is already running (multiple sub-windows terminated together);
    // queue this start until the active one completes.
    pending_starts_.push_back(start);
    return;
  }
  const SubWindowNum sw = start.sw;
  collect_ = CollectState{};
  collect_.active = true;
  collect_.subwindow = sw;
  if (sw + 1 > collect_started_through_) collect_started_through_ = sw + 1;
  collect_.region = RegionedArray::RegionOf(sw);
  collect_.injected_remaining = start.injected;
  // Late-collection hazard: if a newer same-parity sub-window has already
  // written this region (this C&R was delayed past the region's reuse
  // point), the values enumerated now are contaminated by the newer
  // sub-window's traffic, and the reset at enumeration end destroys that
  // sub-window's state before its own C&R can read it. Neither is
  // recoverable; mark the whole same-parity span so every count
  // announcement for it carries the degraded bit.
  if (last_writer_[collect_.region] > sw) MarkCompromised(sw, collect_.region);
  // Bound the retransmission cache to the last few sub-windows.
  while (afr_cache_.size() >= kRetransmitCacheDepth) {
    afr_cache_.erase(afr_cache_.begin());
  }
  if (!app_->SupportsAfr()) {
    // State migration (§8): enumerate raw slices, not keys.
    collect_keys_.clear();
    collect_.num_keys = std::uint32_t(app_->NumResetSlices());
  } else {
    if (app_->TracksOwnKeys()) {
      collect_keys_ = app_->TrackedKeys(collect_.region);
    } else {
      collect_keys_ = tracker_.Keys(collect_.region);
    }
    collect_.num_keys = std::uint32_t(collect_keys_.size());
  }
}

void OmniWindowProgram::EmitAfr(const FlowKey& key, std::uint32_t seq,
                                PipelineActions& act) {
  FlowRecord rec = app_->Query(key, collect_.region, collect_.subwindow);
  rec.seq_id = seq;
  rec.subwindow = collect_.subwindow;
  EmitRecord(std::move(rec), act);
}

void OmniWindowProgram::EmitRecord(FlowRecord rec, PipelineActions& act) {
  ++stats_.afr_generated;
  if (rec.seq_id != kNoExplicitIndex) {
    // Retransmission cache (reliability, §8): keep the generated records of
    // recent collections; the state may be gone when a loss is detected.
    auto& cache = afr_cache_[rec.subwindow];
    if (cache.size() <= rec.seq_id) cache.resize(rec.seq_id + 1);
    cache[rec.seq_id] = rec;
  }
  const FlowKey& key = rec.key;

  if (rdma_ && rdma_->nic) {
    // §7: craft an RDMA request instead of a report packet.
    auto offset = rdma_->address_mat.TryLookup(key);
    if (offset && *offset != UINT64_MAX) {
      // Hot key: write (or aggregate) straight into the key-value table MR.
      if (app_->merge_kind() == MergeKind::kFrequency) {
        RdmaRequestBuilder b(rdma_->table_rkey);
        // Seed the PSN from our running counter to keep ordering.
        RdmaRequest req = b.FetchAdd(*offset, rec.attrs[0]);
        req.psn = rdma_psn_++;
        rdma_->nic->Execute(req);
        ++stats_.rdma_fetch_adds;
      } else {
        RdmaRequestBuilder b(rdma_->table_rkey);
        std::array<std::uint8_t, 32> payload{};
        std::memcpy(payload.data(), rec.attrs.data(), 32);
        RdmaRequest req = b.Write(*offset, payload);
        req.psn = rdma_psn_++;
        rdma_->nic->Execute(req);
        ++stats_.rdma_writes;
      }
    } else {
      // Cold key: append the encoded record to the buffer MR.
      std::array<std::uint8_t, kAfrWireBytes> wire{};
      EncodeFlowRecord(rec, wire);
      if (collect_.buffer_cursor + kAfrWireBytes <= rdma_->buffer_bytes) {
        RdmaRequestBuilder b(rdma_->buffer_rkey);
        RdmaRequest req = b.Write(collect_.buffer_cursor, wire);
        req.psn = rdma_psn_++;
        rdma_->nic->Execute(req);
        collect_.buffer_cursor += kAfrWireBytes;
        ++stats_.rdma_writes;
      }
    }
    return;
  }

  // One report packet per AFR (a clone to the controller).
  Packet report;
  report.ow.present = true;
  report.ow.flag = OwFlag::kAfrReport;
  report.ow.subwindow_num = collect_.subwindow;
  report.ow.afrs.push_back(std::move(rec));
  act.to_controller.push_back(std::move(report));
}

void OmniWindowProgram::HandleCollection(Packet& p, PipelineActions& act) {
  if (p.ow.payload != kNoExplicitIndex) {
    // Retransmission: re-emit one specific AFR from the cache, then die.
    // Served even after the collection finished — the cache outlives it.
    const std::uint32_t idx = p.ow.payload;
    auto cached = afr_cache_.find(p.ow.subwindow_num);
    if (cached != afr_cache_.end() && idx < cached->second.size() &&
        cached->second[idx].subwindow != kInvalidSubWindow) {
      Packet report;
      report.ow.present = true;
      report.ow.flag = OwFlag::kAfrReport;
      report.ow.subwindow_num = p.ow.subwindow_num;
      report.ow.afrs.push_back(cached->second[idx]);
      act.to_controller.push_back(std::move(report));
    }
    return;
  }
  // Serialize concurrent collections: a collection packet for a LATER
  // sub-window than the active one waits (recirculates) until its start is
  // processed; one for an earlier sub-window is stale and dies.
  if (!collect_.active || p.ow.subwindow_num != collect_.subwindow) {
    // A cached sub-window already ran its C&R: this is the controller
    // probing because the completion notification was lost on the report
    // path. Re-announce the final count from the cache instead of dying.
    auto cached = afr_cache_.find(p.ow.subwindow_num);
    if (cached != afr_cache_.end()) {
      Packet done;
      done.ow.present = true;
      done.ow.flag = OwFlag::kAfrReport;
      done.ow.subwindow_num = p.ow.subwindow_num;
      done.ow.payload = std::uint32_t(cached->second.size());
      // A force-finished collection cached only a prefix of its records;
      // announcing that truncated size as final must not read as exact.
      done.ow.degraded = compromised_.contains(p.ow.subwindow_num);
      act.to_controller.push_back(std::move(done));
      return;
    }
    WaitOrDie(p, act);
    return;
  }
  if (collect_.resetting) return;

  const std::uint32_t idx = collect_.collect_counter++;
  if (idx >= collect_.num_keys) {
    if (collect_.injected_remaining > 0) {
      // Controller-resident keys are still being injected; idle-loop until
      // they drain so reset does not race the injected queries.
      collect_.collect_counter = collect_.num_keys;
      act.recirculate.push_back(p);
      return;
    }
    // Enumeration done: convert to a clear packet (Algorithm 2, lines 5-6).
    if (!collect_.resetting) {
      collect_.resetting = true;
      tracker_.Reset(collect_.region);
      // Completion notification: announces the FINAL enumerated count
      // (keys may have been added between termination and collection
      // start), so the controller's completeness check covers every
      // sequence number and can chase losses in the tail. In RDMA mode it
      // additionally signals that the memory regions can be drained.
      Packet done;
      done.ow.present = true;
      done.ow.flag = OwFlag::kAfrReport;
      done.ow.subwindow_num = collect_.subwindow;
      done.ow.payload = collect_.num_keys;
      done.ow.degraded = compromised_.contains(collect_.subwindow);
      act.to_controller.push_back(std::move(done));
    }
    p.ow.flag = OwFlag::kReset;
    act.recirculate.push_back(p);
    return;
  }
  if (!app_->SupportsAfr()) {
    // State migration: ship raw slice `idx` of the terminated region.
    FlowRecord rec =
        app_->MigrateSlice(collect_.region, idx, collect_.subwindow);
    rec.seq_id = idx;
    rec.subwindow = collect_.subwindow;
    EmitRecord(std::move(rec), act);
  } else {
    EmitAfr(collect_keys_[idx], idx, act);
  }
  act.recirculate.push_back(p);
}

void OmniWindowProgram::WaitOrDie(Packet& p, PipelineActions& act) {
  const bool future =
      (collect_.active && p.ow.subwindow_num > collect_.subwindow) ||
      (!collect_.active && !pending_starts_.empty());
  if (future) act.recirculate.push_back(p);
}

void OmniWindowProgram::HandleFlowkeyInject(Packet& p, PipelineActions& act) {
  if (!collect_.active || p.ow.subwindow_num != collect_.subwindow) {
    WaitOrDie(p, act);
    return;
  }
  EmitAfr(p.ow.injected_key, kNoExplicitIndex, act);
  if (collect_.injected_remaining > 0) --collect_.injected_remaining;
}

void OmniWindowProgram::HandleReset(Packet& p, PipelineActions& act) {
  if (!collect_.active) return;
  const std::uint32_t idx = collect_.reset_counter++;
  if (idx >= app_->NumResetSlices()) {
    // All slices cleared; this and subsequent clear packets die here.
    collect_.active = false;
    StartNextQueued();
    return;
  }
  app_->ResetSlice(collect_.region, idx);
  ++stats_.reset_passes;
  act.recirculate.push_back(p);
}

OmniWindowProgram::CollectRecoverability
OmniWindowProgram::QueryRecoverability(SubWindowNum sw) const {
  if (collect_.active && collect_.subwindow == sw) {
    return CollectRecoverability::kActive;
  }
  for (const CollectStart& start : pending_starts_) {
    if (start.sw == sw) return CollectRecoverability::kActive;
  }
  if (afr_cache_.contains(sw)) return CollectRecoverability::kCached;
  if (sw >= collect_started_through_) return CollectRecoverability::kIntact;
  return CollectRecoverability::kLost;
}

void OmniWindowProgram::ForceFinishCollection() {
  if (!collect_.resetting) {
    // Aborting mid-enumeration loses data twice over: this sub-window's
    // remaining records are never generated (its cached prefix must not be
    // re-announced as a final count), and the region reset below destroys
    // whatever newer same-parity sub-windows have written since. Mark the
    // span so every count announcement for it carries the degraded bit.
    MarkCompromised(collect_.subwindow, collect_.region);
    tracker_.Reset(collect_.region);
  }
  for (std::uint32_t i = collect_.reset_counter; i < app_->NumResetSlices();
       ++i) {
    app_->ResetSlice(collect_.region, i);
  }
  collect_ = CollectState{};
  StartNextQueued();
}

void OmniWindowProgram::StartNextQueued() {
  if (pending_starts_.empty()) return;
  const CollectStart next = pending_starts_.front();
  pending_starts_.pop_front();
  HandleCollectionStart(next);
}

void OmniWindowProgram::MarkCompromised(SubWindowNum sw, int region) {
  for (SubWindowNum k = sw; k <= std::max(last_writer_[region], sw); k += 2) {
    compromised_.insert(k);
  }
  while (compromised_.size() > 4 * kRetransmitCacheDepth) {
    compromised_.erase(compromised_.begin());
  }
}

void OmniWindowProgram::ChargeResources(ResourceLedger& ledger) const {
  // Per-feature charges mirroring Table 2 of the paper.
  {
    ResourceUsage u;
    u.stages = {0};
    u.sram_bytes = SignalGenerator::kSramBytes;
    u.salus = SignalGenerator::kSalus;
    u.vliw = SignalGenerator::kVliw;
    u.gateways = SignalGenerator::kGateways;
    ledger.Charge("Signal", u);
  }
  {
    ResourceUsage u;
    u.stages = {0};
    u.vliw = 2;
    u.gateways = 1;
    ledger.Charge("Consistency model", u);
  }
  {
    ResourceUsage u;
    u.stages = {1};
    u.sram_bytes = 16 * 1024;  // offset MAT entries
    u.vliw = 2;
    ledger.Charge("Address location", u);
  }
  if (!app_->TracksOwnKeys()) {
    ledger.Charge("Flowkey tracking", tracker_.Resources());
  }
  {
    ResourceUsage u;
    u.stages = {5};
    u.vliw = 4;
    u.gateways = 3;
    ledger.Charge("AFR generation", u);
  }
  if (rdma_) {
    ResourceUsage u;
    u.stages = {5, 6, 7, 8, 9};
    u.sram_bytes = 928 * 1024;  // address MAT + RoCE state
    u.salus = 2;                // PSN + buffer cursor registers
    u.vliw = 20;
    u.gateways = 13;
    ledger.Charge("RDMA opt.", u);
  }
  {
    ResourceUsage u;
    u.stages = {5, 6, 7};
    u.sram_bytes = 32 * 1024;  // reset counter + slice bookkeeping
    u.salus = 1;
    u.vliw = 5;
    u.gateways = 5;
    ledger.Charge("In-switch reset", u);
  }
  app_->ChargeResources(ledger);
}

void OmniWindowProgram::Save(SnapshotWriter& w) {
  if (rdma_) {
    throw SnapshotError(
        "OmniWindowProgram: the RDMA collection path shares externally "
        "owned NIC/MR state and is not checkpointable");
  }
  w.Section(snap::kProgram);
  signal_.Save(w);
  tracker_.Save(w);
  app_->SaveState(w);
  w.Pod(current_);
  // Field by field: a Pod copy of the struct would also write its padding,
  // whose bytes are indeterminate.
  w.Bool(collect_.active);
  w.Bool(collect_.resetting);
  w.U32(collect_.subwindow);
  w.U32(std::uint32_t(collect_.region));
  w.U32(collect_.num_keys);
  w.U32(collect_.collect_counter);
  w.U32(collect_.reset_counter);
  w.U32(collect_.injected_remaining);
  w.Size(pending_starts_.size());
  for (const CollectStart& start : pending_starts_) {
    w.Pod(start.sw);
    w.U32(start.injected);
  }
  w.PodVec(collect_keys_);
  w.Size(afr_cache_.size());
  for (const auto& [sub, recs] : afr_cache_) {
    w.Pod(sub);
    w.PodVec(recs);
  }
  w.Size(compromised_.size());
  for (const SubWindowNum s : compromised_) w.Pod(s);
  w.Pod(last_writer_[0]);
  w.Pod(last_writer_[1]);
  w.Pod(collect_started_through_);
  w.U32(user_base_);
  w.Pod(stats_);
}

void OmniWindowProgram::Load(SnapshotReader& r) {
  if (rdma_) {
    throw SnapshotError(
        "OmniWindowProgram: the RDMA collection path is not checkpointable");
  }
  r.Section(snap::kProgram);
  signal_.Load(r);
  tracker_.Load(r);
  app_->LoadState(r);
  r.Pod(current_);
  collect_.active = r.Bool();
  collect_.resetting = r.Bool();
  collect_.subwindow = r.U32();
  const std::uint32_t region = r.U32();
  if (region > 1) {
    throw SnapshotError("OmniWindowProgram [section 0x1A]: collect region " +
                        std::to_string(region) + " is not 0 or 1");
  }
  collect_.region = int(region);
  collect_.num_keys = r.U32();
  collect_.collect_counter = r.U32();
  collect_.reset_counter = r.U32();
  collect_.injected_remaining = r.U32();
  // The RDMA cold-key append offset moves only under an RDMA context, and
  // a program with one neither saves nor loads.
  collect_.buffer_cursor = 0;
  // Counts come off the untrusted stream: bound each by its smallest
  // serialized entry (a sub-window number and an injected-key count; a
  // sub-window number and a length prefix; a sub-window number).
  pending_starts_.clear();
  const std::size_t num_starts = r.Count(sizeof(SubWindowNum) + 4);
  for (std::size_t i = 0; i < num_starts; ++i) {
    CollectStart start;
    r.Pod(start.sw);
    start.injected = r.U32();
    pending_starts_.push_back(start);
  }
  r.PodVec(collect_keys_);
  for (const FlowKey& key : collect_keys_) {
    CheckKey(key, snap::kProgram, "OmniWindowProgram", "a collect key");
  }
  // HandleCollection reads collect_keys_[idx] (AFR apps) or migrates slice
  // idx (state-migration apps) for every idx below num_keys.
  const std::size_t enumerable =
      app_->SupportsAfr() ? collect_keys_.size() : app_->NumResetSlices();
  if (collect_.num_keys > enumerable) {
    throw SnapshotError("OmniWindowProgram [section 0x1A]: collect num_keys " +
                        std::to_string(collect_.num_keys) + " exceeds the " +
                        std::to_string(enumerable) +
                        " entries the sub-window can enumerate");
  }
  afr_cache_.clear();
  const std::size_t num_cached = r.Count(sizeof(SubWindowNum) + 8);
  for (std::size_t i = 0; i < num_cached; ++i) {
    const SubWindowNum sub = r.Get<SubWindowNum>();
    RecordVec recs;
    r.PodVec(recs);
    for (const FlowRecord& rec : recs) {
      CheckKey(rec.key, snap::kProgram, "OmniWindowProgram",
               "a retransmission-cache record's key");
    }
    afr_cache_.emplace(sub, std::move(recs));
  }
  compromised_.clear();
  const std::size_t num_compromised = r.Count(sizeof(SubWindowNum));
  for (std::size_t i = 0; i < num_compromised; ++i) {
    compromised_.insert(r.Get<SubWindowNum>());
  }
  r.Pod(last_writer_[0]);
  r.Pod(last_writer_[1]);
  r.Pod(collect_started_through_);
  user_base_ = r.U32();
  r.Pod(stats_);
}

}  // namespace ow
