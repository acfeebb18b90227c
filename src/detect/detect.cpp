#include "src/detect/detect.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/common/snapshot.h"

namespace ow::detect {

FlowKey EntityFromCode(std::uint64_t code) {
  const std::uint8_t b[4] = {std::uint8_t(code >> 32), std::uint8_t(code >> 24),
                             std::uint8_t(code >> 16), std::uint8_t(code >> 8)};
  std::uint32_t address;
  std::memcpy(&address, b, 4);
  const auto kind = FlowKeyKind(code & 0xFF);
  return FlowKey(kind, {.src_ip = address, .dst_ip = address});
}

const char* HealthStateName(HealthState s) {
  switch (s) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kDown: return "down";
  }
  return "?";
}

void ScoreModel::Absorb(double value, bool freeze,
                        const ScoreModelConfig& cfg) {
  // The ring holds at most baseline_lag + 1 values: size it once, on the
  // entity's first absorb, instead of growing it by doubling.
  if (lag_ring_.capacity() <= cfg.baseline_lag) {
    lag_ring_.reserve(cfg.baseline_lag + 1);
  }
  lag_ring_.push_back(value);
  if (lag_ring_.size() <= cfg.baseline_lag) return;
  const double delayed = lag_ring_.front();
  lag_ring_.erase(lag_ring_.begin());
  // While the entity is suspect the delayed value is discarded outright:
  // attack-era traffic must never become the baseline it is judged against.
  if (!freeze) {
    baseline_ = cfg.alpha * delayed + (1.0 - cfg.alpha) * baseline_;
  }
}

bool HysteresisFsm::Step(double score, const HysteresisConfig& cfg) {
  HealthState next = state_;
  switch (state_) {
    case HealthState::kHealthy:
      if (score >= cfg.enter_score) {
        cool_streak_ = 0;
        if (++hot_streak_ >= cfg.enter_dwell) next = HealthState::kDegraded;
      } else {
        hot_streak_ = 0;
      }
      break;
    case HealthState::kDegraded:
      if (score >= cfg.down_score) {
        cool_streak_ = 0;
        if (++hot_streak_ >= cfg.enter_dwell) next = HealthState::kDown;
      } else if (score <= cfg.exit_score) {
        hot_streak_ = 0;
        if (++cool_streak_ >= cfg.exit_dwell) next = HealthState::kHealthy;
      } else {
        // Hysteresis band: hold the state, reset both streaks.
        hot_streak_ = 0;
        cool_streak_ = 0;
      }
      break;
    case HealthState::kDown:
      if (score <= cfg.exit_score) {
        hot_streak_ = 0;
        if (++cool_streak_ >= cfg.exit_dwell) next = HealthState::kDegraded;
      } else {
        cool_streak_ = 0;
      }
      break;
  }
  if (next == state_) return false;
  prev_ = state_;
  state_ = next;
  hot_streak_ = 0;
  cool_streak_ = 0;
  return true;
}

EntityDetector::EntityDetector(const DetectorConfig& cfg, int switch_id)
    : cfg_(cfg), switch_id_(switch_id) {}

void EntityDetector::OnWindow(const WindowResult& w) {
  // Aggregate the (arbitrary-kind, arbitrary-order) flow table into sorted
  // per-entity totals first: scoring must not observe table slot order.
  codes_.clear();
  codes_.reserve(2 * w.table->size());  // at most two entities per slot
  w.table->ForEach([&](const KvSlot& slot) {
    const std::uint64_t v = slot.attrs[0];
    if (v == 0) return;
    const FlowKey& key = slot.key;
    switch (key.kind()) {
      case FlowKeyKind::kFiveTuple:
      case FlowKeyKind::kIpPair:
        codes_.emplace_back(EntityCode(FlowKeyKind::kSrcIp, key.src_ip()), v);
        codes_.emplace_back(EntityCode(FlowKeyKind::kDstIp, key.dst_ip()), v);
        break;
      case FlowKeyKind::kSrcIp:
      case FlowKeyKind::kDstIp:
        // Both store their one address first, where src_ip() reads.
        codes_.emplace_back(EntityCode(key.kind(), key.src_ip()), v);
        break;
      case FlowKeyKind::kSrcIpDstPort:
        // Only the source address survives this projection.
        codes_.emplace_back(EntityCode(FlowKeyKind::kSrcIp, key.src_ip()), v);
        break;
    }
  });
  std::sort(codes_.begin(), codes_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Reduce each run of equal codes in place, then decode the survivors.
  std::size_t n = 0;
  for (std::size_t i = 0; i < codes_.size(); ++i) {
    if (n > 0 && codes_[n - 1].first == codes_[i].first) {
      codes_[n - 1].second += codes_[i].second;
    } else {
      codes_[n++] = codes_[i];
    }
  }
  totals_.clear();
  totals_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    totals_.emplace_back(EntityFromCode(codes_[i].first), codes_[i].second);
  }
  ScoreTotals(totals_, w.span, w.completed_at, w.partial);
}

bool EntityDetector::Admit(const FlowKey& key, double value,
                           EntityState** out) {
  if (entities_.size() >= cfg_.max_entities) {
    // Evict the quiet entity with the smallest baseline, but only if the
    // newcomer looks bigger than what it displaces. std::map order makes
    // the tie-break (smallest key) deterministic. The scan is
    // O(max_entities) per admission attempt at cap; that is acceptable
    // because admissions are floor-gated (min_baseline) and the cap is
    // sized so steady state sits below it — sustained churn of distinct
    // above-floor sources pays O(cap) per newcomer per window.
    auto victim = entities_.end();
    double victim_baseline = value;
    for (auto it = entities_.begin(); it != entities_.end(); ++it) {
      if (!it->second.fsm.quiet()) continue;
      if (it->second.model.baseline() < victim_baseline) {
        victim = it;
        victim_baseline = it->second.model.baseline();
        // Baselines cannot be negative: the first quiet zero-baseline
        // entity (smallest key among them) is already the final choice.
        if (victim_baseline <= 0.0) break;
      }
    }
    if (victim == entities_.end()) {
      ++stats_.admissions_rejected;
      return false;
    }
    entities_.erase(victim);
    ++stats_.evictions;
  }
  *out = &entities_[key];
  stats_.tracked_peak = std::max(stats_.tracked_peak, entities_.size());
  return true;
}

void EntityDetector::StepEntity(const FlowKey& key, EntityState& st,
                                std::uint64_t value, SubWindowSpan span,
                                Nanos completed_at, bool partial) {
  const double v = double(value);
  const double score = st.model.Score(v, cfg_.score);
  const bool suspect = score >= cfg_.fsm.enter_score ||
                       st.fsm.state() != HealthState::kHealthy;
  const HealthState before = st.fsm.state();
  if (st.fsm.Step(score, cfg_.fsm)) {
    const HealthState after = st.fsm.state();
    Alert a;
    a.switch_id = switch_id_;
    a.entity = key;
    a.from = before;
    a.to = after;
    a.score = score;
    a.value = value;
    a.span = span;
    a.window_start = Nanos(span.first) * cfg_.subwindow_size;
    a.window_end = Nanos(span.last + 1) * cfg_.subwindow_size;
    a.completed_at = completed_at;
    a.partial = partial;
    alerts_.push_back(a);
    switch (after) {
      case HealthState::kDegraded:
        if (before == HealthState::kHealthy) {
          ++stats_.transitions_degraded;
        } else {
          ++stats_.recoveries;  // down -> degraded is a partial recovery
        }
        break;
      case HealthState::kDown:
        ++stats_.transitions_down;
        break;
      case HealthState::kHealthy:
        ++stats_.recoveries;
        break;
    }
  }
  st.model.Absorb(v, suspect, cfg_.score);
  if (value == 0) {
    ++st.idle_windows;
  } else {
    st.idle_windows = 0;
  }
}

void EntityDetector::OnTotals(std::span<const EntityTotal> totals,
                              SubWindowSpan span, Nanos completed_at,
                              bool partial) {
  for (std::size_t i = 1; i < totals.size(); ++i) {
    if (!(totals[i - 1].first < totals[i].first)) {
      throw std::invalid_argument(
          "EntityDetector::OnTotals: entry " + std::to_string(i) + " (" +
          totals[i].first.ToString() + ") does not follow entry " +
          std::to_string(i - 1) + " (" + totals[i - 1].first.ToString() +
          "): totals must be sorted strictly ascending");
    }
  }
  ScoreTotals(totals, span, completed_at, partial);
}

void EntityDetector::ScoreTotals(std::span<const EntityTotal> totals,
                                 SubWindowSpan span, Nanos completed_at,
                                 bool partial) {
  ++stats_.windows;
  if (partial) ++stats_.partial_windows;

  if (cold_) {
    // The detector's first-ever window has no history to deviate from:
    // adopt it as the baseline. Steady heavy background entities must not
    // alert simply for existing; genuinely anomalous later arrivals will
    // deviate from these seeds.
    cold_ = false;
    for (const auto& [key, value] : totals) {
      if (double(value) < cfg_.score.min_baseline) continue;
      EntityState* st = nullptr;
      if (Admit(key, double(value), &st)) st->model.Seed(double(value));
    }
    return;
  }

  // One pass over the union of tracked entities and this window's totals,
  // in key order. Tracked entities absent from the window step with value
  // zero (their baseline decays toward eviction); untracked entities above
  // the admission floor start being tracked. Admissions are deferred past
  // the merge: Admit() at the capacity cap evicts an arbitrary quiet entity
  // from entities_, which could be the very element the merge cursor points
  // at — erasing it mid-pass would leave `te` dangling.
  fresh_.clear();
  auto te = entities_.begin();
  auto tv = totals.begin();
  while (te != entities_.end() || tv != totals.end()) {
    if (tv == totals.end() ||
        (te != entities_.end() && te->first < tv->first)) {
      // Tracked, absent this window.
      StepEntity(te->first, te->second, 0, span, completed_at, partial);
      if (te->second.fsm.quiet() &&
          te->second.idle_windows >= kIdleEvictWindows) {
        te = entities_.erase(te);
        ++stats_.evictions;
      } else {
        ++te;
      }
    } else if (te == entities_.end() || tv->first < te->first) {
      // Present, untracked: admission-gate on the scoring floor.
      if (double(tv->second) >= cfg_.score.min_baseline) {
        fresh_.push_back(*tv);
      }
      ++tv;
    } else {
      StepEntity(te->first, te->second, tv->second, span, completed_at,
                 partial);
      ++te;
      ++tv;
    }
  }
  // `fresh_` is in key order (so is `totals`), so admissions and any
  // capacity evictions they trigger remain deterministic.
  for (const auto& [key, value] : fresh_) {
    EntityState* st = nullptr;
    if (Admit(key, double(value), &st)) {
      StepEntity(key, *st, value, span, completed_at, partial);
    }
  }
  stats_.tracked_peak = std::max(stats_.tracked_peak, entities_.size());
}

DetectionService::DetectionService(const DetectorConfig& cfg,
                                   std::size_t num_switches) {
  for (std::size_t i = 0; i < num_switches; ++i) {
    detectors_.emplace_back(cfg, int(i));
  }
}

void DetectionService::OnWindow(std::size_t switch_id, const WindowResult& w) {
  detectors_[switch_id].OnWindow(w);
}

std::function<void(std::size_t, const WindowResult&)>
DetectionService::Observer() {
  return [this](std::size_t switch_id, const WindowResult& w) {
    OnWindow(switch_id, w);
  };
}

std::vector<Alert> DetectionService::Alerts() const {
  std::vector<Alert> all;
  for (const auto& d : detectors_) {
    all.insert(all.end(), d.alerts().begin(), d.alerts().end());
  }
  std::sort(all.begin(), all.end(), [](const Alert& a, const Alert& b) {
    if (a.window_end != b.window_end) return a.window_end < b.window_end;
    if (a.switch_id != b.switch_id) return a.switch_id < b.switch_id;
    if (a.entity != b.entity) return a.entity < b.entity;
    return a.to < b.to;
  });
  return all;
}

std::size_t DetectionService::tracked_total() const {
  std::size_t n = 0;
  for (const auto& d : detectors_) n += d.tracked();
  return n;
}

EntityDetector::Stats DetectionService::TotalStats() const {
  EntityDetector::Stats t;
  for (const auto& d : detectors_) {
    const auto& s = d.stats();
    t.windows += s.windows;
    t.partial_windows += s.partial_windows;
    t.transitions_degraded += s.transitions_degraded;
    t.transitions_down += s.transitions_down;
    t.recoveries += s.recoveries;
    t.evictions += s.evictions;
    t.admissions_rejected += s.admissions_rejected;
    t.tracked_peak += s.tracked_peak;
  }
  return t;
}

void ScoreModel::Save(SnapshotWriter& w) const {
  w.F64(baseline_);
  w.PodVec(lag_ring_);
}

void ScoreModel::Load(SnapshotReader& r) {
  baseline_ = r.F64();
  r.PodVec(lag_ring_);
}

void HysteresisFsm::Save(SnapshotWriter& w) const {
  w.U8(std::uint8_t(state_));
  w.U8(std::uint8_t(prev_));
  w.I64(hot_streak_);
  w.I64(cool_streak_);
}

void HysteresisFsm::Load(SnapshotReader& r) {
  state_ = HealthState(r.U8());
  prev_ = HealthState(r.U8());
  hot_streak_ = int(r.I64());
  cool_streak_ = int(r.I64());
}

void EntityDetector::Save(SnapshotWriter& w) const {
  w.Section(snap::kDetector);
  w.Bool(cold_);
  w.Size(entities_.size());
  for (const auto& [key, st] : entities_) {
    w.Pod(key);
    st.model.Save(w);
    st.fsm.Save(w);
    w.U32(st.idle_windows);
  }
  w.Pod(stats_);
}

void EntityDetector::Load(SnapshotReader& r) {
  r.Section(snap::kDetector);
  cold_ = r.Bool();
  entities_.clear();
  const std::size_t n = r.Size();
  for (std::size_t i = 0; i < n; ++i) {
    const FlowKey key = r.Get<FlowKey>();
    CheckKey(key, snap::kDetector, "EntityDetector", "an entity key");
    EntityState& st = entities_[key];
    st.model.Load(r);
    st.fsm.Load(r);
    st.idle_windows = r.U32();
  }
  r.Pod(stats_);
}

void DetectionService::Save(SnapshotWriter& w) const {
  w.Size(detectors_.size());
  for (const EntityDetector& d : detectors_) d.Save(w);
}

void DetectionService::Load(SnapshotReader& r) {
  CheckShape(snap::kDetector, "DetectionService", "switch count",
             detectors_.size(), r.Size());
  for (EntityDetector& d : detectors_) d.Load(r);
}

}  // namespace ow::detect
