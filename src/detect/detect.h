// Always-on streaming anomaly detection over sliding windows.
//
// OmniWindow's sub-window splitting makes sliding windows cheap (§3); this
// layer is the consumer that justifies them: a detection service subscribes
// to the WindowResult stream of every controller on a fabric and keeps
// per-entity (source-ip / destination-ip keyed) health state online —
// windows are scored as they complete, never post-hoc.
//
// Per entity:
//   - ScoreModel: an EWMA baseline with a deviation score. The baseline is
//     *lag-absorbed*: a window's value only feeds the EWMA `baseline_lag`
//     windows later, and absorption freezes entirely while the entity is
//     suspect, so a gradual attack ramp (slowloris) cannot drag its own
//     baseline up and hide. Entities present in the detector's first-ever
//     window are seeded at their observed value (cold start: steady heavy
//     background flows must not alert on first sight).
//   - HysteresisFsm: healthy -> degraded -> down with separate enter/exit
//     thresholds and dwell times, so scores oscillating around a threshold
//     cannot flap the state.
//
// Memory is bounded: each per-switch detector tracks at most
// DetectorConfig::max_entities entities (admission-gated, lowest-baseline
// quiet entity evicted first), so steady-state memory is fixed regardless
// of trace length.
//
// Determinism: per-window totals are aggregated as sorted packed codes
// (EntityCode) before any scoring, so results never depend on the flow
// table's slot order. Each switch has its own detector, and windows arrive
// one at a time on the thread that drives the session
// (NetworkRunConfig::window_observer), so alert streams are bit-identical
// from run to run; DetectionService::Alerts() returns a canonically sorted
// stream.
//
// The detector reads KvSlot::attrs[0] as a packet count — pair it with a
// frequency-merged instrument (e.g. ExactCountApp or the count query), not
// with a distinct-signature app.
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "src/common/arena.h"
#include "src/common/flowkey.h"
#include "src/common/types.h"
#include "src/core/controller.h"

namespace ow::obs {
class Counter;
}  // namespace ow::obs

namespace ow::detect {

enum class HealthState : std::uint8_t {
  kHealthy = 0,
  kDegraded = 1,
  kDown = 2,
};

const char* HealthStateName(HealthState s);

struct ScoreModelConfig {
  /// EWMA weight of a newly absorbed value.
  double alpha = 0.3;
  /// Deviation scores divide by max(baseline, min_baseline): entities too
  /// small to matter cannot produce huge ratios, and it doubles as the
  /// admission floor for tracking.
  double min_baseline = 20.0;
  /// Windows a value waits before entering the EWMA. With sliding windows of
  /// W/S sub-windows per window/slide, consecutive windows share all but one
  /// slide of traffic; absorbing immediately would let an attack absorb
  /// itself into the baseline within one window span.
  std::size_t baseline_lag = 5;
};

/// Per-entity EWMA baseline with lagged absorption. Plain value type.
class ScoreModel {
 public:
  /// Deviation of `value` against the baseline; ~1 means "at baseline".
  double Score(double value, const ScoreModelConfig& cfg) const {
    const double base = baseline_ > cfg.min_baseline ? baseline_
                                                     : cfg.min_baseline;
    return value / base;
  }

  /// Cold-start: adopt `value` as the baseline outright.
  void Seed(double value) { baseline_ = value; }

  /// Queue `value` for lagged absorption; absorb the value that is now
  /// `cfg.baseline_lag` windows old unless `freeze` (entity is suspect).
  void Absorb(double value, bool freeze, const ScoreModelConfig& cfg);

  double baseline() const { return baseline_; }

  void Save(SnapshotWriter& w) const;
  void Load(SnapshotReader& r);

 private:
  double baseline_ = 0.0;
  std::vector<double> lag_ring_;  // pending values, oldest first
};

struct HysteresisConfig {
  double enter_score = 3.0;   ///< healthy -> degraded candidate
  double down_score = 10.0;   ///< degraded -> down candidate
  double exit_score = 1.5;    ///< recovery candidate (must be < enter_score)
  int enter_dwell = 2;  ///< consecutive windows at/above before escalating
  int exit_dwell = 3;   ///< consecutive windows at/below before recovering
};

/// Flap-free three-state health FSM. Scores between exit_score and the
/// active escalation threshold reset both dwell counters: the hysteresis
/// band holds the current state indefinitely.
class HysteresisFsm {
 public:
  /// Advance one window. Returns true when a state transition fired.
  bool Step(double score, const HysteresisConfig& cfg);

  HealthState state() const { return state_; }
  HealthState prev_state() const { return prev_; }
  /// No streak in progress and healthy — safe to evict.
  bool quiet() const {
    return state_ == HealthState::kHealthy && hot_streak_ == 0;
  }

  void Save(SnapshotWriter& w) const;
  void Load(SnapshotReader& r);

 private:
  HealthState state_ = HealthState::kHealthy;
  HealthState prev_ = HealthState::kHealthy;
  int hot_streak_ = 0;
  int cool_streak_ = 0;
};

/// One health-state transition, emitted as it happens (streaming).
struct Alert {
  int switch_id = 0;
  FlowKey entity;
  HealthState from = HealthState::kHealthy;
  HealthState to = HealthState::kHealthy;
  double score = 0.0;
  std::uint64_t value = 0;       ///< entity total in the triggering window
  SubWindowSpan span;            ///< triggering window's sub-window span
  Nanos window_start = 0;
  Nanos window_end = 0;
  Nanos completed_at = 0;        ///< simulated completion time of the window
  bool partial = false;          ///< triggering window was flagged partial

  /// Escalations (into degraded/down) are actionable; recoveries are
  /// informational and excluded from precision/recall.
  bool actionable() const { return to != HealthState::kHealthy; }

  friend bool operator==(const Alert&, const Alert&) = default;
};

struct DetectorConfig {
  ScoreModelConfig score;
  HysteresisConfig fsm;
  /// Needed to translate sub-window spans into times on alerts.
  Nanos subwindow_size = 100 * kMilli;
  /// Top-K bound: at most this many tracked entities per switch.
  std::size_t max_entities = 1024;
  /// Evict a quiet entity absent for this many consecutive windows.
  std::size_t idle_evict_windows = 30;
};

/// One entity's total in one window.
using EntityTotal = std::pair<FlowKey, std::uint64_t>;

/// Packed 64-bit code of the entity key FlowKey(kind, address): the four
/// address bytes in the order FlowKey stores them, most significant first,
/// then the kind byte. For kSrcIp/kDstIp keys (four bytes each) numeric
/// code order is FlowKey order — bytes first, then kind — so sorting codes
/// sorts entities without a byte-wise key compare.
inline std::uint64_t EntityCode(FlowKeyKind kind, std::uint32_t address) {
  std::uint8_t b[4];  // FlowKey stores the address with a host-order memcpy
  std::memcpy(b, &address, 4);
  return std::uint64_t(b[0]) << 32 | std::uint64_t(b[1]) << 24 |
         std::uint64_t(b[2]) << 16 | std::uint64_t(b[3]) << 8 |
         std::uint64_t(kind);
}

/// The kSrcIp/kDstIp entity key an EntityCode packs.
FlowKey EntityFromCode(std::uint64_t code);

/// Streaming detector for ONE switch's window stream.
class EntityDetector {
 public:
  EntityDetector(const DetectorConfig& cfg, int switch_id);

  /// Consume one completed window (extracts per-entity totals, then scores).
  /// Reuses its scratch vectors: once they have grown to the table's shape,
  /// a window allocates only for newly tracked entities (map node, baseline
  /// lag ring) and alerts.
  void OnWindow(const WindowResult& w);

  /// Core step on pre-aggregated totals; exposed so unit tests can drive
  /// the model without building controller tables. `totals` must be keyed
  /// by kSrcIp/kDstIp entity keys, sorted strictly ascending (throws
  /// std::invalid_argument otherwise).
  void OnTotals(std::span<const EntityTotal> totals, SubWindowSpan span,
                Nanos completed_at, bool partial);

  const std::vector<Alert>& alerts() const { return alerts_; }
  std::size_t tracked() const { return entities_.size(); }

  struct Stats {
    std::uint64_t windows = 0;
    std::uint64_t partial_windows = 0;
    std::uint64_t transitions_degraded = 0;
    std::uint64_t transitions_down = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t evictions = 0;           ///< capacity + idle evictions
    std::uint64_t admissions_rejected = 0; ///< at cap, below every baseline
    std::size_t tracked_peak = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Checkpoint the tracked-entity models and stats. The alert stream is
  /// NOT captured — alerts already emitted belong to their consumer; a
  /// restored detector emits only post-restore transitions, and the
  /// restore-side comparator concatenates the two streams.
  void Save(SnapshotWriter& w) const;
  void Load(SnapshotReader& r);

 private:
  struct EntityState {
    ScoreModel model;
    HysteresisFsm fsm;
    std::uint32_t idle_windows = 0;
  };

  /// OnTotals without the order check (OnWindow's totals are sorted by
  /// construction).
  void ScoreTotals(std::span<const EntityTotal> totals, SubWindowSpan span,
                   Nanos completed_at, bool partial);
  bool Admit(const FlowKey& key, double value, EntityState** out);
  void StepEntity(const FlowKey& key, EntityState& st, std::uint64_t value,
                  SubWindowSpan span, Nanos completed_at, bool partial);

  DetectorConfig cfg_;
  int switch_id_ = 0;
  bool cold_ = true;  ///< next window is the first ever seen
  // Ordered so every pass over the tracked set is deterministic regardless
  // of how keys hash. Pool-backed: admission-capped churn (evict one,
  // admit one) recycles map nodes.
  PooledMap<FlowKey, EntityState> entities_;
  std::vector<Alert> alerts_;
  Stats stats_;
  // Per-window scratch, reused: OnWindow's (code, value) pairs, the reduced
  // totals they decode to, and ScoreTotals' deferred admissions.
  PooledVector<std::pair<std::uint64_t, std::uint64_t>> codes_;
  PooledVector<EntityTotal> totals_;
  PooledVector<EntityTotal> fresh_;

  obs::Counter* c_windows_ = nullptr;
  obs::Counter* c_partial_ = nullptr;
  obs::Counter* c_degraded_ = nullptr;
  obs::Counter* c_down_ = nullptr;
  obs::Counter* c_recovered_ = nullptr;
  obs::Counter* c_evictions_ = nullptr;
  obs::Counter* c_rejected_ = nullptr;
};

/// Detector bank for a fabric: one EntityDetector per switch. OnWindow is
/// called one window at a time, on the thread that drives the session
/// (NetworkRunConfig::window_observer); there is no shared mutable state
/// across switches.
class DetectionService {
 public:
  DetectionService(const DetectorConfig& cfg, std::size_t num_switches);

  void OnWindow(std::size_t switch_id, const WindowResult& w);

  /// Adapter for NetworkRunConfig::window_observer. The service must
  /// outlive the run.
  std::function<void(std::size_t, const WindowResult&)> Observer();

  /// All alerts from all switches in canonical (window end, switch, entity,
  /// target state) order — identical from run to run.
  std::vector<Alert> Alerts() const;

  const EntityDetector& detector(std::size_t switch_id) const {
    return detectors_[switch_id];
  }
  std::size_t num_switches() const { return detectors_.size(); }
  std::size_t tracked_total() const;
  EntityDetector::Stats TotalStats() const;

  /// Checkpoint every per-switch detector (alert streams excluded; see
  /// EntityDetector::Save). Load verifies the switch count matches.
  void Save(SnapshotWriter& w) const;
  void Load(SnapshotReader& r);

 private:
  std::deque<EntityDetector> detectors_;  // stable addresses, no copies
};

// Ground-truth matching of alert streams against TraceGenerator labels
// (EntityMatchesLabel, ScoreAlertStream) is evaluation-only and lives in
// src/detect/score.h (ow_detect_score), so this library stays free of the
// synthetic trace generator.

}  // namespace ow::detect
