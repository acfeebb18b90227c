// src/detect: streaming anomaly detection over sliding windows.
//
// Units: ScoreModel (floor, cold seed, lagged absorption, freeze),
// HysteresisFsm (dwell, hysteresis band, two-stage recovery), EntityDetector
// (cold-window seeding, top-K bound, idle eviction; packed entity codes
// sort like their keys, and the table path equals a map fold of the table)
// and alert/ground-truth matching. End to end: a fabric run over injected
// anomalies must detect them streaming with bounded memory, and a
// leaf-spine run's alert stream is pinned by a golden fingerprint.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include "src/common/arena.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/snapshot.h"
#include "src/core/network_runner.h"
#include "src/detect/detect.h"
#include "src/detect/score.h"
#include "src/telemetry/exact_count.h"
#include "src/trace/generator.h"

namespace ow {
namespace {

using detect::Alert;
using detect::DetectionService;
using detect::DetectorConfig;
using detect::EntityDetector;
using detect::HealthState;
using detect::HysteresisConfig;
using detect::HysteresisFsm;
using detect::ScoreModel;
using detect::ScoreModelConfig;

FlowKey Src(std::uint32_t ip) {
  return FlowKey(FlowKeyKind::kSrcIp, {.src_ip = ip});
}
FlowKey Dst(std::uint32_t ip) {
  return FlowKey(FlowKeyKind::kDstIp, {.dst_ip = ip});
}

// --- ScoreModel ------------------------------------------------------------

TEST(ScoreModel, FloorBoundsScoresOfSmallEntities) {
  ScoreModelConfig cfg;
  cfg.min_baseline = 20.0;
  ScoreModel m;  // baseline 0: the floor takes over
  EXPECT_DOUBLE_EQ(m.Score(10, cfg), 0.5);
  EXPECT_DOUBLE_EQ(m.Score(60, cfg), 3.0);
  m.Seed(200);
  EXPECT_DOUBLE_EQ(m.Score(200, cfg), 1.0);
  EXPECT_DOUBLE_EQ(m.Score(600, cfg), 3.0);
}

TEST(ScoreModel, AbsorptionIsLaggedByConfiguredWindows) {
  ScoreModelConfig cfg;
  cfg.alpha = 0.5;
  cfg.baseline_lag = 2;
  ScoreModel m;
  m.Seed(100);
  // Values 1000.. pushed now must not move the baseline for `lag` windows.
  m.Absorb(1000, /*freeze=*/false, cfg);
  EXPECT_DOUBLE_EQ(m.baseline(), 100);
  m.Absorb(1000, false, cfg);
  EXPECT_DOUBLE_EQ(m.baseline(), 100);
  // Third absorb pops the first 1000: baseline = 0.5*1000 + 0.5*100.
  m.Absorb(1000, false, cfg);
  EXPECT_DOUBLE_EQ(m.baseline(), 550);
}

TEST(ScoreModel, FreezeDiscardsSuspectValues) {
  ScoreModelConfig cfg;
  cfg.alpha = 0.5;
  cfg.baseline_lag = 1;
  ScoreModel m;
  m.Seed(100);
  m.Absorb(1000, false, cfg);   // queue 1000
  m.Absorb(1000, true, cfg);    // frozen: the queued 1000 is dropped
  EXPECT_DOUBLE_EQ(m.baseline(), 100);
  m.Absorb(80, false, cfg);     // unfrozen: absorbs the queued 1000? no —
  // the 1000 pushed while frozen was already popped and discarded; this
  // absorbs the second queued value in order.
  EXPECT_DOUBLE_EQ(m.baseline(), 550);
}

// --- HysteresisFsm ---------------------------------------------------------

HysteresisConfig FsmCfg() {
  HysteresisConfig cfg;
  cfg.enter_score = 3.0;
  cfg.down_score = 10.0;
  cfg.exit_score = 1.5;
  cfg.enter_dwell = 2;
  cfg.exit_dwell = 3;
  return cfg;
}

TEST(HysteresisFsm, EnterDwellSuppressesOneWindowSpikes) {
  const HysteresisConfig cfg = FsmCfg();
  HysteresisFsm fsm;
  // Alternating hot/cold never satisfies a 2-window dwell.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(fsm.Step(5.0, cfg));
    EXPECT_FALSE(fsm.Step(1.0, cfg));
  }
  EXPECT_EQ(fsm.state(), HealthState::kHealthy);
  // Two consecutive hot windows transition.
  EXPECT_FALSE(fsm.Step(5.0, cfg));
  EXPECT_TRUE(fsm.Step(5.0, cfg));
  EXPECT_EQ(fsm.state(), HealthState::kDegraded);
  EXPECT_EQ(fsm.prev_state(), HealthState::kHealthy);
}

TEST(HysteresisFsm, HysteresisBandHoldsStateWithoutFlapping) {
  const HysteresisConfig cfg = FsmCfg();
  HysteresisFsm fsm;
  fsm.Step(5.0, cfg);
  fsm.Step(5.0, cfg);
  ASSERT_EQ(fsm.state(), HealthState::kDegraded);
  // Scores inside (exit, down) — including below enter — hold degraded.
  for (double s : {2.0, 9.0, 1.6, 2.9, 5.0}) {
    EXPECT_FALSE(fsm.Step(s, cfg)) << s;
    EXPECT_EQ(fsm.state(), HealthState::kDegraded);
  }
  // Two cool windows are not enough (exit_dwell = 3), and the band resets
  // the cool streak.
  EXPECT_FALSE(fsm.Step(1.0, cfg));
  EXPECT_FALSE(fsm.Step(1.0, cfg));
  EXPECT_FALSE(fsm.Step(2.0, cfg));  // band: streak reset
  EXPECT_FALSE(fsm.Step(1.0, cfg));
  EXPECT_FALSE(fsm.Step(1.0, cfg));
  EXPECT_TRUE(fsm.Step(1.0, cfg));  // third consecutive completes the dwell
  EXPECT_EQ(fsm.state(), HealthState::kHealthy);
}

TEST(HysteresisFsm, EscalatesToDownAndRecoversOneLevelAtATime) {
  const HysteresisConfig cfg = FsmCfg();
  HysteresisFsm fsm;
  fsm.Step(20.0, cfg);
  EXPECT_TRUE(fsm.Step(20.0, cfg));  // healthy -> degraded
  fsm.Step(20.0, cfg);
  EXPECT_TRUE(fsm.Step(20.0, cfg));  // degraded -> down
  EXPECT_EQ(fsm.state(), HealthState::kDown);
  fsm.Step(0.0, cfg);
  fsm.Step(0.0, cfg);
  EXPECT_TRUE(fsm.Step(0.0, cfg));  // down -> degraded
  EXPECT_EQ(fsm.state(), HealthState::kDegraded);
  fsm.Step(0.0, cfg);
  fsm.Step(0.0, cfg);
  EXPECT_TRUE(fsm.Step(0.0, cfg));  // degraded -> healthy
  EXPECT_EQ(fsm.state(), HealthState::kHealthy);
}

// --- EntityDetector over synthetic totals ---------------------------------

DetectorConfig SmallCfg() {
  DetectorConfig cfg;
  cfg.subwindow_size = 100 * kMilli;
  cfg.score.min_baseline = 20.0;
  cfg.score.baseline_lag = 3;
  cfg.fsm = FsmCfg();
  return cfg;
}

/// Per-window entity totals as the tests write them; Feed hands the
/// detector the map's (sorted) entries.
using Totals = std::map<FlowKey, std::uint64_t>;

void Feed(EntityDetector& d, const Totals& totals, SubWindowNum window_index) {
  const SubWindowSpan span{window_index, SubWindowNum(window_index + 4)};
  const std::vector<detect::EntityTotal> sorted(totals.begin(), totals.end());
  d.OnTotals(sorted, span, Nanos(window_index + 5) * 100 * kMilli, false);
}

TEST(EntityDetector, ColdWindowSeedsWithoutAlerting) {
  EntityDetector d(SmallCfg(), 0);
  // A huge steady entity present from the start must never alert.
  const Totals steady{{Src(1), 5000}, {Dst(2), 900}};
  for (SubWindowNum w = 0; w < 20; ++w) Feed(d, steady, w);
  EXPECT_TRUE(d.alerts().empty());
  EXPECT_EQ(d.tracked(), 2u);
}

TEST(EntityDetector, DetectsSpikeAboveSeededBaselineAfterDwell) {
  EntityDetector d(SmallCfg(), 7);
  Totals totals{{Src(1), 100}, {Dst(2), 50}};
  Feed(d, totals, 0);  // cold: seeds 100 / 50
  Feed(d, totals, 1);
  Feed(d, totals, 2);
  totals[Src(1)] = 520;  // score 5.2 vs seeded baseline
  Feed(d, totals, 3);
  EXPECT_TRUE(d.alerts().empty());  // dwell = 2: not yet
  Feed(d, totals, 4);
  ASSERT_EQ(d.alerts().size(), 1u);
  const Alert& a = d.alerts()[0];
  EXPECT_EQ(a.switch_id, 7);
  EXPECT_EQ(a.entity, Src(1));
  EXPECT_EQ(a.from, HealthState::kHealthy);
  EXPECT_EQ(a.to, HealthState::kDegraded);
  EXPECT_DOUBLE_EQ(a.score, 5.2);
  EXPECT_EQ(a.value, 520u);
  EXPECT_EQ(a.window_start, Nanos(4) * 100 * kMilli);
  EXPECT_EQ(a.window_end, Nanos(9) * 100 * kMilli);
  EXPECT_TRUE(a.actionable());

  // Sustained attack: frozen baseline, no further transitions below the
  // down threshold, hence no alert churn.
  for (SubWindowNum w = 5; w < 12; ++w) Feed(d, totals, w);
  EXPECT_EQ(d.alerts().size(), 1u);

  // Attack ends: exit dwell (3 windows at/below exit) recovers, emitting an
  // informational (non-actionable) alert.
  totals[Src(1)] = 100;
  for (SubWindowNum w = 12; w < 16; ++w) Feed(d, totals, w);
  ASSERT_EQ(d.alerts().size(), 2u);
  EXPECT_EQ(d.alerts()[1].to, HealthState::kHealthy);
  EXPECT_FALSE(d.alerts()[1].actionable());
  // Stats hold the detector's only counts (nothing goes to the registry).
  EXPECT_EQ(d.stats().windows, 16u);
  EXPECT_EQ(d.stats().transitions_degraded, 1u);
  EXPECT_EQ(d.stats().recoveries, 1u);
}

TEST(EntityDetector, FreshEntityAboveFloorTimesEnterAlertsQuickly) {
  EntityDetector d(SmallCfg(), 0);
  Totals totals{{Src(1), 100}};
  Feed(d, totals, 0);  // cold
  totals[Dst(9)] = 90;  // fresh entity, score 90/20 = 4.5
  Feed(d, totals, 1);
  Feed(d, totals, 2);
  ASSERT_EQ(d.alerts().size(), 1u);
  EXPECT_EQ(d.alerts()[0].entity, Dst(9));
}

TEST(EntityDetector, TopKBoundHoldsAndKeepsTheLargest) {
  DetectorConfig cfg = SmallCfg();
  cfg.max_entities = 4;
  EntityDetector d(cfg, 0);
  Totals totals;
  for (std::uint32_t i = 1; i <= 6; ++i) totals[Src(i)] = 100 * i;
  Feed(d, totals, 0);
  EXPECT_EQ(d.tracked(), 4u);
  EXPECT_EQ(d.stats().evictions, 2u);
  EXPECT_EQ(d.stats().tracked_peak, 4u);
  // The four largest survived the admission fight.
  for (SubWindowNum w = 1; w < 3; ++w) Feed(d, totals, w);
  EXPECT_TRUE(d.alerts().empty());  // all seeded or below-floor, no alerts

  // A below-everyone newcomer is rejected, not admitted.
  totals[Src(7)] = 25;
  Feed(d, totals, 3);
  EXPECT_EQ(d.tracked(), 4u);
  EXPECT_GT(d.stats().admissions_rejected, 0u);
}

// Regression: at the capacity cap, a newcomer admitted mid-window evicts the
// smallest-baseline quiet entity — which can be the very entity the
// union-merge pass is currently iterating. The eviction must not invalidate
// the merge (this used to erase the live cursor: UB, caught under ASan).
TEST(EntityDetector, CapacityEvictionOfMergeCursorEntityIsSafe) {
  DetectorConfig cfg = SmallCfg();
  cfg.max_entities = 2;
  EntityDetector d(cfg, 0);
  // Cold window seeds Src(5) (baseline 30, the eviction candidate) and
  // Src(6) (baseline 100) — both quiet.
  Feed(d, {{Src(5), 30}, {Src(6), 100}}, 0);
  ASSERT_EQ(d.tracked(), 2u);
  // Src(1) sorts before both tracked keys, so its admission happens while
  // the merge cursor sits on Src(5) — the smallest-baseline victim.
  Feed(d, {{Src(1), 500}, {Src(5), 30}, {Src(6), 100}}, 1);
  EXPECT_EQ(d.tracked(), 2u);
  EXPECT_EQ(d.stats().evictions, 1u);
  // Src(1) really was admitted: its 25x-floor score escalates after dwell.
  Feed(d, {{Src(1), 500}, {Src(6), 100}}, 2);
  ASSERT_FALSE(d.alerts().empty());
  EXPECT_EQ(d.alerts()[0].entity, Src(1));
  EXPECT_EQ(d.alerts()[0].to, HealthState::kDegraded);
}

TEST(EntityDetector, IdleQuietEntitiesAreEvicted) {
  EntityDetector d(SmallCfg(), 0);
  Totals totals{{Src(1), 100}, {Src(2), 100}};
  Feed(d, totals, 0);
  EXPECT_EQ(d.tracked(), 2u);
  totals.erase(Src(2));
  const auto idle = SubWindowNum(detect::kIdleEvictWindows);
  for (SubWindowNum w = 1; w < idle; ++w) Feed(d, totals, w);
  EXPECT_EQ(d.tracked(), 2u) << "evicted before kIdleEvictWindows windows";
  Feed(d, totals, idle);
  EXPECT_EQ(d.tracked(), 1u);
  EXPECT_EQ(d.stats().evictions, 1u);
}

TEST(EntityDetector, OnTotalsRefusesTotalsNotStrictlyAscending) {
  EntityDetector d(SmallCfg(), 0);
  const SubWindowSpan span{0, 4};
  const std::vector<detect::EntityTotal> descending = {{Src(2), 50},
                                                       {Src(1), 50}};
  EXPECT_THROW(d.OnTotals(descending, span, 0, false), std::invalid_argument);
  const std::vector<detect::EntityTotal> repeated = {{Src(1), 50},
                                                     {Src(1), 50}};
  EXPECT_THROW(d.OnTotals(repeated, span, 0, false), std::invalid_argument);
  EXPECT_EQ(d.stats().windows, 0u);
}

// --- packed entity codes ---------------------------------------------------

TEST(EntityCode, OrderIsFlowKeyOrderAndDecodesToTheKey) {
  // Random addresses plus neighbours that differ only in their highest or
  // their lowest byte, both kinds: every pair of codes compares like its
  // pair of keys.
  Rng rng(7);
  std::vector<std::uint32_t> addresses = {0, 1, 0xFF, 0x100, 0x7FFFFFFF,
                                          0x80000000, 0xFFFFFFFF};
  for (int i = 0; i < 100; ++i) {
    const auto a = std::uint32_t(rng.NextU64());
    addresses.insert(addresses.end(), {a, a ^ 0x01u, a ^ 0xFFu,
                                       a ^ 0x01000000u, a ^ 0xFF000000u});
  }
  std::vector<std::pair<std::uint64_t, FlowKey>> coded;
  for (const std::uint32_t a : addresses) {
    coded.emplace_back(detect::EntityCode(FlowKeyKind::kSrcIp, a), Src(a));
    coded.emplace_back(detect::EntityCode(FlowKeyKind::kDstIp, a), Dst(a));
  }
  for (const auto& [code, key] : coded) {
    ASSERT_EQ(detect::EntityFromCode(code), key) << key.ToString();
  }
  for (const auto& [ca, ka] : coded) {
    for (const auto& [cb, kb] : coded) {
      ASSERT_EQ(ca < cb, ka < kb) << ka.ToString() << " vs " << kb.ToString();
      ASSERT_EQ(ca == cb, ka == kb) << ka.ToString() << " vs " << kb.ToString();
    }
  }
}

// --- EntityDetector over flow tables ---------------------------------------

/// What OnWindow must aggregate, folded with a std::map: five-tuple and
/// address-pair keys count for both addresses, (source, port) keys for the
/// source, address keys for themselves; zero-valued slots not at all.
Totals MapFold(const KeyValueTable& table) {
  Totals totals;
  table.ForEach([&](const KvSlot& slot) {
    const std::uint64_t v = slot.attrs[0];
    if (v == 0) return;
    switch (slot.key.kind()) {
      case FlowKeyKind::kFiveTuple:
      case FlowKeyKind::kIpPair:
        totals[Src(slot.key.src_ip())] += v;
        totals[Dst(slot.key.dst_ip())] += v;
        break;
      case FlowKeyKind::kSrcIp:
      case FlowKeyKind::kDstIp:
        totals[slot.key] += v;
        break;
      case FlowKeyKind::kSrcIpDstPort:
        totals[Src(slot.key.src_ip())] += v;
        break;
    }
  });
  return totals;
}

std::vector<std::uint8_t> SaveBytes(const EntityDetector& d) {
  SnapshotWriter w;
  d.Save(w);
  return w.Take();
}

/// A window table of 150 slots of every key kind over 36 addresses that
/// differ in their highest and their lowest byte (so one entity sums many
/// slots, and a source and a destination share each address); one slot in
/// six holds 0. From window 8 on, sources with a low byte below 2 spike.
KeyValueTable RandomWindowTable(Rng& rng, SubWindowNum window) {
  const auto address = [&rng] {
    constexpr std::uint32_t kHigh[] = {0x0A, 0x8A, 0xFF};
    return kHigh[rng.Uniform(3)] << 24 | std::uint32_t(rng.Uniform(12));
  };
  KeyValueTable table(512);
  for (int i = 0; i < 150; ++i) {
    const FiveTuple t{address(), address(), std::uint16_t(rng.Uniform(3)),
                      std::uint16_t(rng.Uniform(3)), 6};
    bool created = false;
    KvSlot& slot =
        table.FindOrInsert(FlowKey(FlowKeyKind(rng.Uniform(5)), t), created);
    std::uint64_t v = rng.Uniform(6) == 0 ? 0 : 1 + rng.Uniform(30);
    if (window >= 8 && (t.src_ip & 0xFF) < 2) v *= 40;
    slot.attrs[0] = v;
    slot.num_attrs = 1;
  }
  return table;
}

TEST(EntityDetector, OnWindowMatchesAMapFoldOfTheTable) {
  // The table path (packed codes) and the map path see the same windows;
  // they must emit the same alerts and checkpoint the same bytes after
  // every window. The cap sits below the entity count, so admissions
  // evict.
  DetectorConfig cfg = SmallCfg();
  cfg.max_entities = 40;
  EntityDetector by_table(cfg, 3);
  EntityDetector by_map(cfg, 3);
  Rng rng(11);
  for (SubWindowNum w = 0; w < 24; ++w) {
    const KeyValueTable table = RandomWindowTable(rng, w);
    const SubWindowSpan span{w, SubWindowNum(w + 4)};
    const Nanos completed_at = Nanos(w + 5) * 100 * kMilli;
    const bool partial = w % 7 == 3;
    by_table.OnWindow(WindowResult{span, &table, completed_at, partial});
    const Totals totals = MapFold(table);
    const std::vector<detect::EntityTotal> sorted(totals.begin(),
                                                  totals.end());
    by_map.OnTotals(sorted, span, completed_at, partial);
    ASSERT_EQ(by_table.alerts(), by_map.alerts()) << "window " << w;
    ASSERT_EQ(SaveBytes(by_table), SaveBytes(by_map)) << "window " << w;
  }
  EXPECT_FALSE(by_table.alerts().empty());
  EXPECT_GT(by_table.stats().evictions, 0u);
}

/// `slots` five-tuple slots over 64 sources and 64 destinations, each
/// counting `value` packets: 128 entities, every one above the floor.
KeyValueTable SteadyWindowTable(std::uint32_t slots, std::uint64_t value) {
  KeyValueTable table(1 << 12);
  for (std::uint32_t i = 0; i < slots; ++i) {
    bool created = false;
    KvSlot& slot = table.FindOrInsert(
        FlowKey(FlowKeyKind::kFiveTuple,
                FiveTuple{0x0A000000u + i % 64, 0x0B000000u + i * 5 % 64,
                          std::uint16_t(i), 80, 6}),
        created);
    slot.attrs[0] = value;
    slot.num_attrs = 1;
  }
  return table;
}

TEST(EntityDetector, OnWindowAfterWarmUpMakesNoPoolRequest) {
#ifdef OW_POOL_PASSTHROUGH
  GTEST_SKIP() << "pool passthrough build (sanitizers)";
#endif
  // The warm-up window grows the scratch and admits every entity; a window
  // of the same shape then reuses all of it.
  EntityDetector d(SmallCfg(), 0);
  const KeyValueTable warm = SteadyWindowTable(2'000, 100);
  d.OnWindow(WindowResult{{0, 4}, &warm, 500 * kMilli, false});
  ASSERT_EQ(d.tracked(), 128u);
  const KeyValueTable next = SteadyWindowTable(2'000, 101);
  const ArenaPool::Stats before = GlobalPool().stats();
  d.OnWindow(WindowResult{{1, 5}, &next, 600 * kMilli, false});
  const ArenaPool::Stats after = GlobalPool().stats();
  EXPECT_EQ(after.hits + after.misses, before.hits + before.misses);
  EXPECT_EQ(d.stats().windows, 2u);
  EXPECT_TRUE(d.alerts().empty());
}

// --- ground-truth matching -------------------------------------------------

TEST(ScoreAlertStream, MatchesPrimaryAndSecondaryEndpoints) {
  InjectedAnomaly label;
  label.kind = "ssh_brute_force";
  label.victim_or_actor = Dst(0xC0A80001);
  label.secondary.push_back(Src(0xAC100200));
  label.start = 1 * kSecond;
  label.end = 2 * kSecond;

  EXPECT_TRUE(detect::EntityMatchesLabel(Dst(0xC0A80001), label));
  EXPECT_TRUE(detect::EntityMatchesLabel(Src(0xAC100200), label));
  EXPECT_FALSE(detect::EntityMatchesLabel(Src(0xC0A80001), label));  // side
  EXPECT_FALSE(detect::EntityMatchesLabel(Dst(0xAC100200), label));
  EXPECT_FALSE(detect::EntityMatchesLabel(Dst(0x0A000001), label));

  Alert hit;
  hit.entity = Src(0xAC100200);
  hit.from = HealthState::kHealthy;
  hit.to = HealthState::kDegraded;
  hit.window_start = 1200 * kMilli;
  hit.window_end = 1700 * kMilli;
  Alert miss = hit;
  miss.entity = Src(0x0A000009);  // unrelated entity -> false positive
  Alert recovery = hit;
  recovery.from = HealthState::kDegraded;
  recovery.to = HealthState::kHealthy;  // informational: excluded
  Alert late = hit;
  late.window_start = 4 * kSecond;  // outside label + slack
  late.window_end = late.window_start + 500 * kMilli;

  const detect::StreamingScore s =
      detect::ScoreAlertStream({hit, miss, recovery, late}, {label});
  EXPECT_EQ(s.actionable_alerts, 3u);
  EXPECT_EQ(s.matched_alerts, 1u);
  EXPECT_EQ(s.labels_detected, 1u);
  EXPECT_DOUBLE_EQ(s.pr.precision, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.pr.recall, 1.0);
  EXPECT_EQ(s.mean_detection_latency, 700 * kMilli);
}

TEST(ScoreAlertStream, FiveTupleLabelsMatchBothSides) {
  InjectedAnomaly label;
  label.kind = "boundary_burst";
  label.victim_or_actor =
      FlowKey(FlowKeyKind::kFiveTuple,
              {.src_ip = 0xAC107000, .dst_ip = 0xC0A80007, .src_port = 1024,
               .dst_port = 80, .proto = 6});
  EXPECT_TRUE(detect::EntityMatchesLabel(Src(0xAC107000), label));
  EXPECT_TRUE(detect::EntityMatchesLabel(Dst(0xC0A80007), label));
  EXPECT_FALSE(detect::EntityMatchesLabel(Src(0xC0A80007), label));
}

// --- end to end on a fabric ------------------------------------------------

struct LabeledTrace {
  Trace trace;
  std::vector<InjectedAnomaly> labels;
};

/// Background plus four anomalies, all starting after the detector's first
/// (cold, baseline-seeding) 500 ms window.
LabeledTrace MakeAttackTrace() {
  TraceConfig tc;
  tc.seed = 91;
  tc.duration = 2'500 * kMilli;
  tc.packets_per_sec = 10'000;
  tc.num_flows = 2'000;
  TraceGenerator gen(tc);
  LabeledTrace out;
  out.trace = gen.GenerateBackground();
  gen.InjectSynFlood(out.trace, 700 * kMilli, 600 * kMilli, 500);
  gen.InjectSlowloris(out.trace, 1'000 * kMilli, 1'000 * kMilli, 60);
  gen.InjectSuperSpreader(out.trace, 1'200 * kMilli, 500 * kMilli, 400);
  gen.InjectBoundaryBurst(out.trace, 1'500 * kMilli, 60 * kMilli, 150);
  out.trace.SortByTime();
  out.labels = gen.injected();
  return out;
}

WindowSpec SlidingSpec() {
  WindowSpec spec;
  spec.type = WindowType::kSliding;
  spec.window_size = 500 * kMilli;
  spec.slide = 100 * kMilli;
  spec.subwindow_size = 100 * kMilli;
  return spec;
}

std::vector<Alert> RunFabricDetection(const LabeledTrace& lt,
                                      TopologyConfig topo,
                                      DetectionService** out_service,
                                      DetectionService* storage) {
  NetworkRunConfig cfg;
  cfg.base = RunConfig::Make(SlidingSpec());
  cfg.base.controller.kv_capacity = 1 << 15;
  cfg.topology = topo;
  *storage = DetectionService(DetectorConfig{}, TopologySwitchCount(topo));
  cfg.window_observer = storage->Observer();
  RunOmniWindowFabric(
      lt.trace, [](std::size_t) { return std::make_shared<ExactCountApp>(); },
      cfg);
  if (out_service) *out_service = storage;
  return storage->Alerts();
}

TEST(DetectEndToEnd, StreamsAlertsForInjectedAnomaliesWithBoundedMemory) {
  const LabeledTrace lt = MakeAttackTrace();
  TopologyConfig topo;
  topo.kind = TopologyKind::kLine;
  topo.line_switches = 1;
  DetectionService storage(DetectorConfig{}, 0);
  DetectionService* svc = nullptr;
  const std::vector<Alert> alerts =
      RunFabricDetection(lt, topo, &svc, &storage);

  const detect::StreamingScore s = detect::ScoreAlertStream(alerts, lt.labels);
  EXPECT_EQ(s.labels, 4u);
  EXPECT_EQ(s.labels_detected, 4u) << "recall " << s.pr.recall;
  EXPECT_GE(s.pr.precision, 0.9);
  // Streaming: every alert fired at its window's completion time, which is
  // inside the run, not after it.
  for (const Alert& a : alerts) {
    EXPECT_GE(a.completed_at, a.window_end);
    EXPECT_LT(a.completed_at, Nanos(4) * kSecond);
  }
  // Bounded memory: tracked entities stay under the per-switch cap.
  EXPECT_LE(svc->TotalStats().tracked_peak, DetectorConfig{}.max_entities);
  EXPECT_GT(svc->TotalStats().tracked_peak, 0u);
}

/// Every integer field of every alert, in stream order. The score is a
/// double and stays out (compilers may round it differently); the state
/// transition it caused is in.
std::uint64_t AlertStreamFingerprint(const std::vector<Alert>& alerts) {
  std::uint64_t h = 0;
  const auto add = [&h](std::uint64_t v) { h = Mix64(h ^ v); };
  add(alerts.size());
  for (const Alert& a : alerts) {
    add(std::uint64_t(a.switch_id));
    add(std::uint64_t(a.entity.kind()));
    for (const std::uint8_t b : a.entity.bytes()) add(b);
    add(std::uint64_t(a.from));
    add(std::uint64_t(a.to));
    add(a.value);
    add(a.span.first);
    add(a.span.last);
    add(std::uint64_t(a.window_start));
    add(std::uint64_t(a.window_end));
    add(std::uint64_t(a.completed_at));
    add(a.partial);
  }
  return h;
}

TEST(DetectEndToEnd, LeafSpineAlertStreamMatchesGolden) {
  // Re-record the constant only for a deliberate change of observable
  // behaviour.
  const LabeledTrace lt = MakeAttackTrace();
  TopologyConfig topo;
  topo.kind = TopologyKind::kLeafSpine;
  topo.leaves = 2;
  topo.spines = 2;
  DetectionService storage(DetectorConfig{}, 0);
  const std::vector<Alert> alerts =
      RunFabricDetection(lt, topo, nullptr, &storage);
  ASSERT_FALSE(alerts.empty());
  const std::uint64_t fingerprint = AlertStreamFingerprint(alerts);
  EXPECT_EQ(fingerprint, 0x1f61d465e48c6050u)
      << "fingerprint 0x" << std::hex << fingerprint;
}

}  // namespace
}  // namespace ow
