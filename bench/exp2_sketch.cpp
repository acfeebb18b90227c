// Exp#2 (Figure 8): sketch-based telemetry algorithms under OmniWindow.
//
// Eight sketch algorithms across four tasks, each under the paper's window
// settings:
//   Q8  super-spreaders  — SpreadSketch (SPS), Vector Bloom Filter (VBF)
//   Q9  heavy hitters    — MV-Sketch (MV), HashPipe (HP)
//   Q10 per-flow volume  — Count-Min (CM), SuMax (SM)         [AARE]
//   Q11 flow cardinality — Linear Counting (LC), HyperLogLog  [ARE]
// Window settings: ITW / TW1 / TW2 / OTW (tumbling), ISW / SS / OSW
// (sliding; SS where the Sliding Sketch framework applies). Expected shape:
// OTW ≈ TW2 ≈ ITW at 1/4 memory; OSW ≈ ISW and far better than SS, whose
// answers span more than one window.
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "bench/harness.h"
#include "src/core/network_runner.h"
#include "src/sketch/count_min.h"
#include "src/sketch/elastic.h"
#include "src/sketch/univmon.h"
#include "src/sketch/hashpipe.h"
#include "src/sketch/hyperloglog.h"
#include "src/sketch/linear_counting.h"
#include "src/telemetry/cardinality_apps.h"
#include "src/sketch/mv_sketch.h"
#include "src/sketch/sliding_sketch.h"
#include "src/sketch/spread_sketch.h"
#include "src/sketch/sumax.h"
#include "src/sketch/vector_bloom.h"

namespace {

using namespace ow;
using namespace ow::bench;

constexpr Nanos kWindow = 500 * kMilli;
constexpr Nanos kSlide = 100 * kMilli;
constexpr Nanos kSub = 100 * kMilli;
constexpr Nanos kCrTime = 60 * kMilli;           // TW1 blackout
constexpr std::size_t kWindowBytes = 512 << 10;  // full-window memory
constexpr std::uint64_t kHhThreshold = 400;      // Q9 packets per window
constexpr double kSpreadThreshold = 150;         // Q8 distinct dsts
constexpr std::size_t kDepth = 4;

using Windows = std::vector<BaselineWindowResult>;

void PrintPr(const char* mech, const PrecisionRecall& pr) {
  std::printf("    %-4s precision %6.3f  recall %6.3f\n", mech, pr.precision,
              pr.recall);
}

Windows OmniToWindows(const RunResult& result) {
  return ToBaselineResults(result, kSub);
}

// ------------------------------------------------------------- Q9: heavy

QueryDef HhDef() {
  QueryDef def;
  def.name = "Q9_heavy_hitter";
  def.key_kind = FlowKeyKind::kFiveTuple;
  def.aggregate = QueryAggregate::kCount;
  def.threshold = kHhThreshold;
  return def;
}

template <typename SketchT>
Windows RunHhTumblingBaseline(const Trace& trace, bool tw1) {
  auto sketch = SketchT::WithMemory(kWindowBytes, kDepth);
  Windows out;
  Nanos start = 0;
  auto flush = [&] {
    BaselineWindowResult w{start, start + kWindow, {}};
    for (const FlowKey& key : sketch.Candidates()) {
      if (sketch.Estimate(key) >= kHhThreshold) w.detected.insert(key);
    }
    out.push_back(std::move(w));
    sketch.Reset();
    start += kWindow;
  };
  for (const Packet& p : trace.packets) {
    while (p.ts >= start + kWindow) flush();
    if (tw1 && p.ts < start + kCrTime) continue;
    sketch.Update(p.Key(FlowKeyKind::kFiveTuple), 1);
  }
  flush();
  return out;
}

template <typename SketchT>
Windows RunHhOmniWindow(const Trace& trace, bool sliding) {
  auto app = std::make_shared<FrequencySketchApp>(
      "hh", FlowKeyKind::kFiveTuple, FrequencyValue::kPackets, [] {
        return std::make_unique<SketchT>(
            SketchT::WithMemory(kWindowBytes / 4, kDepth));
      });
  EvalParams params;
  const WindowSpec spec = sliding ? SlidingSpec(params) : TumblingSpec(params);
  const RunResult result = RunOmniWindow(
      trace, app, RunConfig::Make(spec), [&](TableView table) {
        FlowSet set;
        table.ForEach([&](const KvSlot& slot) {
          if (slot.attrs[0] >= kHhThreshold) set.insert(slot.key);
        });
        return set;
      });
  return OmniToWindows(result);
}

Windows RunHhSlidingSketchMv(const Trace& trace) {
  // Sliding Sketch over MV: two zones per bucket -> half width at equal
  // memory.
  SlidingMvSketch mv(kDepth,
                     std::max<std::size_t>(1, kWindowBytes / (kDepth * 64)),
                     kWindow);
  Windows out;
  Nanos next_emit = kWindow;
  for (const Packet& p : trace.packets) {
    while (p.ts >= next_emit) {
      BaselineWindowResult w{next_emit - kWindow, next_emit, {}};
      for (const FlowKey& key : mv.Candidates()) {
        if (mv.Estimate(key, next_emit) >= kHhThreshold) {
          w.detected.insert(key);
        }
      }
      out.push_back(std::move(w));
      next_emit += kSlide;
    }
    mv.Update(p.Key(FlowKeyKind::kFiveTuple), 1, p.ts);
  }
  return out;
}

void RunQ9(const Trace& trace) {
  const QueryDef def = HhDef();
  const Windows truth = RunIdealSliding(def, trace, kWindow, kSlide);
  auto score = [&](const Windows& got) {
    return WindowedPrecisionRecall(got, truth);
  };
  std::printf("Q9 heavy hitters (threshold %llu pkts)\n",
              (unsigned long long)kHhThreshold);

  std::printf("  MV-Sketch:\n");
  PrintPr("ITW", score(RunIdealTumbling(def, trace, kWindow)));
  PrintPr("TW1", score(RunHhTumblingBaseline<MvSketch>(trace, true)));
  PrintPr("TW2", score(RunHhTumblingBaseline<MvSketch>(trace, false)));
  PrintPr("OTW", score(RunHhOmniWindow<MvSketch>(trace, false)));
  PrintPr("ISW", score(truth));
  PrintPr("SS", score(RunHhSlidingSketchMv(trace)));
  PrintPr("OSW", score(RunHhOmniWindow<MvSketch>(trace, true)));
  std::fflush(stdout);

  std::printf("  HashPipe:\n");
  PrintPr("ITW", score(RunIdealTumbling(def, trace, kWindow)));
  PrintPr("TW1", score(RunHhTumblingBaseline<HashPipe>(trace, true)));
  PrintPr("TW2", score(RunHhTumblingBaseline<HashPipe>(trace, false)));
  PrintPr("OTW", score(RunHhOmniWindow<HashPipe>(trace, false)));
  PrintPr("ISW", score(truth));
  PrintPr("OSW", score(RunHhOmniWindow<HashPipe>(trace, true)));
  std::fflush(stdout);

  // Beyond the paper's Figure 8: the universal-measurement solutions its
  // flowkey-tracking design cites (Elastic Sketch, UnivMon) under the same
  // window settings.
  std::printf("  ElasticSketch (extension):\n");
  PrintPr("TW2", score(RunHhTumblingBaseline<ElasticSketch>(trace, false)));
  PrintPr("OTW", score(RunHhOmniWindow<ElasticSketch>(trace, false)));
  PrintPr("OSW", score(RunHhOmniWindow<ElasticSketch>(trace, true)));
  std::fflush(stdout);
  std::printf("  UnivMon (extension):\n");
  PrintPr("TW2", score(RunHhTumblingBaseline<UnivMon>(trace, false)));
  PrintPr("OTW", score(RunHhOmniWindow<UnivMon>(trace, false)));
  PrintPr("OSW", score(RunHhOmniWindow<UnivMon>(trace, true)));
  std::fflush(stdout);
}

// ---------------------------------------------------------- Q8: spreaders

QueryDef SpreadDef() {
  QueryDef def;
  def.name = "Q8_super_spreader";
  def.key_kind = FlowKeyKind::kSrcIp;
  def.aggregate = QueryAggregate::kDistinct;
  def.element = [](const Packet& p) {
    return HashValue(p.ft.dst_ip, 0xE1E83A17ull);
  };
  def.threshold = std::uint64_t(kSpreadThreshold);
  return def;
}

std::unique_ptr<SpreadEstimator> MakeSpreadEstimator(bool sps,
                                                     std::size_t bytes) {
  if (sps) {
    return std::make_unique<SpreadSketch>(
        SpreadSketch::WithMemory(bytes, kDepth));
  }
  return std::make_unique<VectorBloomFilter>(
      5, std::max<std::size_t>(64, bytes / (5 * 32)), 256);
}

Windows RunSpreadTumblingBaseline(const Trace& trace, bool sps, bool tw1) {
  auto est = MakeSpreadEstimator(sps, kWindowBytes);
  const QueryDef def = SpreadDef();
  Windows out;
  Nanos start = 0;
  FlowSet window_keys;  // key list a telemetry system would track
  auto flush = [&] {
    BaselineWindowResult w{start, start + kWindow, {}};
    if (sps) {
      for (const FlowKey& key : est->Candidates()) {
        if (est->EstimateSpread(key) >= kSpreadThreshold) {
          w.detected.insert(key);
        }
      }
    } else {
      for (const FlowKey& key : window_keys) {
        if (est->EstimateSpread(key) >= kSpreadThreshold) {
          w.detected.insert(key);
        }
      }
    }
    out.push_back(std::move(w));
    est->Reset();
    window_keys.clear();
    start += kWindow;
  };
  for (const Packet& p : trace.packets) {
    while (p.ts >= start + kWindow) flush();
    if (tw1 && p.ts < start + kCrTime) continue;
    const FlowKey key = p.Key(FlowKeyKind::kSrcIp);
    est->Update(key, def.element(p));
    if (!sps) window_keys.insert(key);
  }
  flush();
  return out;
}

Windows RunSpreadOmniWindow(const Trace& trace, bool sps, bool sliding) {
  auto app = std::make_shared<SpreadSketchApp>(
      sps ? "sps" : "vbf", FlowKeyKind::kSrcIp,
      [&] { return MakeSpreadEstimator(sps, kWindowBytes / 4); },
      /*tracks_own_keys=*/sps);
  EvalParams params;
  const WindowSpec spec = sliding ? SlidingSpec(params) : TumblingSpec(params);
  const RunResult result = RunOmniWindow(
      trace, app, RunConfig::Make(spec), [&](TableView table) {
        FlowSet set;
        table.ForEach([&](const KvSlot& slot) {
          const SpreadSignature sig{slot.attrs[0], slot.attrs[1],
                                    slot.attrs[2], slot.attrs[3]};
          if (app->EstimateMerged(sig) >= kSpreadThreshold) {
            set.insert(slot.key);
          }
        });
        return set;
      });
  return OmniToWindows(result);
}

void RunQ8(const Trace& trace) {
  const QueryDef def = SpreadDef();
  const Windows truth = RunIdealSliding(def, trace, kWindow, kSlide);
  auto score = [&](const Windows& got) {
    return WindowedPrecisionRecall(got, truth);
  };
  std::printf("Q8 super-spreaders (threshold %.0f distinct dsts)\n",
              kSpreadThreshold);
  for (const bool sps : {true, false}) {
    std::printf("  %s:\n", sps ? "SpreadSketch" : "VectorBloomFilter");
    PrintPr("ITW", score(RunIdealTumbling(def, trace, kWindow)));
    PrintPr("TW1", score(RunSpreadTumblingBaseline(trace, sps, true)));
    PrintPr("TW2", score(RunSpreadTumblingBaseline(trace, sps, false)));
    PrintPr("OTW", score(RunSpreadOmniWindow(trace, sps, false)));
    PrintPr("ISW", score(truth));
    PrintPr("OSW", score(RunSpreadOmniWindow(trace, sps, true)));
    std::fflush(stdout);
  }
}

// ------------------------------------------------------- Q10: flow volume

QueryDef VolumeDef() {
  QueryDef def;
  def.name = "Q10_flow_volume";
  def.key_kind = FlowKeyKind::kFiveTuple;
  def.aggregate = QueryAggregate::kCount;
  def.threshold = 1;
  return def;
}

/// AARE of per-window flow estimates over flows with >= 10 true packets.
double Aare(const std::map<Nanos, FlowCounts>& est_windows,
            const Trace& trace) {
  IdealQueryEngine ideal(trace);
  double sum = 0;
  std::size_t n = 0;
  for (const auto& [start, est] : est_windows) {
    const FlowCounts truth = ideal.Aggregate(VolumeDef(), start,
                                             start + kWindow);
    for (const auto& [key, v] : truth) {
      if (v < 10) continue;
      auto it = est.find(key);
      const double e = it == est.end() ? 0.0 : double(it->second);
      sum += std::abs(e - double(v)) / double(v);
      ++n;
    }
  }
  return n ? sum / double(n) : 0.0;
}

template <typename SketchT>
std::map<Nanos, FlowCounts> RunVolTumblingBaseline(const Trace& trace,
                                                   bool tw1) {
  auto sketch = SketchT::WithMemory(kWindowBytes, kDepth);
  IdealQueryEngine ideal(trace);
  std::map<Nanos, FlowCounts> out;
  Nanos start = 0;
  auto flush = [&] {
    FlowCounts est;
    for (const auto& [key, v] :
         ideal.Aggregate(VolumeDef(), start, start + kWindow)) {
      est[key] = sketch.Estimate(key);
    }
    out[start] = std::move(est);
    sketch.Reset();
    start += kWindow;
  };
  for (const Packet& p : trace.packets) {
    while (p.ts >= start + kWindow) flush();
    if (tw1 && p.ts < start + kCrTime) continue;
    sketch.Update(p.Key(FlowKeyKind::kFiveTuple), 1);
  }
  flush();
  return out;
}

template <typename SketchT>
std::map<Nanos, FlowCounts> RunVolOmni(const Trace& trace, bool sliding) {
  auto app = std::make_shared<FrequencySketchApp>(
      "vol", FlowKeyKind::kFiveTuple, FrequencyValue::kPackets, [] {
        return std::make_unique<SketchT>(
            SketchT::WithMemory(kWindowBytes / 4, kDepth));
      });
  EvalParams params;
  const WindowSpec spec = sliding ? SlidingSpec(params) : TumblingSpec(params);

  std::map<Nanos, FlowCounts> out;
  NetworkRunConfig cfg{.base = RunConfig::Make(spec),
                       .topology = {.line_switches = 1}};
  cfg.window_observer = [&](std::size_t, const WindowResult& w) {
    FlowCounts est;
    w.table->ForEach(
        [&](const KvSlot& slot) { est[slot.key] = slot.attrs[0]; });
    out[Nanos(w.span.first) * kSub] = std::move(est);
  };
  RunOmniWindowFabric(trace, [&](std::size_t) { return app; }, cfg);
  return out;
}

template <typename SlidingT>
std::map<Nanos, FlowCounts> RunVolSlidingSketch(const Trace& trace) {
  SlidingT sk(kDepth,
              std::max<std::size_t>(1, kWindowBytes / (kDepth * 8 * 2)),
              kWindow);
  IdealQueryEngine ideal(trace);
  std::map<Nanos, FlowCounts> out;
  Nanos next_emit = kWindow;
  for (const Packet& p : trace.packets) {
    while (p.ts >= next_emit) {
      FlowCounts est;
      for (const auto& [key, v] :
           ideal.Aggregate(VolumeDef(), next_emit - kWindow, next_emit)) {
        est[key] = sk.Estimate(key, next_emit);
      }
      out[next_emit - kWindow] = std::move(est);
      next_emit += kSlide;
    }
    sk.Update(p.Key(FlowKeyKind::kFiveTuple), 1, p.ts);
  }
  return out;
}

void RunQ10(const Trace& trace) {
  std::printf(
      "Q10 per-flow volume (AARE over flows >= 10 pkts; lower=better)\n");
  auto aare = [&](const std::map<Nanos, FlowCounts>& w) {
    return Aare(w, trace);
  };
  std::printf("  Count-Min:\n");
  std::printf("    TW1 %.4f  TW2 %.4f  OTW %.4f\n",
              aare(RunVolTumblingBaseline<CountMinSketch>(trace, true)),
              aare(RunVolTumblingBaseline<CountMinSketch>(trace, false)),
              aare(RunVolOmni<CountMinSketch>(trace, false)));
  std::fflush(stdout);
  std::printf("    SS  %.4f  OSW %.4f   (sliding)\n",
              aare(RunVolSlidingSketch<SlidingCountMin>(trace)),
              aare(RunVolOmni<CountMinSketch>(trace, true)));
  std::fflush(stdout);
  std::printf("  SuMax:\n");
  std::printf("    TW1 %.4f  TW2 %.4f  OTW %.4f\n",
              aare(RunVolTumblingBaseline<SuMaxSketch>(trace, true)),
              aare(RunVolTumblingBaseline<SuMaxSketch>(trace, false)),
              aare(RunVolOmni<SuMaxSketch>(trace, false)));
  std::fflush(stdout);
  std::printf("    SS  %.4f  OSW %.4f   (sliding)\n",
              aare(RunVolSlidingSketch<SlidingSuMax>(trace)),
              aare(RunVolOmni<SuMaxSketch>(trace, true)));
  std::fflush(stdout);
}

// ----------------------------------------------------- Q11: cardinality

double ExactDistinct(const Trace& trace, Nanos start, Nanos end) {
  FlowSet flows;
  for (const Packet& p : trace.packets) {
    if (p.ts < start) continue;
    if (p.ts >= end) break;
    flows.insert(p.Key(FlowKeyKind::kFiveTuple));
  }
  return double(flows.size());
}

/// Run a cardinality app through the full pipeline (state-migration path)
/// and return the per-window estimates keyed by window start time.
template <typename AppT, typename EstimateFn>
std::map<Nanos, double> RunCardOmni(const Trace& trace, bool sliding,
                                    std::shared_ptr<AppT> app,
                                    EstimateFn&& estimate) {
  EvalParams params;
  const WindowSpec spec = sliding ? SlidingSpec(params) : TumblingSpec(params);
  std::map<Nanos, double> out;
  NetworkRunConfig cfg{.base = RunConfig::Make(spec),
                       .topology = {.line_switches = 1}};
  cfg.window_observer = [&](std::size_t, const WindowResult& w) {
    out[Nanos(w.span.first) * kSub] = estimate(*w.table);
  };
  RunOmniWindowFabric(trace, [&](std::size_t) { return app; }, cfg);
  return out;
}

void RunQ11(const Trace& trace) {
  std::printf("Q11 flow cardinality (avg ARE per window; lower=better)\n");
  constexpr std::size_t kCardBits = 1 << 17;  // LC bitmap bits per window
  constexpr unsigned kHllPrecision = 11;

  auto score = [&](const std::map<Nanos, double>& estimates) {
    double are = 0;
    std::size_t n = 0;
    for (const auto& [start, est] : estimates) {
      const double truth = ExactDistinct(trace, start, start + kWindow);
      if (truth < 100) continue;
      are += RelativeError(est, truth);
      ++n;
    }
    return n ? are / double(n) : 0.0;
  };

  // TW2 reference: one full-memory instance per tumbling window.
  auto tw2_lc = [&] {
    LinearCounting lc(kCardBits);
    std::map<Nanos, double> out;
    Nanos start = 0;
    for (const Packet& p : trace.packets) {
      while (p.ts >= start + kWindow) {
        out[start] = lc.Estimate();
        lc.Reset();
        start += kWindow;
      }
      lc.Add(p.Key(FlowKeyKind::kFiveTuple).Hash(0xCA4D1417ull));
    }
    out[start] = lc.Estimate();
    return out;
  };
  auto tw2_hll = [&] {
    HyperLogLog hll(kHllPrecision);
    std::map<Nanos, double> out;
    Nanos start = 0;
    for (const Packet& p : trace.packets) {
      while (p.ts >= start + kWindow) {
        out[start] = hll.Estimate();
        hll.Reset();
        start += kWindow;
      }
      hll.Add(p.Key(FlowKeyKind::kFiveTuple).Hash(0xCA4D1417ull));
    }
    out[start] = hll.Estimate();
    return out;
  };

  // OmniWindow: the real §8 state-migration pipeline — per-sub-window
  // quarter-size state shipped by recirculating migration packets, merged
  // by OR (LC) / register max (HLL) in the controller.
  {
    auto lc_est = [](TableView t) {
      return LinearCountingApp::EstimateFromTable(t, kCardBits / 4);
    };
    const auto otw = RunCardOmni(
        trace, false, std::make_shared<LinearCountingApp>(kCardBits / 4),
        lc_est);
    const auto osw = RunCardOmni(
        trace, true, std::make_shared<LinearCountingApp>(kCardBits / 4),
        lc_est);
    std::printf("  LinearCounting: TW2 %.4f  OTW %.4f  OSW %.4f\n",
                score(tw2_lc()), score(otw), score(osw));
    std::fflush(stdout);
  }
  {
    auto hll_est = [](TableView t) {
      return HyperLogLogApp::EstimateFromTable(t, kHllPrecision - 2);
    };
    const auto otw = RunCardOmni(
        trace, false, std::make_shared<HyperLogLogApp>(kHllPrecision - 2),
        hll_est);
    const auto osw = RunCardOmni(
        trace, true, std::make_shared<HyperLogLogApp>(kHllPrecision - 2),
        hll_est);
    std::printf("  HyperLogLog: TW2 %.4f  OTW %.4f  OSW %.4f\n",
                score(tw2_hll()), score(otw), score(osw));
    std::fflush(stdout);
  }
}

}  // namespace

int main() {
  const Trace trace = MakeEvalTrace(/*seed=*/2002);
  std::printf("Exp#2: sketch-based algorithms (trace: %zu packets)\n\n",
              trace.packets.size());
  RunQ8(trace);
  RunQ9(trace);
  RunQ10(trace);
  RunQ11(trace);
  return 0;
}
