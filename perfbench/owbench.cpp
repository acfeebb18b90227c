// OmniWindow end-to-end benchmark driver (perfbench/README.md).
//
//   owbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--spans-out <path>]
//
// Replays one workload through the public FabricSession API as a closed
// batch: each replay generates its trace from the seed, builds a session,
// drives it to Finish(), and checks every emitted window against a
// reference the benchmark computes itself. Replays repeat until --seconds
// have passed; the first replay warms the process up and is not timed into
// the reported medians. The last stdout line is one JSON object.
//
// --trace 0 reports the end-to-end metrics (no instrumentation beyond the
// library's always-on counters). --trace 1 alternates untraced and traced
// replays: traced ones wrap the app in a counting decorator, time every
// call the benchmark makes into a layer as a span, and report per-layer
// metrics that reconcile with the traced drive time.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "perfbench/layers.h"
#include "src/core/network_runner.h"
#include "src/detect/detect.h"
#include "src/detect/score.h"
#include "src/failover/failover.h"
#include "src/obs/obs.h"
#include "src/telemetry/baselines.h"
#include "src/telemetry/exact_count.h"
#include "src/telemetry/query.h"
#include "src/trace/generator.h"

namespace {

using namespace ow;
using owbench::AppCounters;
using owbench::Median;
using owbench::NowNs;
using owbench::Quantile;
using owbench::ScopedSpan;
using owbench::SpanLog;

// --------------------------------------------------------------------------
// Workloads.

enum class Kind { kSwitchQuery, kLeafSpineDetect, kStandby };

struct Workload {
  const char* name;
  Kind kind;
};

constexpr Workload kWorkloads[] = {
    {"switch1-query", Kind::kSwitchQuery},
    {"leafspine4x3-detect", Kind::kLeafSpineDetect},
    {"leafspine48x16-standby", Kind::kStandby},
};

/// Live drive granularity of the standby workload.
constexpr Nanos kStandbyStep = 2500 * kMicro;

/// Detection quality floors, below what every seed tried reaches. Query
/// windows of seeds 1-6 score 0.95-1.0 against the ideal sliding window
/// (§9.1 OSW). The detector scores precision 1.0 and recall 8/11 on the
/// 2 s trace: the three anomalies injected in its first half second fall
/// into the EWMA baselines' cold start.
constexpr double kQueryPrecisionFloor = 0.8;
constexpr double kQueryRecallFloor = 0.8;
constexpr double kAlertPrecisionFloor = 0.9;
constexpr double kAlertRecallFloor = 0.7;

struct Input {
  Trace trace;
  std::vector<InjectedAnomaly> labels;
};

Input MakeInput(Kind kind, std::uint64_t seed) {
  TraceConfig tc;
  tc.seed = seed;
  switch (kind) {
    case Kind::kSwitchQuery:
      tc.duration = 10 * kSecond;
      tc.packets_per_sec = 100'000;
      tc.num_flows = 20'000;
      break;
    case Kind::kLeafSpineDetect:
      tc.duration = 2 * kSecond;
      tc.packets_per_sec = 30'000;
      tc.num_flows = 8'000;
      break;
    case Kind::kStandby:
      tc.duration = 2500 * kMilli;
      tc.packets_per_sec = 25'000;
      tc.num_flows = 2'500;
      break;
  }
  TraceGenerator gen(tc);
  Input in;
  in.trace = kind == Kind::kStandby ? gen.GenerateBackground()
                                    : gen.GenerateEvaluationTrace();
  in.labels = gen.injected();
  return in;
}

WindowSpec MakeSpec(Kind kind) {
  WindowSpec spec;
  if (kind == Kind::kStandby) {  // exp11 geometry
    spec.type = WindowType::kTumbling;
    spec.window_size = 100 * kMilli;
    spec.slide = spec.window_size;
    spec.subwindow_size = 50 * kMilli;
  } else {  // the paper's §9.1 geometry
    spec.type = WindowType::kSliding;
    spec.window_size = 500 * kMilli;
    spec.slide = 100 * kMilli;
    spec.subwindow_size = 100 * kMilli;
  }
  return spec;
}

/// `capture_counts` records every window's flow-count table: the
/// verification replay's output. Timed replays run without it.
NetworkRunConfig MakeConfig(Kind kind, bool capture_counts) {
  NetworkRunConfig cfg;
  cfg.base = RunConfig::Make(MakeSpec(kind));
  switch (kind) {
    case Kind::kSwitchQuery:
      cfg.topology.kind = TopologyKind::kLine;
      cfg.topology.line_switches = 1;
      break;
    case Kind::kLeafSpineDetect:
      cfg.topology.kind = TopologyKind::kLeafSpine;
      cfg.topology.leaves = 4;
      cfg.topology.spines = 3;
      break;
    case Kind::kStandby:
      cfg.topology.kind = TopologyKind::kLeafSpine;
      cfg.topology.leaves = 48;
      cfg.topology.spines = 16;
      break;
  }
  if (kind != Kind::kSwitchQuery) {
    cfg.base.controller.kv_capacity = 1 << 16;
    cfg.link.latency = 20 * kMicro;
    cfg.link.jitter = 0;
    cfg.capture_counts = capture_counts;
  }
  return cfg;
}

/// The Sonata distinct query run on switch1-query: distinct sources per
/// destination (Q4), which updates state on every packet.
QueryDef SwitchQueryDef() { return StandardQuery(4); }

/// §9.1: each sub-window gets a quarter of the whole-window memory
/// (1 << 15 cells).
constexpr std::size_t kQueryCells = (std::size_t(1) << 15) / 4;

/// Windows the controller must emit for a trace of duration `d`: one
/// ending at every slide boundary from window_size up to and including the
/// first boundary at or past the trace end (tumbling: slide ==
/// window_size).
std::vector<SubWindowSpan> ExpectedSpans(const WindowSpec& spec, Nanos d) {
  std::vector<SubWindowSpan> out;
  const Nanos sub = spec.subwindow_size;
  for (Nanos end = spec.window_size; end - spec.slide < d; end += spec.slide) {
    out.push_back({SubWindowNum((end - spec.window_size) / sub),
                   SubWindowNum(end / sub - 1)});
  }
  return out;
}

// --------------------------------------------------------------------------
// Reference for the exact-count workloads: every packet's path from
// MakeTopologyNextHop, counted per (switch, sub-window, five-tuple). A
// window's reference count of a key is the sum over its span.

/// The end-of-trace sentinel (all-zero five-tuple) is flooded down every
/// path; it is framework plumbing, not traffic, and is left out of the
/// comparison.
bool IsSentinel(const FlowKey& key) {
  return key == FlowKey(FlowKeyKind::kFiveTuple, FiveTuple{});
}

struct SubWindowCounts {
  FlowCounts counts;
  std::uint64_t packets = 0;
};
using CountReference = std::vector<std::vector<SubWindowCounts>>;  // [sw][n]

CountReference BuildCountReference(const Trace& trace,
                                   const NetworkRunConfig& cfg) {
  const NextHopFn next_hop = MakeTopologyNextHop(cfg.topology);
  const Nanos sub = cfg.base.window.subwindow_size;
  const std::size_t n = TopologySwitchCount(cfg.topology);
  const std::size_t subwindows = std::size_t(trace.Duration() / sub) + 2;
  CountReference ref(n, std::vector<SubWindowCounts>(subwindows));
  for (const Packet& p : trace.packets) {
    const FlowKey key = p.Key(FlowKeyKind::kFiveTuple);
    const std::size_t sw = std::size_t(p.ts / sub);
    for (int u = 0; u >= 0; u = next_hop(u, key)) {
      SubWindowCounts& c = ref[std::size_t(u)][sw];
      ++c.counts[key];
      ++c.packets;
    }
  }
  return ref;
}

/// Largest share of a window's packets that may be missing before an
/// undercounted window counts as wrong. The data plane's flowkey tracker
/// dedupes keys with a Bloom filter (§4.1), so a false positive can drop a
/// key from one sub-window: an undercount, never an overcount.
constexpr double kMaxShortfallShare = 0.01;

enum class Verdict { kExact, kUndercounted, kWrong };

/// Compares one emitted window's flow counts with the reference.
Verdict CompareCounts(const FlowCounts* got,
                      const std::vector<SubWindowCounts>& ref,
                      SubWindowSpan span, std::uint64_t& shortfall) {
  std::uint64_t ref_packets = 0;
  for (SubWindowNum n = span.first; n <= span.last && n < ref.size(); ++n) {
    ref_packets += ref[n].packets;
  }
  std::uint64_t got_packets = 0;
  if (got) {
    for (const auto& [key, count] : *got) {
      if (IsSentinel(key)) continue;
      std::uint64_t want = 0;
      for (SubWindowNum n = span.first; n <= span.last && n < ref.size();
           ++n) {
        const auto it = ref[n].counts.find(key);
        if (it != ref[n].counts.end()) want += it->second;
      }
      if (count > want) return Verdict::kWrong;  // overcount or phantom key
      got_packets += count;
    }
  }
  shortfall = ref_packets - got_packets;
  if (shortfall == 0) return Verdict::kExact;
  return double(shortfall) <= kMaxShortfallShare * double(ref_packets)
             ? Verdict::kUndercounted
             : Verdict::kWrong;
}

// --------------------------------------------------------------------------
// One replay.

struct WindowTally {
  std::uint64_t expected = 0;
  std::uint64_t exact = 0;
  std::uint64_t partial = 0;  ///< flagged degraded (exact-or-flagged holds)
  /// Unflagged but short of a few packets: keys the flowkey tracker's
  /// Bloom filter dropped (see kMaxShortfallShare).
  std::uint64_t undercounted = 0;
  std::uint64_t packets_short = 0;
  std::uint64_t wrong = 0;  ///< missing, duplicated or unflagged mismatch
  WindowTally& operator+=(const WindowTally& o) {
    expected += o.expected;
    exact += o.exact;
    partial += o.partial;
    undercounted += o.undercounted;
    packets_short += o.packets_short;
    wrong += o.wrong;
    return *this;
  }
};

struct Replay {
  bool traced = false;
  std::size_t packets = 0;
  double gen_ms = 0;
  double build_ms = 0;
  double setup_s = 0;
  double drive_ms = 0;  ///< first drive call to the return of Finish()
  double drive_cpu_ms = 0;  ///< CPU time of the process over the same span

  double finish_ms = 0;
  std::vector<double> step_ms;
  std::vector<double> ckpt_ms;
  WindowTally windows;
  /// Detection quality: query windows vs. the ideal sliding window
  /// (switch1-query) or alerts vs. injected anomalies (leafspine4x3-detect).
  std::optional<PrecisionRecall> quality;
  std::vector<std::string> failures;
  /// Diagnostics that explain partial windows.
  std::uint64_t windows_partial = 0;
  std::uint64_t degraded_by_switch = 0;
  std::uint64_t collect_overruns = 0;
  /// Per-layer metrics (traced replays only).
  std::map<std::string, double> layer;
};

/// Per switch, every emitted window's (span, partial flag, simulated
/// completion time), in emission order.
using WindowSignature =
    std::vector<std::vector<std::tuple<SubWindowNum, SubWindowNum, bool, Nanos>>>;

WindowSignature SignatureOf(const NetworkRunResult& result) {
  WindowSignature sig(result.per_switch.size());
  for (std::size_t s = 0; s < result.per_switch.size(); ++s) {
    for (const EmittedWindow& w : result.per_switch[s].windows) {
      sig[s].emplace_back(w.span.first, w.span.last, w.partial,
                          w.completed_at);
    }
  }
  return sig;
}

/// Reference state shared by the replays of one run, computed by the first
/// (verification) replay. Every replay regenerates the same trace from the
/// seed, and the program is deterministic, so a later replay is correct
/// when it reproduces the verified replay's output.
struct RunReference {
  bool ready = false;
  std::size_t packets = 0;
  Nanos duration = 0;
  CountReference counts;
  std::vector<BaselineWindowResult> truth;  ///< switch1-query
  std::vector<SubWindowSpan> spans;
  std::vector<FlowSet> detections;  ///< switch1-query, first replay's
  WindowSignature signature;        ///< exact-count workloads
  WindowTally verified;             ///< the verification replay's tally
  std::vector<detect::Alert> alerts;
};

void CheckExactWindows(const NetworkRunResult& result,
                       const RunReference& ref, Replay& r) {
  for (std::size_t s = 0; s < result.per_switch.size(); ++s) {
    const SwitchRun& run = result.per_switch[s];
    const std::string where = "switch " + std::to_string(s) + ": window [";
    std::map<std::pair<SubWindowNum, SubWindowNum>, const EmittedWindow*> got;
    for (const EmittedWindow& w : run.windows) {
      if (!got.emplace(std::make_pair(w.span.first, w.span.last), &w).second) {
        ++r.windows.wrong;
        r.failures.push_back(where + std::to_string(w.span.first) +
                             ",..] emitted twice");
      }
    }
    // Returns false when the window breaks the exact-or-flagged contract.
    auto judge = [&](const EmittedWindow& w, bool expected) {
      if (w.partial) {
        if (expected) ++r.windows.partial;
        return true;
      }
      const auto it = run.counts.find(w.span.first);
      std::uint64_t shortfall = 0;
      const Verdict v =
          CompareCounts(it == run.counts.end() ? nullptr : &it->second,
                        ref.counts[s], w.span, shortfall);
      if (v == Verdict::kWrong) return false;
      if (expected) {
        if (v == Verdict::kExact) ++r.windows.exact;
        if (v == Verdict::kUndercounted) ++r.windows.undercounted;
        r.windows.packets_short += shortfall;
      }
      return true;
    };
    for (const SubWindowSpan& span : ref.spans) {
      ++r.windows.expected;
      const std::string name = where + std::to_string(span.first) + "," +
                               std::to_string(span.last) + "]";
      const auto it = got.find({span.first, span.last});
      if (it == got.end()) {
        ++r.windows.wrong;
        r.failures.push_back(name + " missing");
        continue;
      }
      if (!judge(*it->second, true)) {
        ++r.windows.wrong;
        r.failures.push_back(name + " counts differ from the trace");
      }
      got.erase(it);
    }
    // Windows past the expected set (the sentinel's tail) are allowed but
    // must still be exact or flagged.
    for (const auto& [span, w] : got) {
      if (!judge(*w, false)) {
        ++r.windows.wrong;
        r.failures.push_back(where + std::to_string(span.first) + "," +
                             std::to_string(span.second) +
                             "] (past the trace) counts differ");
      }
    }
  }
}

void CheckQueryWindows(const NetworkRunResult& result, const WindowSpec& spec,
                       RunReference& ref, Replay& r) {
  const SwitchRun& run = result.per_switch[0];
  std::vector<BaselineWindowResult> got;
  std::map<std::pair<SubWindowNum, SubWindowNum>, const EmittedWindow*> by_span;
  for (const EmittedWindow& w : run.windows) {
    got.push_back({Nanos(w.span.first) * spec.subwindow_size,
                   Nanos(w.span.last + 1) * spec.subwindow_size, w.detected});
    by_span.emplace(std::make_pair(w.span.first, w.span.last), &w);
  }
  for (const SubWindowSpan& span : ref.spans) {
    ++r.windows.expected;
    const auto it = by_span.find({span.first, span.last});
    if (it == by_span.end()) {
      ++r.windows.wrong;
      r.failures.push_back("missing window [" + std::to_string(span.first) +
                           "," + std::to_string(span.last) + "]");
    } else if (it->second->partial) {
      ++r.windows.partial;
    } else {
      ++r.windows.exact;
    }
  }
  const PrecisionRecall pr = WindowedPrecisionRecall(got, ref.truth);
  r.quality = pr;
  if (pr.precision < kQueryPrecisionFloor || pr.recall < kQueryRecallFloor) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "query precision %.4f / recall %.4f below floor %.2f / %.2f",
                  pr.precision, pr.recall, kQueryPrecisionFloor,
                  kQueryRecallFloor);
    r.failures.push_back(buf);
  }
  // Determinism: every replay of the same trace detects the same keys.
  std::vector<FlowSet> detections;
  for (const EmittedWindow& w : run.windows) detections.push_back(w.detected);
  if (ref.detections.empty()) {
    ref.detections = std::move(detections);
  } else if (detections != ref.detections) {
    r.failures.push_back("detections differ from the first replay");
  }
}

struct Context {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  SpanLog* spans = nullptr;
  RunReference ref;
};

/// Sums of the controller phase histograms, in ms.
double HistMs(const char* name) {
  return double(obs::Global().GetHistogram(name).sum()) / 1e6;
}
double CounterValue(const char* name) {
  return double(obs::Global().GetCounter(name).value());
}

Replay RunReplay(Context& ctx, bool traced) {
  const Kind kind = ctx.workload->kind;
  SpanLog& log = *ctx.spans;
  log.set_enabled(traced);
  obs::Global().Reset();
  Replay r;
  r.traced = traced;
  AppCounters app;
  const std::uint32_t replay_span = log.Begin("replay");

  // ---- setup: trace generation + session construction.
  const std::uint64_t t0 = NowNs();
  std::optional<Input> input;
  {
    const ScopedSpan s(log, "trace.gen");
    input.emplace(MakeInput(kind, ctx.seed));
  }
  const std::uint64_t t1 = NowNs();
  RunReference& ref = ctx.ref;
  const bool verify = !ref.ready;
  NetworkRunConfig cfg = MakeConfig(kind, verify);
  const WindowSpec spec = cfg.base.window;
  const std::size_t num_switches = TopologySwitchCount(cfg.topology);

  std::shared_ptr<QueryAdapter> query_app;
  std::function<FlowSet(TableView)> detect;
  if (kind == Kind::kSwitchQuery) {
    query_app = std::make_shared<QueryAdapter>(SwitchQueryDef(), kQueryCells);
    if (traced) {
      detect = [qa = query_app.get(), &app](TableView table) {
        const std::uint64_t s = NowNs();
        FlowSet out = qa->Detect(table);
        app.detect_ns += NowNs() - s;
        return out;
      };
    } else {
      detect = [qa = query_app.get()](TableView table) {
        return qa->Detect(table);
      };
    }
  }
  auto make_app = [&](std::size_t) -> AdapterPtr {
    AdapterPtr inner = query_app ? AdapterPtr(query_app)
                                 : AdapterPtr(std::make_shared<ExactCountApp>());
    if (!traced) return inner;
    return std::make_shared<owbench::CountingApp>(std::move(inner), &app);
  };

  std::optional<detect::DetectionService> service;
  std::uint64_t observe_ns = 0, observe_calls = 0;
  if (kind == Kind::kLeafSpineDetect) {
    detect::DetectorConfig dcfg;  // library defaults (docs/detection.md)
    service.emplace(dcfg, num_switches);
    if (traced) {
      cfg.window_observer = [&](std::size_t i, const WindowResult& w) {
        const ScopedSpan s(log, "detect.observe");
        const std::uint64_t o0 = NowNs();
        service->OnWindow(i, w);
        observe_ns += NowNs() - o0;
        ++observe_calls;
      };
    } else {
      cfg.window_observer = service->Observer();
    }
  }
  std::optional<failover::StandbyController> standby;
  if (kind == Kind::kStandby) {
    failover::FailoverConfig fc;
    fc.snapshot_cadence = 1;
    fc.delta_checkpoints = true;
    standby.emplace(fc);
  }

  std::optional<FabricSession> session;
  {
    const ScopedSpan s(log, "session.build");
    session.emplace(input->trace, make_app, cfg, detect);
  }
  const std::uint64_t t2 = NowNs();
  const std::uint64_t cpu2 = owbench::CpuNs();

  // ---- drive: closed loop, every call starts after the previous returns.
  std::uint64_t drive_calls = 0;
  auto checkpoint = [&](std::size_t boundary) {
    const ScopedSpan s(log, "ckpt.observe");
    const std::uint64_t c0 = NowNs();
    standby->ObserveBoundary(*session, boundary);
    r.ckpt_ms.push_back(double(NowNs() - c0) / 1e6);
  };
  // Boundaries 1..N cover the trace plus the end-of-trace sentinel, which
  // sits one sub-window past the trace end.
  const Nanos sub = spec.subwindow_size;
  const std::size_t boundaries =
      std::size_t((session->trace_duration() + 2 * sub) / sub);
  if (kind == Kind::kStandby) {
    const Nanos end = Nanos(boundaries) * sub;
    for (Nanos t = kStandbyStep; t <= end; t += kStandbyStep) {
      const std::uint64_t s0 = NowNs();
      {
        const ScopedSpan s(log, "drive.step");
        if (t == kStandbyStep) checkpoint(0);
        session->DriveUntil(t);
        ++drive_calls;
        if (t % sub == 0) checkpoint(std::size_t(t / sub));
      }
      r.step_ms.push_back(double(NowNs() - s0) / 1e6);
    }
  }
  const std::uint64_t f0 = NowNs();
  NetworkRunResult result;
  {
    const ScopedSpan s(log, "session.finish");
    result = session->Finish();
    ++drive_calls;
  }
  const std::uint64_t t3 = NowNs();
  r.drive_cpu_ms = double(owbench::CpuNs() - cpu2) / 1e6;
  log.End(replay_span);
  if (kind != Kind::kStandby) r.step_ms.push_back(double(t3 - f0) / 1e6);

  r.packets = input->trace.packets.size();
  r.gen_ms = double(t1 - t0) / 1e6;
  r.build_ms = double(t2 - t1) / 1e6;
  r.setup_s = double(t2 - t0) / 1e9;
  r.drive_ms = double(t3 - t2) / 1e6;
  r.finish_ms = double(t3 - f0) / 1e6;

  // ---- correctness (untimed).
  if (verify) {
    ref.ready = true;
    ref.packets = r.packets;
    ref.duration = input->trace.Duration();
    ref.spans = ExpectedSpans(spec, ref.duration);
    if (kind == Kind::kSwitchQuery) {
      ref.truth = RunIdealSliding(SwitchQueryDef(), input->trace,
                                  spec.window_size, spec.slide);
    } else {
      ref.counts = BuildCountReference(input->trace, cfg);
      CheckExactWindows(result, ref, r);
      ref.counts.clear();
      ref.signature = SignatureOf(result);
      ref.verified = r.windows;
    }
    if (service) ref.alerts = service->Alerts();
  } else if (r.packets != ref.packets ||
             input->trace.Duration() != ref.duration) {
    r.failures.push_back("trace differs between replays of one seed");
  }
  if (kind == Kind::kSwitchQuery) {
    CheckQueryWindows(result, spec, ref, r);
  } else if (!verify) {
    if (SignatureOf(result) == ref.signature) {
      r.windows = ref.verified;
    } else {
      r.windows.expected = ref.verified.expected;
      r.windows.wrong = ref.verified.expected;
      r.failures.push_back("windows differ from the verified replay");
    }
  }
  if (service && !verify && service->Alerts() != ref.alerts) {
    r.failures.push_back("alert stream differs from the verified replay");
  }
  if (service) {
    const detect::StreamingScore score =
        detect::ScoreAlertStream(service->Alerts(), input->labels);
    r.quality = score.pr;
    if (score.pr.precision < kAlertPrecisionFloor ||
        score.pr.recall < kAlertRecallFloor) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "alert precision %.4f / recall %.4f below floor %.2f / "
                    "%.2f",
                    score.pr.precision, score.pr.recall, kAlertPrecisionFloor,
                    kAlertRecallFloor);
      r.failures.push_back(buf);
    }
  }
  if (standby && standby->snapshots_taken() != boundaries + 1) {
    r.failures.push_back("standby missed a boundary checkpoint");
  }
  for (std::size_t i = 0; i < num_switches; ++i) {
    r.windows_partial += session->controller(i).stats().windows_partial;
    r.degraded_by_switch +=
        session->controller(i).stats().subwindows_degraded_by_switch;
    r.collect_overruns += session->program(i).stats().collect_overruns;
  }

  if (!traced) return r;

  // ---- per-layer attribution (traced replays).
  auto& L = r.layer;
  const double pkts = double(r.packets);
  const double o2 = HistMs("controller.o2_insert_ns");
  const double o3 = HistMs("controller.o3_merge_ns");
  const double o4 = HistMs("controller.o4_process_ns");
  const double o5 = HistMs("controller.o5_evict_ns");
  const double observe_ms = double(observe_ns) / 1e6;
  const double detect_ms = double(app.detect_ns) / 1e6;
  double ckpt_ms = 0;
  for (const double c : r.ckpt_ms) ckpt_ms += c;
  const double app_ms = double(app.DataPlaneNs()) / 1e6;
  std::uint64_t afrs = 0, retrans = 0;
  for (const SwitchRun& sw : result.per_switch) {
    afrs += sw.controller.afrs_received;
    retrans += sw.controller.retransmissions_requested;
  }
  L["trace.gen_ms"] = r.gen_ms;
  L["session.build_ms"] = r.build_ms;
  L["session.finish_ms"] = r.finish_ms;
  L["app.update_calls"] = double(app.update_calls);
  L["app.update_ns"] =
      app.update_calls ? double(app.update_ns) / double(app.update_calls) : 0;
  L["app.query_calls"] = double(app.query_calls);
  L["app.query_ms"] = double(app.query_ns) / 1e6;
  L["app.reset_ms"] = double(app.reset_ns) / 1e6;
  L["app.migrate_calls"] = double(app.migrate_calls);
  L["app.detect_ms"] = detect_ms;
  L["controller.o2_insert_ms"] = o2;
  L["controller.o3_merge_ms"] = o3;
  L["controller.o4_self_ms"] = o4 - observe_ms - detect_ms;
  L["controller.o5_evict_ms"] = o5;
  L["controller.afrs_per_packet"] = double(afrs) / pkts;
  L["controller.retransmissions"] = double(retrans);
  L["merge.records"] = CounterValue("merge.records");
  L["controller.windows_partial"] = double(r.windows_partial);
  L["controller.subwindows_degraded_by_switch"] = double(r.degraded_by_switch);
  L["dp.collect_overruns"] = double(r.collect_overruns);
  L["detect.observe_ms"] = observe_ms;
  L["detect.ns_per_window"] =
      observe_calls ? double(observe_ns) / double(observe_calls) : 0;
  L["detect.windows"] = double(observe_calls);
  if (service) {
    const detect::EntityDetector::Stats ds = service->TotalStats();
    L["detect.tracked_peak"] = double(ds.tracked_peak);
    L["detect.evictions"] = double(ds.evictions);
  } else {
    L["detect.tracked_peak"] = 0;
    L["detect.evictions"] = 0;
  }
  L["ckpt.observe_ms"] = ckpt_ms;
  L["ckpt.ms_p50"] = Median(r.ckpt_ms);
  L["ckpt.count"] = standby ? double(standby->snapshots_taken()) : 0;
  L["ckpt.wire_bytes_per_ckpt"] =
      standby && standby->snapshots_taken()
          ? double(standby->wire_bytes_total()) /
                double(standby->snapshots_taken())
          : 0;
  L["ckpt.snapshot_bytes"] = standby ? double(standby->snapshot().size()) : 0;
  // The net engine and the switch pipeline are not separable from outside:
  // their share is the drive time no other layer accounts for. The
  // observer and the detect callback run inside O4, so the whole O4 sum
  // is subtracted once.
  const double net_self = r.drive_ms - app_ms - (o2 + o3 + o4 + o5) - ckpt_ms;
  L["net.self_ms"] = net_self;
  L["net.self_share"] = net_self / r.drive_ms;
  L["net.drive_calls"] = double(drive_calls);
  L["switch.passes_per_packet"] = CounterValue("switch.passes") / pkts;
  L["switch.recirc_passes_per_packet"] =
      CounterValue("switch.recirc_passes") / pkts;
  L["link.transmits_per_packet"] = CounterValue("link.transmitted") / pkts;
  L["app.data_plane_ms"] = app_ms;  // self-time table only
  return r;
}

// --------------------------------------------------------------------------
// Reporting.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_out;
};

std::optional<Options> ParseArgs(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds > 0)) return std::nullopt;
    } else if (flag == "--trace") {
      o.trace = std::atoi(v);
      if (o.trace != 0 && o.trace != 1) return std::nullopt;
    } else if (flag == "--spans-out") {
      o.spans_out = v;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || !have_workload) return std::nullopt;
  return o;
}

/// Restarts the kernel's peak-RSS watermark (VmHWM) at the current RSS,
/// after handing freed heap back, so the peak covers only what follows.
/// Returns false where /proc/self/clear_refs is unavailable.
bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (!f) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// The highest percentile up to p99 with at least ten samples beyond it;
/// the median when the sample is too small for any tail (the batch
/// workloads make one drive call per replay).
double TailQuantile(std::size_t samples) {
  return std::max(0.5, std::min(0.99, 1.0 - 10.0 / double(samples)));
}

/// Peak resident set since the last ResetPeakRss (or process start).
double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f)) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return double(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

/// Unit of each per-layer metric, in the order BENCHMARK.json lists them.
const std::vector<std::pair<const char*, const char*>>& LayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> kList = {
      {"trace.gen_ms", "ms"},
      {"session.build_ms", "ms"},
      {"session.finish_ms", "ms"},
      {"app.update_calls", "count"},
      {"app.update_ns", "ns"},
      {"app.query_calls", "count"},
      {"app.query_ms", "ms"},
      {"app.reset_ms", "ms"},
      {"app.migrate_calls", "count"},
      {"app.detect_ms", "ms"},
      {"controller.o2_insert_ms", "ms"},
      {"controller.o3_merge_ms", "ms"},
      {"controller.o4_self_ms", "ms"},
      {"controller.o5_evict_ms", "ms"},
      {"controller.afrs_per_packet", "ratio"},
      {"controller.retransmissions", "count"},
      {"merge.records", "count"},
      {"controller.windows_partial", "count"},
      {"controller.subwindows_degraded_by_switch", "count"},
      {"dp.collect_overruns", "count"},
      {"detect.observe_ms", "ms"},
      {"detect.ns_per_window", "ns"},
      {"detect.windows", "count"},
      {"detect.tracked_peak", "count"},
      {"detect.evictions", "count"},
      {"ckpt.observe_ms", "ms"},
      {"ckpt.ms_p50", "ms"},
      {"ckpt.count", "count"},
      {"ckpt.wire_bytes_per_ckpt", "bytes"},
      {"ckpt.snapshot_bytes", "bytes"},
      {"net.self_ms", "ms"},
      {"net.self_share", "ratio"},
      {"net.drive_calls", "count"},
      {"switch.passes_per_packet", "ratio"},
      {"switch.recirc_passes_per_packet", "ratio"},
      {"link.transmits_per_packet", "ratio"},
      {"trace_overhead_pct", "%"},
  };
  return kList;
}

/// Median over `replays` of field `f`.
template <typename F>
double MedianOf(const std::vector<const Replay*>& replays, F f) {
  std::vector<double> v;
  for (const Replay* r : replays) v.push_back(f(*r));
  return Median(v);
}

void PrintSelfTimes(const std::vector<const Replay*>& traced,
                    const SpanLog& spans) {
  auto med = [&](const char* key) {
    return MedianOf(traced, [key](const Replay& r) { return r.layer.at(key); });
  };
  const double total = MedianOf(traced, [](const Replay& r) {
    return r.setup_s * 1e3 + r.drive_ms;
  });
  const std::vector<std::pair<const char*, double>> rows = {
      {"trace (generator)", med("trace.gen_ms")},
      {"core (session build)", med("session.build_ms")},
      {"telemetry app (data-plane calls)", med("app.data_plane_ms")},
      {"telemetry app (detect callback)", med("app.detect_ms")},
      {"controller O2 insert", med("controller.o2_insert_ms")},
      {"controller O3 merge", med("controller.o3_merge_ms")},
      {"controller O4 self", med("controller.o4_self_ms")},
      {"controller O5 evict", med("controller.o5_evict_ms")},
      {"detect observer", med("detect.observe_ms")},
      {"failover checkpoints", med("ckpt.observe_ms")},
      {"net + switchsim (self)", med("net.self_ms")},
  };
  std::printf("# per-layer self time, median over %zu traced replays "
              "(setup + drive = %.2f ms per replay)\n",
              traced.size(), total);
  double sum = 0;
  for (const auto& [name, ms] : rows) {
    std::printf("#   %-34s %10.3f ms  %5.1f%%\n", name, ms,
                total > 0 ? 100.0 * ms / total : 0.0);
    sum += ms;
  }
  std::printf("#   %-34s %10.3f ms (medians need not add exactly)\n",
              "sum of layers", sum);
  std::printf("# span self time, summed over traced replays:\n");
  for (const auto& [name, ns] : spans.SelfTimeNs()) {
    std::printf("#   %-34s %10.3f ms\n", name.c_str(), ns / 1e6);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> opt = ParseArgs(argc, argv);
  if (!opt) {
    std::fprintf(stderr,
                 "usage: owbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans-out <path>]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt->workload == w.name) workload = &w;
  }
  if (!workload) {
    std::fprintf(stderr, "owbench: unknown workload '%s'\n",
                 opt->workload.c_str());
    return 2;
  }

  SpanLog spans((opt->seed << 20) ^ std::uint64_t(getpid()) ^ NowNs());
  Context ctx;
  ctx.workload = workload;
  ctx.seed = opt->seed;
  ctx.spans = &spans;

  // Replay 0 warms the process up (first-touch page faults, pool growth)
  // and is excluded from the medians. Traced runs alternate untraced and
  // traced replays so the tracing overhead is measured under the same
  // conditions.
  const bool trace_mode = opt->trace == 1;
  const std::size_t min_timed = trace_mode ? 4 : 3;
  std::vector<Replay> replays;
  const std::uint64_t start = NowNs();
  while (replays.size() < 1 + min_timed ||
         double(NowNs() - start) / 1e9 < opt->seconds) {
    const bool traced = trace_mode && replays.size() % 2 == 0 &&
                        !replays.empty();
    spans.set_replay(std::uint32_t(replays.size()));
    replays.push_back(RunReplay(ctx, traced));
    // The peak covers the timed replays, not the verification replay's
    // count tables and reference.
    if (replays.size() == 1) ResetPeakRss();
  }

  std::vector<const Replay*> untraced, traced;
  WindowTally tally;
  bool correct = true;
  for (std::size_t i = 0; i < replays.size(); ++i) {
    const Replay& r = replays[i];
    tally += r.windows;
    for (const std::string& f : r.failures) {
      std::printf("FAIL replay %zu: %s\n", i, f.c_str());
      correct = false;
    }
    if (i == 0) continue;
    (r.traced ? traced : untraced).push_back(&r);
  }

  auto ns_per_packet = [](const Replay& r) {
    return r.drive_ms * 1e6 / double(r.packets);
  };
  std::vector<double> steps;
  for (const Replay* r : untraced) {
    steps.insert(steps.end(), r->step_ms.begin(), r->step_ms.end());
  }
  const double exact_ratio =
      tally.expected ? double(tally.exact) / double(tally.expected) : 0;
  const double failed_ratio =
      tally.expected
          ? double(tally.expected - tally.exact) / double(tally.expected)
          : 0;
  const Replay& last = replays.back();
  std::printf(
      "# %s seed=%llu: %zu replays (1 warm-up, %zu untraced, %zu traced), "
      "%zu packets per replay, in-process synthetic trace\n",
      workload->name, (unsigned long long)opt->seed, replays.size(),
      untraced.size(), traced.size(), last.packets);
  std::printf("# windows: expected=%llu exact=%llu partial=%llu "
              "undercounted=%llu (%llu packets short) wrong=%llu "
              "windows_failed_ratio=%.6f\n",
              (unsigned long long)tally.expected,
              (unsigned long long)tally.exact,
              (unsigned long long)tally.partial,
              (unsigned long long)tally.undercounted,
              (unsigned long long)tally.packets_short,
              (unsigned long long)tally.wrong, failed_ratio);
  if (last.quality) {
    std::printf("# detection quality: precision=%.4f recall=%.4f\n",
                last.quality->precision, last.quality->recall);
  }
  std::printf("# per replay: controller.windows_partial=%llu "
              "controller.subwindows_degraded_by_switch=%llu "
              "dp.collect_overruns=%llu\n",
              (unsigned long long)last.windows_partial,
              (unsigned long long)last.degraded_by_switch,
              (unsigned long long)last.collect_overruns);
  std::printf("# step samples (drive calls incl. due checkpoints): %zu; "
              "step_ms_p99 reports their p%.1f\n",
              steps.size(), 100 * TailQuantile(steps.size()));
  for (std::size_t i = 0; i < replays.size(); ++i) {
    std::printf("# replay %zu%s: setup %.1f ms, drive %.1f ms (cpu %.1f)\n", i,
                i == 0 ? " (warm-up)" : replays[i].traced ? " (traced)" : "",
                replays[i].setup_s * 1e3, replays[i].drive_ms,
                replays[i].drive_cpu_ms);
  }

  std::vector<Metric> metrics;
  const double untraced_ns = MedianOf(untraced, ns_per_packet);
  if (!trace_mode) {
    metrics = {
        {"setup_s", MedianOf(untraced, [](const Replay& r) {
           return r.setup_s;
         }), "s"},
        {"ns_per_packet", untraced_ns, "ns"},
        {"step_ms_p50", Quantile(steps, 0.5), "ms"},
        {"step_ms_p99", Quantile(steps, TailQuantile(steps.size())), "ms"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"windows_exact_ratio", exact_ratio, "ratio"},
    };
  } else {
    const double traced_ns = MedianOf(traced, ns_per_packet);
    for (const auto& [name, unit] : LayerMetrics()) {
      double v = 0;
      if (std::strcmp(name, "trace_overhead_pct") == 0) {
        v = 100.0 * (traced_ns - untraced_ns) / untraced_ns;
      } else {
        const std::string key = name;
        v = MedianOf(traced,
                     [&key](const Replay& r) { return r.layer.at(key); });
      }
      metrics.push_back({name, v, unit});
    }
    PrintSelfTimes(traced, spans);
    for (const Replay* r : traced) {
      if (r->layer.at("net.self_ms") < 0) {
        std::printf("FAIL: net.self_ms < 0 (%.3f ms): a layer is counted "
                    "twice\n",
                    r->layer.at("net.self_ms"));
        correct = false;
      }
    }
    if (!opt->spans_out.empty() && !spans.Write(opt->spans_out)) {
      std::printf("FAIL: cannot write spans to %s\n", opt->spans_out.c_str());
      correct = false;
    }
    std::printf("# %zu spans written to %s\n", spans.size(),
                opt->spans_out.empty() ? "(nowhere)" : opt->spans_out.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("# %-42s %14.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  PrintJson(correct, tally.expected, tally.wrong, metrics);
  return correct ? 0 : 1;
}
