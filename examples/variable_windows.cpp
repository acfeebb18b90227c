// Variable window sizes from one sub-window stream (requirement G1).
//
// The same 100 ms sub-windows are merged by the controller into 500 ms,
// 1 s and 2 s tumbling windows WITHOUT re-provisioning the data plane —
// the property Exp#10 builds on. The example runs the three window sizes
// over the same trace and shows the per-window heavy-hitter counts, plus a
// session-window run driven by traffic gaps.
#include <cstdio>

#include "src/core/network_runner.h"
#include "src/telemetry/query.h"
#include "src/trace/generator.h"

int main() {
  using namespace ow;

  TraceConfig tc;
  tc.seed = 77;
  tc.duration = 4 * kSecond;
  tc.packets_per_sec = 30'000;
  tc.num_flows = 5'000;
  TraceGenerator gen(tc);
  Trace trace = gen.GenerateBackground();
  gen.InjectDdos(trace, kSecond, 800 * kMilli, 400);
  trace.SortByTime();

  QueryDef def = StandardQuery(4);  // DDoS victim detection

  for (const Nanos window : {500 * kMilli, 1 * kSecond, 2 * kSecond}) {
    WindowSpec spec;
    spec.type = WindowType::kTumbling;
    spec.window_size = window;
    spec.subwindow_size = 100 * kMilli;  // unchanged across sizes

    auto app = std::make_shared<QueryAdapter>(def, 1 << 14);
    const RunResult result = RunOmniWindow(
        trace, app, RunConfig::Make(spec),
        [&](TableView table) { return app->Detect(table); });

    std::printf("tumbling %4lld ms: %2zu windows, detections per window:",
                (long long)(window / kMilli), result.windows.size());
    for (const auto& w : result.windows) {
      std::printf(" %zu", w.detected.size());
    }
    std::printf("\n");
  }

  // Variable spans on demand (G1): retain sub-window history and re-merge
  // an arbitrary range — e.g. the whole lifetime of a suspicious flow —
  // without touching the data plane.
  {
    auto app = std::make_shared<QueryAdapter>(def, 1 << 14);
    WindowSpec spec;
    spec.type = WindowType::kTumbling;
    spec.window_size = 500 * kMilli;
    spec.subwindow_size = 100 * kMilli;
    NetworkRunConfig cfg{.base = RunConfig::Make(spec),
                         .topology = {.line_switches = 1}};
    cfg.base.controller.retain_subwindows = 64;  // history for ad-hoc spans

    FabricSession session(trace, [&](std::size_t) { return app; }, cfg);
    session.Finish();
    const OmniWindowController& controller = session.controller(0);
    const auto span = controller.RetainedSpan();
    if (span) {
      std::printf("\nretained sub-windows: [%u, %u] — querying ad-hoc "
                  "spans:\n", span->first, span->last);
      for (const SubWindowSpan q : {SubWindowSpan{8, 12},
                                    SubWindowSpan{5, 24},
                                    SubWindowSpan{0, span->last}}) {
        KeyValueTable merged(1 << 14);
        if (!controller.QueryRange(q, merged)) continue;
        const FlowSet hits = app->Detect(merged);
        std::printf("  span [%2u..%2u] (%lld ms): %zu detections\n", q.first,
                    q.last,
                    (long long)(Nanos(q.count()) * spec.subwindow_size /
                                kMilli),
                    hits.size());
      }
    }
  }

  // Session windows: bursts separated by idle gaps become separate windows.
  Trace bursty;
  for (int burst = 0; burst < 4; ++burst) {
    for (int i = 0; i < 400; ++i) {
      Packet p;
      p.ft = {std::uint32_t(100 + i % 50), 9, 1000, 80, 17};
      p.ts = Nanos(burst) * 800 * kMilli + Nanos(i) * 100 * kMicro;
      bursty.packets.push_back(p);
    }
  }
  bursty.SortByTime();

  QueryDef count_all;
  count_all.name = "session_volume";
  count_all.key_kind = FlowKeyKind::kDstIp;
  count_all.aggregate = QueryAggregate::kCount;
  count_all.threshold = 1;
  auto app = std::make_shared<QueryAdapter>(count_all, 1 << 10);

  WindowSpec spec;
  spec.type = WindowType::kSession;
  spec.window_size = spec.subwindow_size = 100 * kMilli;  // W = 1
  RunConfig rc = RunConfig::Make(spec);
  rc.data_plane.signal.kind = SignalKind::kSession;
  rc.data_plane.signal.session_gap = 300 * kMilli;

  const RunResult sessions = RunOmniWindow(
      bursty, app, rc,
      [&](TableView table) { return app->Detect(table); });
  std::printf("session windows detected: %zu (expected ~4 bursts)\n",
              sessions.windows.size());
  return 0;
}
