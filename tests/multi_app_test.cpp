// Tests for multiple telemetry apps sharing one switch pipeline.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/multi_app.h"
#include "src/core/runner.h"
#include "src/telemetry/query_builder.h"
#include "src/trace/generator.h"

namespace ow {
namespace {

struct Scenario {
  Trace trace;
  FlowKey syn_victim;
  FlowKey ddos_victim;
};

Scenario MakeScenario() {
  TraceConfig cfg;
  cfg.seed = 91;
  cfg.duration = 400 * kMilli;
  cfg.packets_per_sec = 8'000;
  cfg.num_flows = 800;
  TraceGenerator gen(cfg);
  Scenario s;
  s.trace = gen.GenerateBackground();
  gen.InjectSynFlood(s.trace, 50 * kMilli, 250 * kMilli, 400);
  gen.InjectDdos(s.trace, 80 * kMilli, 250 * kMilli, 300);
  s.trace.SortByTime();
  s.syn_victim = gen.injected()[0].victim_or_actor;
  s.ddos_victim = gen.injected()[1].victim_or_actor;
  return s;
}

QueryDef SynDef() {
  return QueryBuilder("syn_flood")
      .Filter(predicates::Syn)
      .KeyBy(FlowKeyKind::kDstIp)
      .Count()
      .Threshold(100)
      .Build();
}

QueryDef DdosDef() {
  return QueryBuilder("ddos")
      .KeyBy(FlowKeyKind::kDstIp)
      .Distinct(elements::SrcIp)
      .Threshold(100)
      .Build();
}

WindowSpec Spec() {
  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = 100 * kMilli;
  spec.subwindow_size = 50 * kMilli;
  spec.slide = spec.window_size;
  return spec;
}

TEST(MultiApp, TwoAppsDetectTheirOwnAnomalies) {
  const Scenario s = MakeScenario();
  auto syn_app = std::make_shared<QueryAdapter>(SynDef(), 4096, 0x111);
  auto ddos_app = std::make_shared<QueryAdapter>(DdosDef(), 4096, 0x222);

  Switch sw(0);
  RunConfig base = RunConfig::Make(Spec());
  ControllerConfig cc = base.controller;
  cc.window = Spec();
  MultiAppHarness harness(sw, base.data_plane,
                          {{syn_app, cc}, {ddos_app, cc}});

  std::vector<FlowSet> syn_windows, ddos_windows;
  harness.controller(0).SetWindowHandler([&](const WindowResult& w) {
    syn_windows.push_back(syn_app->Detect(*w.table));
  });
  harness.controller(1).SetWindowHandler([&](const WindowResult& w) {
    ddos_windows.push_back(ddos_app->Detect(*w.table));
  });

  sw.FeedTrace(s.trace.packets);
  Packet sentinel;
  sentinel.ts = s.trace.Duration() + 60 * kMilli;
  sw.EnqueueFromWire(sentinel, sentinel.ts);
  const Nanos horizon = s.trace.Duration() + 10 * kSecond;
  sw.RunBatch(horizon);
  while (!harness.FlushAll(horizon)) sw.RunBatch(horizon);

  ASSERT_GE(syn_windows.size(), 3u);
  ASSERT_GE(ddos_windows.size(), 3u);
  FlowSet syn_all, ddos_all;
  for (const auto& w : syn_windows) syn_all.insert(w.begin(), w.end());
  for (const auto& w : ddos_windows) ddos_all.insert(w.begin(), w.end());
  EXPECT_TRUE(syn_all.contains(s.syn_victim));
  EXPECT_TRUE(ddos_all.contains(s.ddos_victim));
}

TEST(MultiApp, MatchesSingleAppRuns) {
  // Each app under the shared pipeline must produce the same windows as a
  // dedicated single-app deployment.
  const Scenario s = MakeScenario();

  auto single = [&](const QueryDef& def, std::uint64_t seed) {
    auto app = std::make_shared<QueryAdapter>(def, 4096, seed);
    return RunOmniWindow(s.trace, app, RunConfig::Make(Spec()),
                         [&](TableView t) { return app->Detect(t); })
        .windows;
  };
  const auto solo_syn = single(SynDef(), 0x111);

  auto syn_app = std::make_shared<QueryAdapter>(SynDef(), 4096, 0x111);
  auto ddos_app = std::make_shared<QueryAdapter>(DdosDef(), 4096, 0x222);
  Switch sw(0);
  RunConfig base = RunConfig::Make(Spec());
  MultiAppHarness harness(sw, base.data_plane,
                          {{syn_app, base.controller}, {ddos_app,
                                                        base.controller}});
  std::vector<EmittedWindow> multi_syn;
  harness.controller(0).SetWindowHandler([&](const WindowResult& w) {
    multi_syn.push_back(
        {w.span, syn_app->Detect(*w.table), w.completed_at});
  });
  harness.controller(1).SetWindowHandler([](const WindowResult&) {});
  sw.FeedTrace(s.trace.packets);
  Packet sentinel;
  sentinel.ts = s.trace.Duration() + 60 * kMilli;
  sw.EnqueueFromWire(sentinel, sentinel.ts);
  const Nanos horizon = s.trace.Duration() + 10 * kSecond;
  sw.RunBatch(horizon);
  while (!harness.FlushAll(horizon)) sw.RunBatch(horizon);

  ASSERT_EQ(multi_syn.size(), solo_syn.size());
  for (std::size_t i = 0; i < solo_syn.size(); ++i) {
    EXPECT_EQ(multi_syn[i].span.first, solo_syn[i].span.first);
    EXPECT_EQ(multi_syn[i].detected, solo_syn[i].detected) << "window " << i;
  }
}

TEST(MultiApp, OnePassAppendsEachAppsPacketsInAppOrder) {
  // Both apps end sub-window 0 on the same pass: app 0 by its timeout
  // signal, app 1 by adopting the number app 0 stamped.
  OmniWindowConfig cfg;
  cfg.signal.kind = SignalKind::kTimeout;
  cfg.signal.subwindow_size = 50 * kMilli;
  std::vector<std::shared_ptr<OmniWindowProgram>> programs;
  for (std::uint64_t seed : {0x111, 0x222}) {
    programs.push_back(std::make_shared<OmniWindowProgram>(
        cfg, std::make_shared<QueryAdapter>(SynDef(), 4096, seed)));
    cfg.first_hop = false;  // app 0 drives the signals, app 1 follows
  }
  MultiAppProgram program(programs);

  Packet held;  // already in the caller's list: keeps its id
  held.ow.app_id = 7;
  PipelineActions act;
  act.to_controller.push_back(held);
  for (const Nanos t : {10 * kMilli, 60 * kMilli}) {
    Packet p;
    p.ft = {1, 2, 3, 4, 6};
    p.ts = t;
    program.Process(p, t, PacketSource::kWire, act);
  }
  ASSERT_EQ(act.to_controller.size(), 3u);
  EXPECT_EQ(act.to_controller[0].ow.app_id, 7);
  for (std::uint8_t app = 0; app < 2; ++app) {
    const Packet& trigger = act.to_controller[1 + app];
    EXPECT_EQ(trigger.ow.app_id, app);
    EXPECT_EQ(trigger.ow.flag, OwFlag::kTrigger);
    EXPECT_EQ(trigger.ow.subwindow_num, 0u);
  }
  EXPECT_TRUE(act.recirculate.empty());
  EXPECT_FALSE(act.drop);
}

TEST(MultiApp, RejectsEmptyAndValidatesPrograms) {
  Switch sw(0);
  OmniWindowConfig cfg;
  EXPECT_THROW(MultiAppHarness(sw, cfg, {}), std::invalid_argument);
  EXPECT_THROW(MultiAppProgram({}), std::invalid_argument);
}

}  // namespace
}  // namespace ow
