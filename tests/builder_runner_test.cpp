// Tests for the fluent query builder and the multi-switch line runner.
#include <gtest/gtest.h>

#include <memory>

#include "src/core/network_runner.h"
#include "src/telemetry/query_builder.h"
#include "src/trace/generator.h"

namespace ow {
namespace {

TEST(QueryBuilder, BuildsCountQuery) {
  const QueryDef def = QueryBuilder("syn_flood")
                           .Filter(predicates::Syn)
                           .KeyBy(FlowKeyKind::kDstIp)
                           .Count()
                           .Threshold(120)
                           .Build();
  EXPECT_EQ(def.name, "syn_flood");
  EXPECT_EQ(def.key_kind, FlowKeyKind::kDstIp);
  EXPECT_EQ(def.aggregate, QueryAggregate::kCount);
  EXPECT_EQ(def.threshold, 120u);
  Packet syn;
  syn.ft.proto = 6;
  syn.tcp_flags = kTcpSyn;
  EXPECT_TRUE(def.filter(syn));
  syn.tcp_flags = kTcpSyn | kTcpAck;
  EXPECT_FALSE(def.filter(syn));
}

TEST(QueryBuilder, FiltersCompose) {
  const QueryDef def = QueryBuilder("ssh")
                           .Filter(predicates::Tcp)
                           .Filter(predicates::DstPort(22))
                           .KeyBy(FlowKeyKind::kDstIp)
                           .Distinct(elements::Connection)
                           .Threshold(10)
                           .Build();
  Packet p;
  p.ft = {1, 2, 3, 22, 6};
  EXPECT_TRUE(def.filter(p));
  p.ft.dst_port = 23;
  EXPECT_FALSE(def.filter(p));
  p.ft = {1, 2, 3, 22, 17};  // udp
  EXPECT_FALSE(def.filter(p));
}

TEST(QueryBuilder, ValidatesPipelines) {
  EXPECT_THROW(QueryBuilder("no_agg").Threshold(5).Build(), std::logic_error);
  EXPECT_THROW(QueryBuilder("zero_threshold").Count().Threshold(0).Build(),
               std::logic_error);
  EXPECT_THROW(QueryBuilder("double_agg").Count().SumBytes(),
               std::logic_error);
  // Distinct requires an element projection.
  EXPECT_THROW(QueryBuilder("bad_distinct")
                   .Distinct(nullptr)
                   .Threshold(5)
                   .Build(),
               std::logic_error);
}

TEST(QueryBuilder, SumBytesAggregates) {
  const QueryDef def = QueryBuilder("volume")
                           .KeyBy(FlowKeyKind::kSrcIp)
                           .SumBytes()
                           .Threshold(1'000)
                           .Build();
  QueryAdapter adapter(def, 256);
  Packet p;
  p.ft = {5, 6, 7, 8, 17};
  p.size_bytes = 600;
  for (RegisterArray* r : adapter.Registers()) r->BeginPass();
  adapter.Update(p, 0);
  for (RegisterArray* r : adapter.Registers()) r->BeginPass();
  adapter.Update(p, 0);
  const FlowRecord rec =
      adapter.Query(p.Key(FlowKeyKind::kSrcIp), 0, 0);
  EXPECT_EQ(rec.attrs[0], 1'200u);
}

TEST(NetworkRunner, ThreeSwitchLineAgreesOnWindows) {
  TraceConfig tc;
  tc.seed = 21;
  tc.duration = 400 * kMilli;
  tc.packets_per_sec = 10'000;
  tc.num_flows = 800;
  TraceGenerator gen(tc);
  Trace trace = gen.GenerateBackground();
  gen.InjectSynFlood(trace, 50 * kMilli, 250 * kMilli, 400);
  trace.SortByTime();
  const FlowKey victim = gen.injected()[0].victim_or_actor;

  const QueryDef def = QueryBuilder("syn_flood")
                           .Filter(predicates::Syn)
                           .KeyBy(FlowKeyKind::kDstIp)
                           .Count()
                           .Threshold(100)
                           .Build();

  NetworkRunConfig cfg;
  cfg.base = RunConfig::Make([] {
    WindowSpec spec;
    spec.type = WindowType::kTumbling;
    spec.window_size = 100 * kMilli;
    spec.subwindow_size = 50 * kMilli;
    spec.slide = spec.window_size;
    return spec;
  }());
  cfg.topology.line_switches = 3;
  cfg.link = {.latency = 25 * kMicro, .jitter = 10 * kMicro};

  std::vector<std::shared_ptr<QueryAdapter>> apps;
  const NetworkRunResult result = RunOmniWindowFabric(
      trace,
      [&](std::size_t) {
        apps.push_back(std::make_shared<QueryAdapter>(def, 4096));
        return apps.back();
      },
      cfg,
      [&](TableView table) { return apps[0]->Detect(table); });

  ASSERT_EQ(result.per_switch.size(), 3u);
  ASSERT_GE(result.per_switch[0].windows.size(), 3u);
  // Lossless links + consistency model: every switch sees identical
  // per-window detections.
  for (std::size_t i = 1; i < 3; ++i) {
    const auto& w0 = result.per_switch[0].windows;
    const auto& wi = result.per_switch[i].windows;
    ASSERT_EQ(wi.size(), w0.size()) << "switch " << i;
    for (std::size_t w = 0; w < w0.size(); ++w) {
      EXPECT_EQ(wi[w].span.first, w0[w].span.first);
      EXPECT_EQ(wi[w].detected, w0[w].detected)
          << "switch " << i << " window " << w;
    }
  }
  bool victim_found = false;
  for (const auto& w : result.per_switch[2].windows) {
    if (w.detected.contains(victim)) victim_found = true;
  }
  EXPECT_TRUE(victim_found);
  // Downstream switches never fire their own signals.
  EXPECT_EQ(result.per_switch[1].data_plane.terminations,
            result.per_switch[0].data_plane.terminations);
}

}  // namespace
}  // namespace ow
