// Tests for BeauCoup: the one-update-per-packet guarantee, distinct-count
// alerting, multi-query coexistence, and one report packet per AFR from the
// data plane.
#include <gtest/gtest.h>

#include <memory>

#include "src/core/runner.h"
#include "src/telemetry/beaucoup.h"
#include "src/common/rng.h"
#include "src/telemetry/query_builder.h"

namespace ow {
namespace {

Packet Pkt(std::uint32_t src, std::uint32_t dst,
           std::uint16_t dst_port = 80) {
  Packet p;
  p.ft = {src, dst, 1234, dst_port, 17};
  return p;
}

BeauCoupQuery SpreaderQuery() {
  BeauCoupQuery q;
  q.name = "super_spreader";
  q.key_kind = FlowKeyKind::kSrcIp;
  q.attribute = [](const Packet& p) {
    return HashValue(p.ft.dst_ip, 0xD57ull);
  };
  q.coupons = 32;
  q.alert_threshold = 20;
  q.coupon_probability = 1.0 / 64;
  return q;
}

TEST(BeauCoupTest, OneUpdatePerPacketGuarantee) {
  BeauCoupQuery q1 = SpreaderQuery();
  BeauCoupQuery q2 = SpreaderQuery();
  q2.name = "port_scanner";
  q2.attribute = [](const Packet& p) {
    return HashValue(p.ft.dst_port, 0x9047ull);
  };
  BeauCoup bc({q1, q2});
  Rng rng(5);
  for (int i = 0; i < 50'000; ++i) {
    bc.Update(Pkt(std::uint32_t(rng.Uniform(100)) + 1,
                  std::uint32_t(rng.Uniform(10'000)) + 1,
                  std::uint16_t(rng.Uniform(1'000) + 1)));
  }
  EXPECT_EQ(bc.packets(), 50'000u);
  EXPECT_LE(bc.updates(), bc.packets());
  EXPECT_GT(bc.updates(), 0u);
}

TEST(BeauCoupTest, AlertsOnHighSpreadKeyOnly) {
  BeauCoup bc({SpreaderQuery()});
  const double expected_alert =
      BeauCoup::ExpectedDistinctForAlert(SpreaderQuery());
  // The spreader contacts 4x the expected-alert distinct count; mice touch
  // a handful of destinations each.
  const std::size_t spreader_fanout = std::size_t(expected_alert * 4);
  for (std::size_t d = 0; d < spreader_fanout; ++d) {
    bc.Update(Pkt(7, std::uint32_t(d) + 1));
  }
  for (std::uint32_t src = 100; src < 300; ++src) {
    for (std::uint32_t d = 0; d < 5; ++d) {
      bc.Update(Pkt(src, src * 10 + d));
    }
  }
  const FlowSet alerts = bc.Alerts(0);
  const FlowKey spreader(FlowKeyKind::kSrcIp, FiveTuple{.src_ip = 7});
  EXPECT_TRUE(alerts.contains(spreader));
  // No mouse alerts.
  for (const FlowKey& key : alerts) {
    EXPECT_EQ(key, spreader) << "false alert on " << key.ToString();
  }
}

TEST(BeauCoupTest, DuplicateAttributeValuesDoNotAccumulate) {
  BeauCoup bc({SpreaderQuery()});
  // One destination contacted 10'000 times: at most ONE coupon.
  for (int i = 0; i < 10'000; ++i) bc.Update(Pkt(9, 42));
  const FlowKey key(FlowKeyKind::kSrcIp, FiveTuple{.src_ip = 9});
  EXPECT_LE(bc.CouponsOf(0, key), 1u);
}

TEST(BeauCoupTest, ExpectedDistinctFormulaSane) {
  const double e = BeauCoup::ExpectedDistinctForAlert(SpreaderQuery());
  // Collecting 20 of 32 coupons at p=1/64: 64 * (H_32 - H_12) ≈ 61.5.
  EXPECT_NEAR(e, 61.5, 1.0);
}

TEST(BeauCoupTest, RejectsBadConfigs) {
  BeauCoupQuery q = SpreaderQuery();
  q.coupons = 0;
  EXPECT_THROW(BeauCoup({q}), std::invalid_argument);
  q = SpreaderQuery();
  q.alert_threshold = 99;
  EXPECT_THROW(BeauCoup({q}), std::invalid_argument);
  q = SpreaderQuery();
  q.coupon_probability = 0.2;  // 32 coupons x 0.2 > 1
  EXPECT_THROW(BeauCoup({q}), std::invalid_argument);
}

// ------------------------------------------------------------ AFR reports

TEST(AfrReports, EveryGeneratedAfrReachesTheController) {
  // Inline small trace: one syn-flood victim.
  Trace trace;
  for (int i = 0; i < 400; ++i) {
    Packet p;
    p.ft = {std::uint32_t(1000 + i % 50), 7, 1000, 80, 6};
    p.tcp_flags = kTcpSyn;
    p.ts = Nanos(i) * 500 * kMicro;
    trace.packets.push_back(p);
  }

  const QueryDef def = QueryBuilder("syn")
                           .Filter(predicates::Syn)
                           .KeyBy(FlowKeyKind::kDstIp)
                           .Count()
                           .Threshold(50)
                           .Build();
  auto app = std::make_shared<QueryAdapter>(def, 2048);
  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = 100 * kMilli;
  spec.subwindow_size = 50 * kMilli;
  const RunResult run = RunOmniWindow(
      trace, app, RunConfig::Make(spec),
      [&](TableView t) { return app->Detect(t); });
  ASSERT_FALSE(run.windows.empty());
  EXPECT_TRUE(run.AllDetected().contains(
      FlowKey(FlowKeyKind::kDstIp, FiveTuple{.dst_ip = 7})));
  // Each AFR travels in its own report packet over a lossless path: the
  // controller receives every record the data plane generated, once.
  EXPECT_GT(run.data_plane.afr_generated, 0u);
  EXPECT_EQ(run.controller.afrs_received, run.data_plane.afr_generated);
  EXPECT_EQ(run.controller.duplicate_afrs, 0u);
}

}  // namespace
}  // namespace ow
