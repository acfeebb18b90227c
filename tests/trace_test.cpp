// Unit tests for the trace generator and trace persistence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/metrics.h"
#include "src/trace/generator.h"
#include "src/trace/trace_io.h"

namespace ow {
namespace {

TraceConfig SmallConfig() {
  TraceConfig cfg;
  cfg.seed = 42;
  cfg.duration = 500 * kMilli;
  cfg.packets_per_sec = 20'000;
  cfg.num_flows = 2'000;
  return cfg;
}

TEST(TraceGenerator, DeterministicFromSeed) {
  TraceGenerator g1(SmallConfig()), g2(SmallConfig());
  const Trace t1 = g1.GenerateBackground();
  const Trace t2 = g2.GenerateBackground();
  ASSERT_EQ(t1.packets.size(), t2.packets.size());
  for (std::size_t i = 0; i < t1.packets.size(); i += 97) {
    EXPECT_EQ(t1.packets[i].ft, t2.packets[i].ft);
    EXPECT_EQ(t1.packets[i].ts, t2.packets[i].ts);
  }
}

TEST(TraceGenerator, BackgroundIsTimeSortedAndBounded) {
  TraceGenerator gen(SmallConfig());
  const Trace trace = gen.GenerateBackground();
  ASSERT_FALSE(trace.packets.empty());
  Nanos prev = 0;
  for (const Packet& p : trace.packets) {
    EXPECT_GE(p.ts, prev);
    EXPECT_LT(p.ts, SmallConfig().duration);
    prev = p.ts;
  }
}

TEST(TraceGenerator, RefusesARateThatIsNotFiniteAndPositive) {
  // At these rates the background would never reach its duration. The
  // constructor refuses them, so no generation call is made here at all.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double rate : {0.0, -0.0, -1.0, std::nan(""), kInf, -kInf}) {
    TraceConfig cfg = SmallConfig();
    cfg.packets_per_sec = rate;
    EXPECT_THROW(TraceGenerator{cfg}, std::invalid_argument) << rate;
  }
}

TEST(TraceGenerator, BackgroundRateApproximatesConfig) {
  TraceGenerator gen(SmallConfig());
  const Trace trace = gen.GenerateBackground();
  const double expected = 20'000 * 0.5;  // pps * duration
  EXPECT_NEAR(double(trace.packets.size()), expected, expected * 0.1);
}

TEST(TraceGenerator, PortScanHitsDistinctPorts) {
  TraceGenerator gen(SmallConfig());
  Trace trace;
  gen.InjectPortScan(trace, 0, 100 * kMilli, 200);
  ASSERT_EQ(gen.injected().size(), 1u);
  const FlowKey victim = gen.injected()[0].victim_or_actor;
  std::unordered_set<std::uint16_t> ports;
  for (const Packet& p : trace.packets) {
    if (p.Key(FlowKeyKind::kDstIp) == victim) ports.insert(p.ft.dst_port);
  }
  EXPECT_EQ(ports.size(), 200u);
}

TEST(TraceGenerator, DdosUsesDistinctSources) {
  TraceGenerator gen(SmallConfig());
  Trace trace;
  gen.InjectDdos(trace, 0, 100 * kMilli, 300);
  const FlowKey victim = gen.injected()[0].victim_or_actor;
  std::unordered_set<std::uint32_t> sources;
  for (const Packet& p : trace.packets) {
    if (p.Key(FlowKeyKind::kDstIp) == victim) sources.insert(p.ft.src_ip);
  }
  EXPECT_EQ(sources.size(), 300u);
}

TEST(TraceGenerator, SynFloodIsAllSyn) {
  TraceGenerator gen(SmallConfig());
  Trace trace;
  gen.InjectSynFlood(trace, 0, 50 * kMilli, 100);
  for (const Packet& p : trace.packets) {
    EXPECT_EQ(p.tcp_flags & kTcpSyn, kTcpSyn);
    EXPECT_EQ(p.tcp_flags & kTcpAck, 0);
  }
}

TEST(TraceGenerator, BoundaryBurstStraddlesBoundary) {
  TraceGenerator gen(SmallConfig());
  Trace trace;
  const Nanos boundary = 250 * kMilli;
  gen.InjectBoundaryBurst(trace, boundary, 50 * kMilli, 500);
  std::size_t before = 0, after = 0;
  for (const Packet& p : trace.packets) {
    (p.ts < boundary ? before : after) += 1;
  }
  // Uniform over [-50ms, +50ms): roughly half on each side.
  EXPECT_GT(before, 150u);
  EXPECT_GT(after, 150u);
}

TEST(TraceGenerator, SuperSpreaderFanout) {
  TraceGenerator gen(SmallConfig());
  Trace trace;
  gen.InjectSuperSpreader(trace, 0, 100 * kMilli, 400);
  const FlowKey spreader = gen.injected()[0].victim_or_actor;
  std::unordered_set<std::uint32_t> dsts;
  for (const Packet& p : trace.packets) {
    if (p.Key(FlowKeyKind::kSrcIp) == spreader) dsts.insert(p.ft.dst_ip);
  }
  EXPECT_EQ(dsts.size(), 400u);
}

TEST(TraceGenerator, InjectedEphemeralPortsAreClientSide) {
  // Every injector that draws ephemeral source ports must stay inside the
  // registered/dynamic range [1024, 65535]: a modulo into [1, 65535] used to
  // let attack flows claim well-known service ports, which breaks any
  // query or detector that filters on the server side of the connection.
  TraceGenerator gen(SmallConfig());
  Trace trace;
  gen.InjectConnectionFlood(trace, 0, 100 * kMilli, 200);
  gen.InjectSshBruteForce(trace, 0, 100 * kMilli, 200);
  gen.InjectPortScan(trace, 0, 100 * kMilli, 200);
  gen.InjectDdos(trace, 0, 100 * kMilli, 200);
  gen.InjectSynFlood(trace, 0, 100 * kMilli, 200);
  gen.InjectCompletedFlows(trace, 0, 100 * kMilli, 100);
  gen.InjectSlowloris(trace, 0, 100 * kMilli, 50);
  gen.InjectSuperSpreader(trace, 0, 100 * kMilli, 200);
  gen.InjectBoundaryBurst(trace, 50 * kMilli, 20 * kMilli, 100);
  ASSERT_FALSE(trace.packets.empty());
  for (const Packet& p : trace.packets) {
    EXPECT_GE(p.ft.src_port, 1024) << "well-known source port " << p.ft.src_port;
  }
}

TEST(TraceGenerator, SlowlorisStaysInsideItsLabelInterval) {
  // Keep-alive trickles used to spill past start+duration, so the recorded
  // [start, end) label under-covered the anomaly's actual packets and
  // streaming true positives after `end` scored as false positives.
  TraceGenerator gen(SmallConfig());
  Trace trace;
  gen.InjectSlowloris(trace, 100 * kMilli, 200 * kMilli, 40);
  ASSERT_EQ(gen.injected().size(), 1u);
  const InjectedAnomaly& label = gen.injected()[0];
  EXPECT_EQ(label.start, 100 * kMilli);
  EXPECT_EQ(label.end, 300 * kMilli);
  ASSERT_FALSE(trace.packets.empty());
  for (const Packet& p : trace.packets) {
    EXPECT_GE(p.ts, label.start);
    EXPECT_LT(p.ts, label.end);
  }
}

TEST(TraceGenerator, PortScanRecordsItsDistinctPortCount) {
  TraceGenerator gen(SmallConfig());
  Trace trace;
  gen.InjectPortScan(trace, 0, 100 * kMilli, 200);
  ASSERT_EQ(gen.injected().size(), 1u);
  EXPECT_EQ(gen.injected()[0].distinct, 200u);
  // The scanning source is a legitimate secondary endpoint for matching.
  EXPECT_EQ(gen.injected()[0].secondary.size(), 1u);

  // More probes than the 16-bit port space can never mean more distinct
  // ports than the port space holds.
  TraceGenerator gen2(SmallConfig());
  Trace huge;
  gen2.InjectPortScan(huge, 0, 100 * kMilli, 70'000);
  EXPECT_EQ(gen2.injected()[0].distinct, 65'535u);
}

TEST(TraceGenerator, DistinctCountsMatchInjectedCardinality) {
  TraceGenerator gen(SmallConfig());
  Trace trace;
  gen.InjectDdos(trace, 0, 100 * kMilli, 300);
  gen.InjectSuperSpreader(trace, 0, 100 * kMilli, 400);
  ASSERT_EQ(gen.injected().size(), 2u);
  EXPECT_EQ(gen.injected()[0].distinct, 300u);
  EXPECT_EQ(gen.injected()[1].distinct, 400u);
}

TEST(TraceGenerator, EvaluationTraceContainsAllAnomalies) {
  TraceGenerator gen(SmallConfig());
  const Trace trace = gen.GenerateEvaluationTrace();
  EXPECT_GE(gen.injected().size(), 8u);
  Nanos prev = 0;
  for (const Packet& p : trace.packets) {
    EXPECT_GE(p.ts, prev);
    prev = p.ts;
  }
}

// Every field the generator and the loaders set, for whole-sequence
// comparisons.
auto Fields(const Packet& p) {
  return std::tuple(p.ts, p.ft, p.size_bytes, p.tcp_flags, p.seq, p.iteration);
}

std::vector<decltype(Fields(Packet{}))> FieldsOf(const Trace& trace) {
  std::vector<decltype(Fields(Packet{}))> out;
  out.reserve(trace.packets.size());
  for (const Packet& p : trace.packets) out.push_back(Fields(p));
  return out;
}

// SortByTime must leave exactly what std::stable_sort leaves.
void ExpectSortsLikeStableSort(Trace trace) {
  Trace expected = trace;
  std::stable_sort(
      expected.packets.begin(), expected.packets.end(),
      [](const Packet& a, const Packet& b) { return a.ts < b.ts; });
  trace.SortByTime();
  EXPECT_EQ(FieldsOf(trace), FieldsOf(expected));
}

// One packet per time; `seq` is its position, so ties show their order.
Trace TraceAt(const std::vector<Nanos>& times) {
  Trace trace;
  for (std::size_t i = 0; i < times.size(); ++i) {
    Packet p;
    p.ts = times[i];
    p.seq = std::uint32_t(i);
    p.ft.src_ip = std::uint32_t(i * 7919);
    trace.packets.push_back(p);
  }
  return trace;
}

TEST(TraceSort, EqualsStableSort) {
  ExpectSortsLikeStableSort(TraceAt({}));
  ExpectSortsLikeStableSort(TraceAt({5}));
  ExpectSortsLikeStableSort(TraceAt({1, 2, 2, 3, 10, 10, 11}));  // sorted
  ExpectSortsLikeStableSort(TraceAt({9, 8, 7, 7, 3, 1, 0}));     // reversed
  ExpectSortsLikeStableSort(TraceAt({4, 4, 4, 4, 4}));           // all equal
}

TEST(TraceSort, TailTiesLandAfterThePrefixInTheirOwnOrder) {
  // A sorted prefix, then a tail whose times tie prefix times (and each
  // other): tail packets of equal time follow the prefix's, in tail order.
  ExpectSortsLikeStableSort(TraceAt({0, 10, 10, 20, 30, 30, 40,  // prefix
                                     30, 10, 0, 30, 40, 10, 50, 20, 0}));
  // The tail starts with a tie of the prefix's last time.
  ExpectSortsLikeStableSort(TraceAt({1, 2, 3, 3, 3, 2, 3, 1}));
}

TEST(TraceSort, InjectedTraceEqualsStableSort) {
  // The generator's own pattern: an in-order background, then injections
  // appended out of order.
  TraceGenerator gen(SmallConfig());
  Trace trace = gen.GenerateBackground();
  gen.InjectDdos(trace, 0, 100 * kMilli, 200);
  gen.InjectSlowloris(trace, 50 * kMilli, 300 * kMilli, 20);
  gen.InjectBoundaryBurst(trace, 250 * kMilli, 60 * kMilli, 120);
  ExpectSortsLikeStableSort(std::move(trace));
}

TraceConfig GoldenConfig(Nanos duration, double pps, std::size_t flows) {
  TraceConfig cfg;
  cfg.seed = 1;
  cfg.duration = duration;
  cfg.packets_per_sec = pps;
  cfg.num_flows = flows;
  return cfg;
}

// The benchmark's three trace sizes, seed 1. The constants were recorded
// from a generator that stable-sorted the whole trace and drew Zipf ranks by
// binary search over the CDF; the generator must keep producing exactly
// these packets.
TEST(TraceGenerator, SwitchQueryTraceMatchesGolden) {
  TraceGenerator gen(GoldenConfig(10 * kSecond, 100'000, 20'000));
  const Trace trace = gen.GenerateEvaluationTrace();
  EXPECT_EQ(trace.packets.size(), 1'005'636u);
  EXPECT_EQ(FingerprintPackets(trace.packets), 0xd0099a121c8e7374ull);
}

TEST(TraceGenerator, LeafSpineDetectTraceMatchesGolden) {
  TraceGenerator gen(GoldenConfig(2 * kSecond, 30'000, 8'000));
  const Trace trace = gen.GenerateEvaluationTrace();
  EXPECT_EQ(FingerprintPackets(trace.packets), 0x5de16a34313bac96ull);
}

TEST(TraceGenerator, StandbyBackgroundMatchesGolden) {
  TraceGenerator gen(GoldenConfig(2500 * kMilli, 25'000, 2'500));
  const Trace trace = gen.GenerateBackground();
  EXPECT_EQ(FingerprintPackets(trace.packets), 0x223f03c74b783654ull);
}

TEST(TraceIo, RoundTrip) {
  TraceGenerator gen(SmallConfig());
  Trace trace = gen.GenerateEvaluationTrace();
  const std::string path = ::testing::TempDir() + "/ow_trace_test.bin";
  SaveTrace(trace, path);
  const Trace loaded = LoadTrace(path);
  ASSERT_EQ(loaded.packets.size(), trace.packets.size());
  for (std::size_t i = 0; i < trace.packets.size(); i += 131) {
    EXPECT_EQ(loaded.packets[i].ft, trace.packets[i].ft);
    EXPECT_EQ(loaded.packets[i].ts, trace.packets[i].ts);
    EXPECT_EQ(loaded.packets[i].tcp_flags, trace.packets[i].tcp_flags);
    EXPECT_EQ(loaded.packets[i].seq, trace.packets[i].seq);
  }
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsMissingFile) {
  EXPECT_THROW(LoadTrace("/nonexistent/path/trace.bin"), std::runtime_error);
}

TEST(TraceIo, RejectsOversizedHeaderCount) {
  // Valid magic/version but a record count far beyond the bytes actually in
  // the file: the loader must fail with the truncation error up front, not
  // reserve terabytes on the untrusted header first.
  const std::string path = ::testing::TempDir() + "/ow_hdr_count.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::uint32_t magic = 0x4F575452, version = 1;  // "OWTR" v1
    const std::uint64_t n = std::uint64_t(1) << 40;
    std::fwrite(&magic, 4, 1, f);
    std::fwrite(&version, 4, 1, f);
    std::fwrite(&n, 8, 1, f);
    const char body[32] = {};  // one record's worth of payload
    std::fwrite(body, 1, sizeof(body), f);
    std::fclose(f);
  }
  try {
    LoadTrace(path);
    FAIL() << "oversized header count was not rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(TraceIo, RefusesANegativeTimestamp) {
  // Replay reads a negative time as "unset"; the loader must refuse it and
  // name the record.
  Trace trace;
  trace.packets.resize(3);
  trace.packets[0].ts = 0;
  trace.packets[1].ts = 5;
  trace.packets[2].ts = -1;
  const std::string path = ::testing::TempDir() + "/ow_negative_ts.bin";
  SaveTrace(trace, path);
  try {
    LoadTrace(path);
    FAIL() << "negative timestamp was not rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("record 2"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsCorruptMagic) {
  const std::string path = ::testing::TempDir() + "/ow_bad_magic.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[32] = "not a trace";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  EXPECT_THROW(LoadTrace(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ow
