// Tests for the RMT switch model: register semantics, pipeline actions,
// resource accounting, switch-OS latency model.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/snapshot.h"
#include "src/obs/obs.h"
#include "src/switchsim/mat.h"
#include "src/switchsim/pipeline.h"
#include "src/switchsim/register_array.h"
#include "src/switchsim/resources.h"
#include "src/switchsim/switch_os.h"

namespace ow {
namespace {

TEST(RegisterArray, SingleAccessPerPassEnforced) {
  RegisterArray reg("r", 16, 4);
  reg.BeginPass();
  reg.Write(0, 1);
  // Second SALU access in the same pass violates C4.
  EXPECT_THROW(reg.Read(1), std::logic_error);
  reg.BeginPass();
  EXPECT_EQ(reg.Read(0), 1u);
}

TEST(RegisterArray, ReadModifyWriteReturnsOld) {
  RegisterArray reg("r", 4, 4);
  reg.BeginPass();
  reg.Write(2, 10);
  reg.BeginPass();
  const auto old = reg.ReadModifyWrite(2, [](std::uint64_t v) { return v + 5; });
  EXPECT_EQ(old, 10u);
  EXPECT_EQ(reg.ControlRead(2), 15u);
}

TEST(RegisterArray, TruncatesToEntryWidth) {
  RegisterArray reg("r", 4, 2);  // 16-bit entries
  reg.BeginPass();
  reg.Write(0, 0x12345);
  EXPECT_EQ(reg.ControlRead(0), 0x2345u);
}

TEST(RegisterArray, BoundsChecked) {
  RegisterArray reg("r", 4, 4);
  reg.BeginPass();
  EXPECT_THROW(reg.Read(4), std::out_of_range);
  EXPECT_THROW(reg.ControlRead(10), std::out_of_range);
}

TEST(RegisterArray, ControlPathBypassesPassCheck) {
  RegisterArray reg("r", 8, 4);
  reg.BeginPass();
  reg.Write(0, 1);
  // Control plane may keep reading (it pays the OS latency instead).
  EXPECT_EQ(reg.ControlRead(0), 1u);
  reg.ControlWrite(0, 0);
  EXPECT_EQ(reg.ControlRead(0), 0u);
}

TEST(Mat, LookupHitMissAndDefault) {
  MatchActionTable<int, int> mat("m", -1);
  mat.Install(5, 50);
  EXPECT_EQ(mat.Lookup(5), 50);
  EXPECT_EQ(mat.Lookup(6), -1);
  EXPECT_TRUE(mat.TryLookup(5).has_value());
  EXPECT_FALSE(mat.TryLookup(6).has_value());
  EXPECT_TRUE(mat.Remove(5));
  EXPECT_FALSE(mat.Remove(5));
}

TEST(ResourceLedger, StagesShareButSramSums) {
  ResourceLedger ledger;
  ledger.Charge("a", {.stages = {1, 2}, .sram_bytes = 100, .salus = 1});
  ledger.Charge("b", {.stages = {2, 3}, .sram_bytes = 200, .salus = 2});
  const auto total = ledger.Total();
  EXPECT_EQ(total.stages.size(), 3u);  // {1,2,3} — stage 2 shared
  EXPECT_EQ(total.sram_bytes, 300u);
  EXPECT_EQ(total.salus, 3);
}

TEST(ResourceLedger, RepeatedChargesMerge) {
  ResourceLedger ledger;
  ledger.Charge("x", {.stages = {1}, .salus = 1});
  ledger.Charge("x", {.stages = {2}, .salus = 1});
  EXPECT_EQ(ledger.Of("x").salus, 2);
  EXPECT_EQ(ledger.Of("x").stages.size(), 2u);
  EXPECT_EQ(ledger.Features().size(), 1u);
}

TEST(ResourceLedger, FitsBudget) {
  ResourceLedger ledger;
  ledger.Charge("small", {.stages = {1}, .sram_bytes = 1024, .salus = 1});
  EXPECT_TRUE(ledger.Fits(ResourceBudget{}));
  ledger.Charge("huge", {.sram_bytes = std::size_t(1) << 40});
  EXPECT_FALSE(ledger.Fits(ResourceBudget{}));
}

// A trivial program for pipeline mechanics: counts packets, recirculates
// packets flagged kCollection up to 3 times, clones kTrigger to controller.
class ProbeProgram : public SwitchProgram {
 public:
  void Process(Packet& p, Nanos now, PacketSource src,
               PipelineActions& act) override {
    (void)now;
    ++passes;
    if (src == PacketSource::kRecirculation) ++recirc_passes;
    if (p.ow.present && p.ow.flag == OwFlag::kCollection) {
      if (p.ow.payload > 0) {
        --p.ow.payload;
        act.recirculate.push_back(p);
      }
      act.drop = true;
      return;
    }
    if (p.ow.present && p.ow.flag == OwFlag::kTrigger) {
      act.to_controller.push_back(p);
      act.drop = true;
      return;
    }
  }
  int passes = 0;
  int recirc_passes = 0;
};

TEST(Switch, ForwardsNormalPackets) {
  Switch sw(0);
  auto prog = std::make_shared<ProbeProgram>();
  sw.SetProgram(prog);
  std::vector<Nanos> forwarded;
  sw.SetPortHandler(0,
                    [&](const Packet&, Nanos t) { forwarded.push_back(t); });
  Packet p;
  sw.EnqueueFromWire(p, 1000);
  sw.RunBatch(kSecond);
  ASSERT_EQ(forwarded.size(), 1u);
  EXPECT_EQ(forwarded[0], 1000 + kPipelineLatency);
}

TEST(Switch, RecirculationCountsAndLatency) {
  Switch sw(0);
  auto prog = std::make_shared<ProbeProgram>();
  sw.SetProgram(prog);
  Packet p;
  p.ow.present = true;
  p.ow.flag = OwFlag::kCollection;
  p.ow.payload = 3;  // recirculate three times
  sw.EnqueueFromWire(p, 0);
  sw.RunBatch(kSecond);
  const Nanos last = sw.last_event_time();
  EXPECT_EQ(prog->passes, 4);          // initial + 3 recirculations
  EXPECT_EQ(prog->recirc_passes, 3);
  EXPECT_EQ(sw.recirc_passes(), 3u);
  EXPECT_EQ(last, 3 * kRecircLatency);
}

TEST(Switch, RunBatchRecordsOneSpanAndNoPassSpan) {
  obs::Registry& reg = obs::Global();
  reg.Reset();
  Switch sw(0);
  auto prog = std::make_shared<ProbeProgram>();
  sw.SetProgram(prog);
  Packet p;
  p.ow.present = true;
  p.ow.flag = OwFlag::kCollection;
  p.ow.payload = 3;
  sw.EnqueueFromWire(p, 0);
  sw.EnqueueFromWire(Packet{}, 100);
  reg.SetTracing(true);
  sw.RunBatch(kSecond);
  reg.SetTracing(false);
  EXPECT_EQ(prog->passes, 5);  // two wire passes, three recirculations
  EXPECT_EQ(reg.spans_recorded(), 1u);
  std::ostringstream trace;
  reg.WriteChromeTrace(trace);
  EXPECT_NE(trace.str().find("\"switch.run_batch\""), std::string::npos);
  EXPECT_EQ(trace.str().find("switch.pass."), std::string::npos);
  reg.Reset();
}

TEST(Switch, CloneToControllerLatency) {
  Switch sw(0);
  auto prog = std::make_shared<ProbeProgram>();
  sw.SetProgram(prog);
  std::vector<Nanos> got;
  sw.SetControllerHandler([&](const Packet&, Nanos t) { got.push_back(t); });
  Packet p;
  p.ow.present = true;
  p.ow.flag = OwFlag::kTrigger;
  sw.EnqueueFromWire(p, 500);
  sw.RunBatch(kSecond);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 500 + kToControllerLatency);
}

// Records the dispatch order by Packet::seq.
struct OrderProgram : SwitchProgram {
  void Process(Packet& p, Nanos, PacketSource, PipelineActions&) override {
    order.push_back(p.seq);
  }
  std::vector<std::uint32_t> order;
};

TEST(Switch, ProcessesInTimeOrder) {
  Switch sw(0);
  auto prog = std::make_shared<OrderProgram>();
  sw.SetProgram(prog);
  Packet a, b, c;
  a.seq = 1;
  b.seq = 2;
  c.seq = 3;
  sw.EnqueueFromWire(b, 200);
  sw.EnqueueFromWire(a, 100);
  sw.EnqueueFromWire(c, 300);
  sw.RunBatch(kSecond);
  EXPECT_EQ(prog->order, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(Switch, StagedArrivalsCommitInCanonicalOrderAtScale) {
  // 200k wire arrivals enqueued in shuffled order, two per distinct
  // nanosecond on average so exact-time ties (what fan-in from several
  // ingress links produces) are common, then drained through 100k
  // increasing bounds: dispatch must follow arrival time, ties in enqueue
  // order. An out-of-order arrival costs O(log n) on
  // the heap lane, so an optimized build runs this in well under a second;
  // an enqueue or drain that rescans pending events is quadratic here and
  // runs into the suite's TIMEOUT.
  struct Arrival {
    Nanos time;
    std::uint32_t id;
  };
  constexpr std::uint32_t kArrivals = 200'000;
  constexpr Nanos kTimes = 100'000;
  std::mt19937_64 rng(0x57A6ED);
  std::vector<Arrival> arrivals;
  arrivals.reserve(kArrivals);
  for (std::uint32_t id = 0; id < kArrivals; ++id) {
    arrivals.push_back({Nanos(rng() % kTimes), id});
  }
  std::shuffle(arrivals.begin(), arrivals.end(), rng);

  Switch sw(0);
  auto prog = std::make_shared<OrderProgram>();
  prog->order.reserve(kArrivals);
  sw.SetProgram(prog);
  for (const Arrival& a : arrivals) {
    Packet p;
    p.seq = a.id;
    sw.EnqueueFromWire(std::move(p), a.time);
  }
  std::size_t dispatched = 0;
  for (Nanos bound = 0; bound < kTimes; ++bound) {
    dispatched += sw.RunBatch(bound);
  }
  EXPECT_EQ(dispatched, std::size_t(kArrivals));
  EXPECT_EQ(sw.NextEventTime(), -1);

  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.time < b.time;
                   });
  std::vector<std::uint32_t> expected;
  expected.reserve(kArrivals);
  for (const Arrival& a : arrivals) expected.push_back(a.id);
  EXPECT_EQ(prog->order, expected);
}

TEST(Switch, FeedTraceMatchesPerPacketEnqueue) {
  // A trace with time ties, then four more events: a wire arrival behind
  // the trace's tail (it must take the heap), an injection tying trace
  // packets at 200 ns, an arrival tying the trace's last timestamp and the
  // end-of-trace sentinel. A switch fed the trace must dispatch exactly
  // what one fed EnqueueFromWire(p, p.ts) per packet dispatches, with or
  // without a Save/Load in mid-trace.
  std::vector<Packet> trace(6);
  const Nanos times[] = {100, 200, 200, 300, 300, 400};
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].ts = times[i];
    trace[i].seq = std::uint32_t(i);
  }
  const auto more = [](Switch& sw) {
    Packet late, injected, tie, sentinel;
    late.seq = 10;
    injected.seq = 11;
    tie.seq = 12;
    sentinel.seq = 13;
    sw.EnqueueFromWire(late, 250);
    sw.EnqueueFromController(injected, 200);
    sw.EnqueueFromWire(tie, 400);
    sw.EnqueueFromWire(sentinel, 1000);
  };
  const std::vector<std::uint32_t> expected = {0, 1, 2, 11, 10,
                                               3, 4, 5, 12, 13};

  Switch single(0);
  for (const Packet& p : trace) single.EnqueueFromWire(p, p.ts);
  more(single);
  auto single_order = std::make_shared<OrderProgram>();
  single.SetProgram(single_order);
  single.RunBatch(kSecond);
  EXPECT_EQ(single_order->order, expected);

  Switch fed(1);
  fed.FeedTrace(trace);
  more(fed);
  {
    // The trace stays out of the lanes: only the tie and the sentinel
    // extend the wire lane onto the ring; the late arrival is on the heap.
    SnapshotWriter w;
    fed.Save(w);
    const std::vector<std::uint8_t> bytes = w.Take();
    SnapshotReader r(bytes);
    r.Section(snap::kSwitch);
    EXPECT_EQ(r.Size(), trace.size()) << "trace packets";
    EXPECT_EQ(r.Size(), 0u) << "cursor";
    EXPECT_EQ(r.U64(), FingerprintPackets(trace));
    EXPECT_EQ(r.Size(), 2u) << "ring events";
  }
  auto fed_order = std::make_shared<OrderProgram>();
  fed.SetProgram(fed_order);
  fed.RunBatch(kSecond);
  EXPECT_EQ(fed_order->order, expected);

  // Stop after the 200 ns events, save, and resume in a switch fed the same
  // trace.
  Switch first(2);
  first.FeedTrace(trace);
  more(first);
  auto first_order = std::make_shared<OrderProgram>();
  first.SetProgram(first_order);
  first.RunBatch(200);
  ASSERT_EQ(first_order->order.size(), 4u);
  SnapshotWriter w;
  first.Save(w);
  const std::vector<std::uint8_t> bytes = w.Take();
  Switch second(3);
  second.FeedTrace(trace);
  auto second_order = std::make_shared<OrderProgram>();
  second.SetProgram(second_order);
  SnapshotReader r(bytes);
  second.Load(r);
  EXPECT_TRUE(r.AtEnd());
  second.RunBatch(kSecond);
  std::vector<std::uint32_t> spliced = first_order->order;
  spliced.insert(spliced.end(), second_order->order.begin(),
                 second_order->order.end());
  EXPECT_EQ(spliced, expected);
}

TEST(Switch, FeedTraceGrowsThePoolByAtMostOneChunk) {
#ifdef OW_POOL_PASSTHROUGH
  GTEST_SKIP() << "pool passthrough build (sanitizers)";
#else
  // 2^17 packets: a ring holding them would take a 16 MiB pool block (120
  // bytes an event, rounded to a power of two). The switch reads the trace
  // in place, so feeding and draining it, sentinel included, may open at
  // most one 1 MiB chunk.
  constexpr std::size_t kPackets = std::size_t(1) << 17;
  std::vector<Packet> trace(kPackets);
  for (std::size_t i = 0; i < kPackets; ++i) trace[i].ts = Nanos(i / 2);
  Switch sw(0);
  auto prog = std::make_shared<OrderProgram>();
  prog->order.reserve(kPackets + 1);
  sw.SetProgram(prog);
  const std::size_t before = GlobalPool().stats().reserved_bytes;
  sw.FeedTrace(trace);
  Packet sentinel;
  sw.EnqueueFromWire(sentinel, kSecond);
  EXPECT_EQ(sw.RunBatch(kSecond), kPackets + 1);
  EXPECT_LE(GlobalPool().stats().reserved_bytes - before,
            std::size_t(1) << 20);
#endif
}

TEST(Switch, FeedTraceRefusesATraceOutOfTimeOrder) {
  std::vector<Packet> trace(4);
  const Nanos times[] = {100, 200, 150, 300};
  for (std::size_t i = 0; i < trace.size(); ++i) trace[i].ts = times[i];
  Switch sw(0);
  try {
    sw.FeedTrace(trace);
    FAIL() << "a trace out of time order was fed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("packet 2 (t=150)"),
              std::string::npos)
        << e.what();
  }
  // Only a switch's first enqueue may feed a trace: packet i takes seq i.
  Switch busy(1);
  busy.EnqueueFromWire(Packet{}, 0);
  EXPECT_THROW(busy.FeedTrace(std::span(trace).first(2)), std::logic_error);
}

TEST(Switch, ThrowsWithoutProgram) {
  Switch sw(0);
  Packet p;
  sw.EnqueueFromWire(p, 0);
  EXPECT_THROW(sw.RunBatch(kSecond), std::logic_error);
}

TEST(SwitchOs, ReadCostScalesLinearly) {
  SwitchOsDriver os;
  const Nanos one = os.ReadCost(1'000);
  const Nanos four = os.ReadCost(4'000);
  EXPECT_GT(four, one);
  // Subtracting the fixed RPC setup, reads are linear in entries.
  const Nanos setup = kSwitchOsRpcSetup;
  EXPECT_NEAR(double(four - setup), 4.0 * double(one - setup),
              double(one - setup) * 0.01);
}

TEST(SwitchOs, ReadAllAndResetAll) {
  SwitchOsDriver os;
  RegisterArray reg("r", 64, 4);
  reg.ControlWrite(7, 99);
  std::vector<std::uint64_t> out;
  const Nanos t1 = os.ReadAll(reg, out, 0);
  ASSERT_EQ(out.size(), 64u);
  EXPECT_EQ(out[7], 99u);
  EXPECT_EQ(t1, os.ReadCost(64));
  const Nanos t2 = os.ResetAll(reg, t1);
  EXPECT_EQ(reg.ControlRead(7), 0u);
  EXPECT_EQ(t2, t1 + os.ResetCost(64));
}

}  // namespace
}  // namespace ow
