// Tests for the RMT switch model: register semantics, pipeline actions,
// resource accounting, switch-OS latency model.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <vector>

#include "src/common/snapshot.h"
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

TEST(Switch, EnqueueTraceMatchesPerPacketEnqueue) {
  // A trace with one late packet (the fourth, at 250 ns, behind one at
  // 300 ns): the one-call enqueue must leave both lanes exactly as
  // per-packet EnqueueFromWire does, the late packet on the heap, and
  // dispatch the same order.
  std::vector<Packet> trace(6);
  const Nanos times[] = {100, 200, 300, 250, 300, 400};
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].ts = times[i];
    trace[i].seq = std::uint32_t(i);
  }
  Switch batched(0), single(1);
  batched.EnqueueTrace(trace);
  for (const Packet& p : trace) single.EnqueueFromWire(p, p.ts);

  const auto lanes = [](const Switch& sw) {
    SnapshotWriter w;
    sw.Save(w);
    return w.Take();
  };
  const std::vector<std::uint8_t> bytes = lanes(batched);
  EXPECT_EQ(bytes, lanes(single));
  SnapshotReader r(bytes);
  r.Section(snap::kSwitch);
  EXPECT_EQ(r.Size(), trace.size() - 1) << "FIFO lane";

  auto batched_order = std::make_shared<OrderProgram>();
  auto single_order = std::make_shared<OrderProgram>();
  batched.SetProgram(batched_order);
  single.SetProgram(single_order);
  batched.RunBatch(kSecond);
  single.RunBatch(kSecond);
  EXPECT_EQ(batched_order->order,
            (std::vector<std::uint32_t>{0, 1, 3, 2, 4, 5}));
  EXPECT_EQ(batched_order->order, single_order->order);
}

TEST(Switch, EnqueueTraceAllocatesTheRingOnce) {
#ifdef OW_POOL_PASSTHROUGH
  GTEST_SKIP() << "pool passthrough build (sanitizers)";
#else
  // Per-packet enqueues double the ring from 64 slots up; the one-call
  // enqueue sizes it once, so the pool sees exactly one request.
  constexpr std::size_t kPackets = 50'000;
  std::vector<Packet> trace(kPackets);
  for (std::size_t i = 0; i < kPackets; ++i) trace[i].ts = Nanos(i / 2);
  Switch sw(0);
  const ArenaPool::Stats before = GlobalPool().stats();
  sw.EnqueueTrace(trace);
  const ArenaPool::Stats after = GlobalPool().stats();
  EXPECT_EQ(after.hits + after.misses, before.hits + before.misses + 1);

  auto prog = std::make_shared<OrderProgram>();
  sw.SetProgram(prog);
  EXPECT_EQ(sw.RunBatch(kSecond), kPackets);
#endif
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
