// Tests for the network simulator (links, multi-switch ordering) and the
// simulated RDMA stack.
#include <gtest/gtest.h>

#include <memory>

#include "src/net/link.h"
#include "src/net/network.h"
#include "src/rdma/rdma.h"

namespace ow {
namespace {

TEST(Link, DeliversWithLatency) {
  std::vector<Nanos> arrivals;
  Link link({.latency = 1000, .jitter = 0},
            [&](Packet, Nanos t) { arrivals.push_back(t); });
  link.Transmit(Packet{}, 500);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 1500);
}

TEST(Link, LossRateApproximate) {
  std::size_t delivered = 0;
  Link link({.latency = 1, .jitter = 0, .loss_rate = 0.2},
            [&](Packet, Nanos) { ++delivered; }, 99);
  for (int i = 0; i < 10'000; ++i) link.Transmit(Packet{}, 0);
  EXPECT_EQ(link.transmitted(), 10'000u);
  EXPECT_NEAR(double(link.dropped()) / 10'000, 0.2, 0.02);
  EXPECT_EQ(delivered + link.dropped(), 10'000u);
}

TEST(Link, SpikesAddConfiguredDelay) {
  std::vector<Nanos> arrivals;
  Link link({.latency = 100, .jitter = 0, .spike_rate = 1.0,
             .spike_extra = 5000},
            [&](Packet, Nanos t) { arrivals.push_back(t); });
  link.Transmit(Packet{}, 0);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 5100);
  EXPECT_EQ(link.spiked(), 1u);
}

// Per-feature RNG streams (loss/jitter/spike) must stay packet-aligned when
// a feature is toggled: turning loss on must not perturb the jitter or
// spike schedule of the packets that survive.
TEST(Link, LossTogglingDoesNotPerturbDelaySchedule) {
  const LinkParams base{.latency = 1000,
                        .jitter = 400,
                        .spike_rate = 0.05,
                        .spike_extra = 7000};
  auto run = [&](double loss) {
    std::vector<std::pair<std::uint32_t, Nanos>> arrivals;
    LinkParams params = base;
    params.loss_rate = loss;
    Link link(params,
              [&](Packet p, Nanos t) { arrivals.emplace_back(p.ft.src_ip, t); },
              /*seed=*/1234);
    for (std::uint32_t i = 0; i < 4000; ++i) {
      Packet p;
      p.ft.src_ip = i;  // stamp the index to identify survivors
      link.Transmit(p, 0);
    }
    return arrivals;
  };

  const auto lossless = run(0.0);
  ASSERT_EQ(lossless.size(), 4000u);
  const auto lossy = run(0.25);
  ASSERT_FALSE(lossy.empty());
  EXPECT_LT(lossy.size(), lossless.size());
  for (const auto& [idx, t] : lossy) {
    EXPECT_EQ(t, lossless[idx].second) << "packet " << idx;
  }
}

TEST(Link, SpikeTogglingShiftsOnlySpikedPackets) {
  const LinkParams base{.latency = 1000, .jitter = 400, .spike_extra = 7000};
  auto run = [&](double spike_rate) {
    std::vector<Nanos> arrivals;
    LinkParams params = base;
    params.spike_rate = spike_rate;
    Link link(params, [&](Packet, Nanos t) { arrivals.push_back(t); },
              /*seed=*/99);
    for (int i = 0; i < 2000; ++i) link.Transmit(Packet{}, 0);
    return arrivals;
  };

  const auto calm = run(0.0);
  const auto spiky = run(0.1);
  ASSERT_EQ(calm.size(), spiky.size());
  std::size_t spiked = 0;
  for (std::size_t i = 0; i < calm.size(); ++i) {
    // Same jitter draw either way; spiking adds exactly spike_extra.
    if (spiky[i] != calm[i]) {
      EXPECT_EQ(spiky[i], calm[i] + base.spike_extra) << "packet " << i;
      ++spiked;
    }
  }
  EXPECT_GT(spiked, 0u);
}

// Program that stamps its switch id into the packet seq (to observe path).
class StampProgram : public SwitchProgram {
 public:
  explicit StampProgram(std::uint32_t id) : id_(id) {}
  void Process(Packet& p, Nanos, PacketSource, PipelineActions&) override {
    p.seq = p.seq * 10 + id_;
    seen.push_back(p.ts);
  }
  std::vector<Nanos> seen;

 private:
  std::uint32_t id_;
};

TEST(Network, TwoSwitchPathPreservesOrderAndLatency) {
  Network net;
  Switch* s1 = net.AddSwitch();
  Switch* s2 = net.AddSwitch();
  auto p1 = std::make_shared<StampProgram>(1);
  auto p2 = std::make_shared<StampProgram>(2);
  s1->SetProgram(p1);
  s2->SetProgram(p2);
  net.Connect(s1, s2, {.latency = 10 * kMicro, .jitter = 0});
  std::vector<std::uint32_t> sink_seqs;
  net.ConnectToSink(s2, {.latency = kMicro, .jitter = 0},
                    [&](Packet p, Nanos) { sink_seqs.push_back(p.seq); });
  for (int i = 0; i < 5; ++i) {
    Packet p;
    s1->EnqueueFromWire(p, Nanos(i) * kMilli);
  }
  net.RunUntilQuiescent(kSecond);
  ASSERT_EQ(sink_seqs.size(), 5u);
  for (const auto seq : sink_seqs) {
    EXPECT_EQ(seq, 12u);  // visited switch 1 then switch 2
  }
  EXPECT_EQ(p1->seen.size(), 5u);
  EXPECT_EQ(p2->seen.size(), 5u);
}

// ------------------------------------------------------------------ RDMA

TEST(Rdma, WriteLandsInRegisteredMemory) {
  RdmaNic nic;
  MemoryRegion& mr = nic.RegisterMemory(4096);
  RdmaRequestBuilder builder(mr.rkey());
  nic.Execute(builder.WriteU64(64, 0xDEADBEEFull));
  EXPECT_EQ(mr.ReadU64(64), 0xDEADBEEFull);
  EXPECT_EQ(nic.ops_executed(), 1u);
  EXPECT_GT(nic.nic_time(), 0);
}

TEST(Rdma, FetchAddAccumulatesAndReturnsOld) {
  RdmaNic nic;
  MemoryRegion& mr = nic.RegisterMemory(128);
  RdmaRequestBuilder builder(mr.rkey());
  EXPECT_EQ(nic.Execute(builder.FetchAdd(0, 5)), 0u);
  EXPECT_EQ(nic.Execute(builder.FetchAdd(0, 7)), 5u);
  EXPECT_EQ(mr.ReadU64(0), 12u);
}

TEST(Rdma, RejectsUnknownRkey) {
  RdmaNic nic;
  nic.RegisterMemory(128);
  RdmaRequestBuilder builder(0xBAD);
  EXPECT_THROW(nic.Execute(builder.WriteU64(0, 1)), std::invalid_argument);
}

TEST(Rdma, RejectsOutOfBoundsWrite) {
  RdmaNic nic;
  MemoryRegion& mr = nic.RegisterMemory(64);
  RdmaRequestBuilder builder(mr.rkey());
  EXPECT_THROW(nic.Execute(builder.WriteU64(60, 1)), std::out_of_range);
}

TEST(Rdma, EnforcesPsnOrdering) {
  RdmaNic nic;
  MemoryRegion& mr = nic.RegisterMemory(128);
  RdmaRequestBuilder builder(mr.rkey());
  auto r1 = builder.WriteU64(0, 1);   // psn 0
  auto r2 = builder.WriteU64(8, 2);   // psn 1
  nic.Execute(r1);
  auto r3 = builder.WriteU64(16, 3);  // psn 2 — skipping psn 1
  EXPECT_THROW(nic.Execute(r3), std::logic_error);
  // The NIC still expects psn 1; the in-order packet goes through.
  EXPECT_NO_THROW(nic.Execute(r2));
}

TEST(Rdma, MultipleRegionsIndependent) {
  RdmaNic nic;
  MemoryRegion& a = nic.RegisterMemory(64);
  MemoryRegion& b = nic.RegisterMemory(64);
  EXPECT_NE(a.rkey(), b.rkey());
  RdmaRequestBuilder ba(a.rkey());
  nic.Execute(ba.WriteU64(0, 11));
  EXPECT_EQ(a.ReadU64(0), 11u);
  EXPECT_EQ(b.ReadU64(0), 0u);
}

}  // namespace
}  // namespace ow
