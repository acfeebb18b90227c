// Tests for the arbitrary-topology network layer: port-based wiring,
// per-link seed derivation, hash-based ECMP, fan-out/fan-in conservation,
// N-switch loss localization, and the line-topology A/B proving the port
// refactor is bit-identical to the historical single-downstream engine.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "src/core/network_runner.h"
#include "src/net/network.h"
#include "src/obs/obs.h"
#include "src/telemetry/exact_count.h"
#include "src/telemetry/network_queries.h"
#include "src/telemetry/query_builder.h"
#include "src/trace/generator.h"

namespace ow {
namespace {

// ---------------------------------------------------------------------------
// Port-based wiring.

TEST(NetworkPorts, ConnectOnOccupiedPortThrows) {
  Network net;
  Switch* a = net.AddSwitch();
  Switch* b = net.AddSwitch();
  Switch* c = net.AddSwitch();
  net.Connect(a, b, LinkParams{}, std::nullopt, 0);
  EXPECT_THROW(net.Connect(a, c, LinkParams{}, std::nullopt, 0),
               std::logic_error);
  EXPECT_THROW(net.ConnectToSink(a, LinkParams{}, [](Packet, Nanos) {},
                                 std::nullopt, 0),
               std::logic_error);
  EXPECT_THROW(net.Connect(a, c, LinkParams{}, std::nullopt, -7),
               std::invalid_argument);
}

TEST(NetworkPorts, AutoPortPicksLowestFree) {
  Network net;
  Switch* a = net.AddSwitch();
  Switch* b = net.AddSwitch();
  Switch* c = net.AddSwitch();
  net.Connect(a, b, LinkParams{}, std::nullopt, 1);  // explicit port 1
  net.Connect(a, c, LinkParams{});                   // auto -> port 0
  net.ConnectToSink(a, LinkParams{}, [](Packet, Nanos) {});  // auto -> 2
  ASSERT_EQ(net.links().size(), 3u);
  EXPECT_EQ(net.links()[0].port, 1);
  EXPECT_EQ(net.links()[1].port, 0);
  EXPECT_EQ(net.links()[2].port, 2);
  EXPECT_EQ(net.links()[2].to, -1);  // sink
  EXPECT_TRUE(a->HasPortHandler(0));
  EXPECT_TRUE(a->HasPortHandler(1));
  EXPECT_TRUE(a->HasPortHandler(2));
  EXPECT_FALSE(a->HasPortHandler(3));
}

TEST(NetworkPorts, InterSwitchLinksRequirePositiveLatency) {
  Network net;
  Switch* a = net.AddSwitch();
  Switch* b = net.AddSwitch();
  LinkParams zero;
  zero.latency = 0;
  zero.jitter = 0;
  EXPECT_THROW(net.Connect(a, b, zero), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Per-link seed derivation (the constant-default-seed bugfix).

TEST(NetworkPorts, DefaultLinkSeedsAreDecorrelated) {
  LinkParams lossy;
  lossy.latency = kMicro;
  lossy.jitter = 0;
  lossy.loss_rate = 0.5;

  auto patterns = [&](std::uint64_t base_seed) {
    Network net(base_seed);
    Switch* a = net.AddSwitch();
    std::vector<std::vector<bool>> seen(2, std::vector<bool>(256, false));
    Link* l0 = net.ConnectToSink(a, lossy, [&seen](Packet p, Nanos) {
      seen[0][p.seq] = true;
    });
    Link* l1 = net.ConnectToSink(a, lossy, [&seen](Packet p, Nanos) {
      seen[1][p.seq] = true;
    });
    for (int i = 0; i < 256; ++i) {
      Packet p;
      p.seq = std::uint32_t(i);
      l0->Transmit(p, Nanos(i) * kMicro);
      l1->Transmit(p, Nanos(i) * kMicro);
    }
    return seen;
  };

  const auto run1 = patterns(42);
  // Two default-seeded links of the same network must not share a loss
  // schedule (the old fixed 0x117C default correlated them all).
  EXPECT_NE(run1[0], run1[1]);
  // Same base seed -> bit-reproducible; different base seed -> reshuffled.
  EXPECT_EQ(patterns(42), run1);
  EXPECT_NE(patterns(43), run1);
}

TEST(NetworkPorts, ExplicitLinkSeedIsHonored) {
  LinkParams lossy;
  lossy.latency = kMicro;
  lossy.jitter = 0;
  lossy.loss_rate = 0.5;

  auto pattern = [&](std::optional<std::uint64_t> seed, std::uint64_t base) {
    Network net(base);
    Switch* a = net.AddSwitch();
    std::vector<bool> seen(256, false);
    Link* l = net.ConnectToSink(
        a, lossy, [&seen](Packet p, Nanos) { seen[p.seq] = true; }, seed);
    for (int i = 0; i < 256; ++i) {
      Packet p;
      p.seq = std::uint32_t(i);
      l->Transmit(p, Nanos(i) * kMicro);
    }
    return seen;
  };

  // An explicit seed pins the schedule regardless of the network base seed
  // (how existing runs stay reproducible across the derivation change).
  EXPECT_EQ(pattern(0x117Cull, 1), pattern(0x117Cull, 999));
  EXPECT_NE(pattern(std::nullopt, 1), pattern(std::nullopt, 999));
}

// ---------------------------------------------------------------------------
// ECMP policy.

TEST(EcmpPolicy, DeterministicPerSeedAndFloodsSentinel) {
  auto p1 = MakeEcmpPolicy({0, 1, 2}, 7);
  auto p2 = MakeEcmpPolicy({0, 1, 2}, 7);
  auto p3 = MakeEcmpPolicy({0, 1, 2}, 8);
  bool any_differ = false;
  std::vector<int> used(3, 0);
  for (std::uint32_t f = 1; f <= 200; ++f) {
    Packet p;
    p.ft = {f, f ^ 0xABC, 10, 80, 17};
    const int a = p1(p, 0);
    ASSERT_GE(a, 0);
    ASSERT_LT(a, 3);
    EXPECT_EQ(a, p2(p, Nanos(f)));  // same seed, time-independent
    if (a != p3(p, 0)) any_differ = true;
    ++used[std::size_t(a)];
  }
  EXPECT_TRUE(any_differ);  // reseeding reshuffles the flow->port map
  for (int count : used) EXPECT_GT(count, 0);  // all members carry load

  Packet sentinel;  // all-zero five-tuple
  EXPECT_EQ(p1(sentinel, 0), kFloodEgress);
  EXPECT_THROW(MakeEcmpPolicy({}, 1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fan-out / fan-in conservation on a diamond, with a bare counting program.

class CountForwardProgram : public SwitchProgram {
 public:
  void Process(Packet& p, Nanos, PacketSource, PipelineActions&) override {
    ++counts_[p.Key(FlowKeyKind::kFiveTuple)];
  }
  const FlowCounts& counts() const noexcept { return counts_; }

 private:
  FlowCounts counts_;
};

TEST(Fabric, FanOutFanInConservation) {
  // Diamond: s0 -ECMP-> {s1, s2} -> s3 -> sink. Lossless links, so every
  // count must be conserved end to end and each flow must ride exactly one
  // middle switch.
  Network net;
  std::vector<Switch*> sw;
  std::vector<std::shared_ptr<CountForwardProgram>> progs;
  for (int i = 0; i < 4; ++i) {
    sw.push_back(net.AddSwitch());
    progs.push_back(std::make_shared<CountForwardProgram>());
    sw.back()->SetProgram(progs.back());
  }
  LinkParams wire;
  wire.latency = 2 * kMicro;
  wire.jitter = 0;
  net.Connect(sw[0], sw[1], wire);  // port 0
  net.Connect(sw[0], sw[2], wire);  // port 1
  net.Connect(sw[1], sw[3], wire);
  net.Connect(sw[2], sw[3], wire);
  std::uint64_t delivered = 0;
  net.ConnectToSink(sw[3], wire, [&](Packet, Nanos) { ++delivered; });
  sw[0]->SetForwardingPolicy(MakeEcmpPolicy({0, 1}, 0xEC));

  const int kFlows = 300, kPackets = 5;
  for (int f = 1; f <= kFlows; ++f) {
    for (int k = 0; k < kPackets; ++k) {
      Packet p;
      p.ft = {std::uint32_t(f), std::uint32_t(f) ^ 0xFFu, 10, 80, 17};
      p.ts = Nanos(f * kPackets + k) * kMicro;
      sw[0]->EnqueueFromWire(p, p.ts);
    }
  }
  net.RunUntilQuiescent(kSecond);

  const std::uint64_t total = std::uint64_t(kFlows) * kPackets;
  EXPECT_EQ(delivered, total);
  std::uint64_t at0 = 0, at1 = 0, at2 = 0, at3 = 0;
  for (const auto& [key, n] : progs[0]->counts()) {
    at0 += n;
    const auto& c1 = progs[1]->counts();
    const auto& c2 = progs[2]->counts();
    const bool on1 = c1.count(key) > 0, on2 = c2.count(key) > 0;
    EXPECT_NE(on1, on2) << "flow must ride exactly one middle switch";
    EXPECT_EQ((on1 ? c1.at(key) : c2.at(key)), n);
    ASSERT_TRUE(progs[3]->counts().count(key));
    EXPECT_EQ(progs[3]->counts().at(key), n);
  }
  for (const auto& [key, n] : progs[1]->counts()) at1 += n;
  for (const auto& [key, n] : progs[2]->counts()) at2 += n;
  for (const auto& [key, n] : progs[3]->counts()) at3 += n;
  EXPECT_EQ(at0, total);
  EXPECT_EQ(at1 + at2, total);
  EXPECT_EQ(at3, total);
  EXPECT_GT(at1, 0u);  // the ECMP split actually uses both paths
  EXPECT_GT(at2, 0u);
}

// ---------------------------------------------------------------------------
// Fabric runner: ECMP determinism and loss localization.

QueryDef CountAllDef() {
  return QueryBuilder("count_all")
      .KeyBy(FlowKeyKind::kFiveTuple)
      .Count()
      .Threshold(1)
      .Build();
}

Trace FabricTrace(std::uint64_t seed) {
  TraceConfig tc;
  tc.seed = seed;
  tc.duration = 400 * kMilli;
  tc.packets_per_sec = 12'000;
  tc.num_flows = 1'200;
  TraceGenerator gen(tc);
  return gen.GenerateBackground();
}

NetworkRunConfig LeafSpineConfig() {
  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = 100 * kMilli;
  spec.subwindow_size = 50 * kMilli;
  spec.slide = spec.window_size;
  NetworkRunConfig cfg;
  cfg.base = RunConfig::Make(spec);
  cfg.base.controller.kv_capacity = 1 << 16;
  cfg.topology.kind = TopologyKind::kLeafSpine;
  cfg.topology.spines = 2;
  cfg.topology.leaves = 2;
  cfg.capture_counts = true;
  // Zero jitter: localization asserts EXACT per-link conservation, and link
  // jitter can reorder closely-spaced packets across a sub-window reset
  // (those show up as a bounded phantom loss, as in Exp#9's skewed-clock
  // ablation — real, but not what these tests pin down).
  cfg.link.latency = 20 * kMicro;
  cfg.link.jitter = 0;
  return cfg;
}

// The localization tests assert EXACT per-link flow conservation, so the
// measurement app must not add error of its own: QueryAdapter's collision-free
// cells are the paper's documented residual error (a collision at one switch
// that is absent at another reads as phantom loss), hence ExactCountApp.
NetworkRunResult RunLeafSpine(const Trace& trace, NetworkRunConfig cfg) {
  return RunOmniWindowFabric(
      trace, [](std::size_t) { return std::make_shared<ExactCountApp>(); },
      cfg);
}

TEST(Fabric, EcmpSeedReshufflesPathsDeterministically) {
  const Trace trace = FabricTrace(91);
  const NetworkRunResult a = RunLeafSpine(trace, LeafSpineConfig());
  const NetworkRunResult b = RunLeafSpine(trace, LeafSpineConfig());
  NetworkRunConfig reseeded = LeafSpineConfig();
  reseeded.topology.ecmp_seed ^= 0xDEADBEEFull;
  const NetworkRunResult c = RunLeafSpine(trace, reseeded);

  ASSERT_EQ(a.links.size(), 4u);  // 2x2 leaf-spine: 2 up + 2 down links
  ASSERT_EQ(b.links.size(), 4u);
  ASSERT_EQ(c.links.size(), 4u);
  bool reshuffled = false;
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    EXPECT_EQ(a.links[i].transmitted, b.links[i].transmitted)
        << "same seed must reproduce the exact per-link load";
    if (a.links[i].transmitted != c.links[i].transmitted) reshuffled = true;
  }
  EXPECT_TRUE(reshuffled) << "reseeding ECMP must move some flows";
  // Lossless fabric: every trace packet reaches the egress sink (the
  // flooded sentinel may add up to one extra copy per spine).
  EXPECT_GE(a.delivered, trace.packets.size());
  EXPECT_LE(a.delivered, trace.packets.size() + 2);
}

TEST(Fabric, LocalizationNamesTheInjectedLossyLink) {
  const Trace trace = FabricTrace(92);
  NetworkRunConfig cfg = LeafSpineConfig();
  // Arm a drop fault on fabric link 2 only (spine 2 -> egress leaf 1 in the
  // 2x2 layout: links are 0->2, 0->3, 2->1, 3->1 in creation order).
  cfg.base.fault.inner_link.drop_rate = 0.08;
  cfg.fault_link_index = 2;
  const NetworkRunResult net = RunLeafSpine(trace, cfg);

  ASSERT_EQ(net.links.size(), 4u);
  const FabricLinkStats& truth = net.links[2];
  EXPECT_EQ(truth.from, 2);
  EXPECT_EQ(truth.to, 1);
  ASSERT_GT(truth.dropped, 50u);
  for (std::size_t i = 0; i < net.links.size(); ++i) {
    if (i != 2) {
      EXPECT_EQ(net.links[i].dropped, 0u);
    }
  }

  // Localize per consistent window and aggregate per link.
  const NextHopFn next_hop = MakeTopologyNextHop(cfg.topology);
  std::map<std::pair<int, int>, std::uint64_t> inferred;
  std::size_t windows_used = 0;
  for (const auto& [span, counts0] : net.per_switch[0].counts) {
    std::vector<FlowCounts> per_switch{counts0};
    bool complete = true;
    for (std::size_t i = 1; i < net.per_switch.size(); ++i) {
      auto it = net.per_switch[i].counts.find(span);
      if (it == net.per_switch[i].counts.end()) {
        complete = false;
        break;
      }
      per_switch.push_back(it->second);
    }
    if (!complete) continue;
    ++windows_used;
    for (const LinkLossReport& link : LocalizeFlowLoss(per_switch, next_hop)) {
      inferred[{link.from, link.to}] += link.lost();
    }
  }
  ASSERT_GE(windows_used, 4u);

  // Exactly one link is charged, it is the armed one, and the charge equals
  // the link's true drop count (the end-of-trace sentinel is the only
  // packet outside any window, so allow for at most one stray drop).
  std::uint64_t on_armed = 0, elsewhere = 0;
  for (const auto& [edge, lost] : inferred) {
    if (edge.first == truth.from && edge.second == truth.to) {
      on_armed = lost;
    } else {
      elsewhere += lost;
    }
  }
  EXPECT_EQ(elsewhere, 0u);
  EXPECT_LE(on_armed, truth.dropped);
  EXPECT_GE(on_armed + 1, truth.dropped);
}

TEST(Fabric, DuplicationInflationNeverWrapsLossCounts) {
  // Unit level: downstream > upstream saturates to zero loss.
  FlowLossReport r;
  r.upstream = 5;
  r.downstream = 9;
  EXPECT_EQ(r.lost(), 0u);
  LinkLossReport lr;
  lr.upstream = 100;
  lr.downstream = 260;
  EXPECT_EQ(lr.lost(), 0u);

  // Fabric level: arm duplication on the first up-link; downstream tables
  // see MORE packets than upstream, which must read as zero loss, not as a
  // wrapped-around astronomically large one.
  const Trace trace = FabricTrace(93);
  NetworkRunConfig cfg = LeafSpineConfig();
  cfg.base.fault.inner_link.dup_rate = 0.25;
  cfg.fault_link_index = 0;
  const NetworkRunResult net = RunLeafSpine(trace, cfg);
  ASSERT_EQ(net.links.size(), 4u);
  EXPECT_GT(net.links[0].duplicates, 50u);

  const NextHopFn next_hop = MakeTopologyNextHop(cfg.topology);
  std::uint64_t total_inferred = 0;
  for (const auto& [span, counts0] : net.per_switch[0].counts) {
    std::vector<FlowCounts> per_switch{counts0};
    bool complete = true;
    for (std::size_t i = 1; i < net.per_switch.size(); ++i) {
      auto it = net.per_switch[i].counts.find(span);
      if (it == net.per_switch[i].counts.end()) {
        complete = false;
        break;
      }
      per_switch.push_back(it->second);
    }
    if (!complete) continue;
    total_inferred += TotalLost(LocalizeFlowLoss(per_switch, next_hop));
  }
  // Nothing was dropped anywhere; saturation keeps the total at zero even
  // though per-link downstream totals exceed upstream ones.
  EXPECT_EQ(total_inferred, 0u);
}

// ---------------------------------------------------------------------------
// RDMA collection on the session: honoured on every switch, or refused.

NetworkRunConfig RdmaConfig(TopologyConfig topology) {
  NetworkRunConfig cfg = LeafSpineConfig();
  cfg.topology = topology;
  cfg.base.data_plane.rdma = true;
  cfg.base.controller.rdma = true;
  return cfg;
}

/// Every window of every switch must hold exactly the packets routed
/// through that switch during its span, with no window flagged, and the
/// switches must have collected over their NICs.
void ExpectExactRdmaWindows(const Trace& trace, const NetworkRunConfig& cfg,
                            const NetworkRunResult& run) {
  const NextHopFn next_hop = MakeTopologyNextHop(cfg.topology);
  const Nanos sub = cfg.base.window.subwindow_size;
  std::vector<std::map<SubWindowNum, FlowCounts>> want(run.per_switch.size());
  for (const Packet& p : trace.packets) {
    const FlowKey key = p.Key(FlowKeyKind::kFiveTuple);
    // Tumbling windows of two sub-windows, keyed by their first one.
    const SubWindowNum first = SubWindowNum(p.ts / sub) & ~SubWindowNum(1);
    for (int u = 0; u >= 0; u = next_hop(u, key)) {
      ++want[std::size_t(u)][first][key];
    }
  }
  std::uint64_t rdma_writes = 0;
  for (std::size_t i = 0; i < run.per_switch.size(); ++i) {
    const SwitchRun& sw = run.per_switch[i];
    rdma_writes += sw.data_plane.rdma_writes;
    EXPECT_EQ(sw.controller.windows_partial, 0u) << "switch " << i;
    ASSERT_GE(sw.counts.size(), 3u) << "switch " << i;
    for (const auto& [first, counts] : sw.counts) {
      EXPECT_EQ(counts, want[i][first])
          << "switch " << i << " window " << first;
    }
  }
  EXPECT_GT(rdma_writes, 0u);
}

TEST(FabricRdma, LossyReportPathIsRefused) {
  // RDMA completion trusts the completion notification. Over a report link
  // that drops packets, a late notification drains buffer and mirror slots
  // a later sub-window already wrote, and windows come out wrong without a
  // flag, so the session refuses the combination.
  TraceConfig tc;
  tc.duration = kSecond;
  tc.packets_per_sec = 10'000;
  const Trace trace = TraceGenerator(tc).GenerateBackground();
  const auto make_app = [](std::size_t) {
    return std::make_shared<ExactCountApp>();
  };
  const TopologyConfig one_switch{.line_switches = 1};

  NetworkRunConfig lossy = RdmaConfig(one_switch);
  lossy.report_link.loss_rate = 0.1;
  EXPECT_THROW(FabricSession(trace, make_app, lossy), std::invalid_argument);

  NetworkRunConfig faulted = RdmaConfig(one_switch);
  faulted.base.fault.report_link.drop_rate = 0.2;
  EXPECT_THROW(FabricSession(trace, make_app, faulted), std::invalid_argument);
  EXPECT_THROW(RunOmniWindow(trace, std::make_shared<ExactCountApp>(),
                             faulted.base),
               std::invalid_argument);

  // Jitter delays reports but never drops them: allowed, and exact.
  NetworkRunConfig jittery = RdmaConfig(one_switch);
  jittery.report_link.jitter = 200 * kMicro;
  ExpectExactRdmaWindows(trace, jittery, RunLeafSpine(trace, jittery));
}

TEST(FabricRdma, LeafSpineWindowsAreExact) {
  // Every switch of a 3-leaf x 2-spine fabric collects over its own NIC.
  const Trace trace = FabricTrace(5);
  const NetworkRunConfig cfg = RdmaConfig(
      {.kind = TopologyKind::kLeafSpine, .spines = 2, .leaves = 3});
  ExpectExactRdmaWindows(trace, cfg, RunLeafSpine(trace, cfg));
}

// ---------------------------------------------------------------------------
// Line A/B: the port-based wiring must be bit-identical to the historical
// SetForwardHandler + raw-Link engine — windows, stats, and obs deltas.

struct LineAbResult {
  struct Win {
    SubWindowSpan span;
    Nanos completed_at = 0;
    bool partial = false;
    FlowCounts counts;
  };
  std::vector<std::vector<Win>> windows;  // per switch
  std::vector<OmniWindowProgram::Stats> dp;
  std::vector<OmniWindowController::Stats> ctl;
  std::vector<std::uint64_t> link_tx, link_drop;
  std::string obs_json;
};

LineAbResult RunLineAb(bool legacy_wiring, const Trace& trace) {
  obs::Global().Reset();
  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = 100 * kMilli;
  spec.subwindow_size = 50 * kMilli;
  spec.slide = spec.window_size;
  RunConfig rc = RunConfig::Make(spec);
  rc.controller.kv_capacity = 1 << 15;
  LinkParams wire;
  wire.latency = 20 * kMicro;
  wire.jitter = 2 * kMicro;
  wire.loss_rate = 0.01;

  const int kSwitches = 3;
  Network net;
  LineAbResult out;
  out.windows.resize(kSwitches);
  std::vector<Switch*> sw;
  std::vector<std::shared_ptr<OmniWindowProgram>> progs;
  std::vector<std::unique_ptr<OmniWindowController>> ctls;
  for (int i = 0; i < kSwitches; ++i) {
    sw.push_back(net.AddSwitch());
    OmniWindowConfig dp = rc.data_plane;
    dp.first_hop = (i == 0);
    auto app = std::make_shared<QueryAdapter>(CountAllDef(), 1 << 14);
    progs.push_back(std::make_shared<OmniWindowProgram>(dp, app));
    sw.back()->SetProgram(progs.back());
    ctls.push_back(std::make_unique<OmniWindowController>(
        rc.controller, app->merge_kind()));
    ctls.back()->AttachSwitch(sw.back());
    auto& wins = out.windows[std::size_t(i)];
    ctls.back()->SetWindowHandler([&wins](const WindowResult& w) {
      LineAbResult::Win win;
      win.span = w.span;
      win.completed_at = w.completed_at;
      win.partial = w.partial;
      w.table->ForEach(
          [&](const KvSlot& slot) { win.counts[slot.key] = slot.attrs[0]; });
      wins.push_back(std::move(win));
    });
  }

  // The wiring under test. Same Link class, same seeds, same transmit call
  // chain — the only difference is who owns the link and which API routes
  // the forwarded packet into it.
  std::vector<std::unique_ptr<Link>> legacy_links;
  std::vector<Link*> links;
  for (int i = 0; i + 1 < kSwitches; ++i) {
    const std::uint64_t seed = 9000 + std::uint64_t(i);
    if (legacy_wiring) {
      Switch* down = sw[std::size_t(i) + 1];
      legacy_links.push_back(std::make_unique<Link>(
          wire,
          [down](Packet p, Nanos arrival) {
            down->EnqueueFromWire(std::move(p), arrival);
          },
          seed));
      Link* link = legacy_links.back().get();
      sw[std::size_t(i)]->SetForwardHandler(
          [link](const Packet& p, Nanos now) { link->Transmit(p, now); });
      links.push_back(link);
    } else {
      links.push_back(
          net.Connect(sw[std::size_t(i)], sw[std::size_t(i) + 1], wire, seed));
    }
  }

  for (const Packet& p : trace.packets) sw[0]->EnqueueFromWire(p, p.ts);
  Packet sentinel;
  sentinel.ts = trace.Duration() + spec.subwindow_size;
  sw[0]->EnqueueFromWire(sentinel, sentinel.ts);
  const Nanos horizon = trace.Duration() + 10 * kSecond;
  net.RunUntilQuiescent(horizon);
  for (int round = 0; round < 16; ++round) {
    bool all_done = true;
    for (int i = 0; i < kSwitches; ++i) {
      ctls[std::size_t(i)]->EnsureCollectedThrough(
          progs[std::size_t(i)]->current_subwindow(), trace.Duration());
      if (!ctls[std::size_t(i)]->Flush(trace.Duration())) all_done = false;
    }
    if (all_done) break;
    net.RunUntilQuiescent(horizon);
  }

  for (int i = 0; i < kSwitches; ++i) {
    out.dp.push_back(progs[std::size_t(i)]->stats());
    out.ctl.push_back(ctls[std::size_t(i)]->stats());
  }
  for (Link* link : links) {
    out.link_tx.push_back(link->transmitted());
    out.link_drop.push_back(link->dropped());
  }
  std::ostringstream obs;
  obs::Global().WriteStatsJson(obs);
  out.obs_json = obs.str();
  return out;
}

TEST(LineAb, PortWiringBitIdenticalToLegacyEngine) {
  TraceConfig tc;
  tc.seed = 94;
  tc.duration = 400 * kMilli;
  tc.packets_per_sec = 10'000;
  tc.num_flows = 800;
  TraceGenerator gen(tc);
  const Trace trace = gen.GenerateBackground();

  const LineAbResult legacy = RunLineAb(true, trace);
  const LineAbResult ports = RunLineAb(false, trace);

  // Links: identical schedules (same seeds) and identical traffic.
  ASSERT_EQ(legacy.link_tx.size(), ports.link_tx.size());
  EXPECT_EQ(legacy.link_tx, ports.link_tx);
  EXPECT_EQ(legacy.link_drop, ports.link_drop);

  // Windows: same cadence, spans, timing, flags and full count tables.
  ASSERT_EQ(legacy.windows.size(), ports.windows.size());
  for (std::size_t i = 0; i < legacy.windows.size(); ++i) {
    ASSERT_EQ(legacy.windows[i].size(), ports.windows[i].size())
        << "switch " << i;
    for (std::size_t w = 0; w < legacy.windows[i].size(); ++w) {
      const auto& a = legacy.windows[i][w];
      const auto& b = ports.windows[i][w];
      EXPECT_EQ(a.span.first, b.span.first);
      EXPECT_EQ(a.span.last, b.span.last);
      EXPECT_EQ(a.completed_at, b.completed_at);
      EXPECT_EQ(a.partial, b.partial);
      EXPECT_EQ(a.counts, b.counts);
    }
  }

  // Data-plane and controller stats, field by field.
  for (std::size_t i = 0; i < legacy.dp.size(); ++i) {
    const auto& a = legacy.dp[i];
    const auto& b = ports.dp[i];
    EXPECT_EQ(a.packets_measured, b.packets_measured);
    EXPECT_EQ(a.terminations, b.terminations);
    EXPECT_EQ(a.afr_generated, b.afr_generated);
    EXPECT_EQ(a.reset_passes, b.reset_passes);
    EXPECT_EQ(a.spilled_keys, b.spilled_keys);
    EXPECT_EQ(a.stale_packets, b.stale_packets);
    EXPECT_EQ(a.collect_overruns, b.collect_overruns);
    const auto& ca = legacy.ctl[i];
    const auto& cb = ports.ctl[i];
    EXPECT_EQ(ca.afrs_received, cb.afrs_received);
    EXPECT_EQ(ca.subwindows_finalized, cb.subwindows_finalized);
    EXPECT_EQ(ca.subwindows_force_finalized, cb.subwindows_force_finalized);
    EXPECT_EQ(ca.windows_emitted, cb.windows_emitted);
    EXPECT_EQ(ca.spilled_keys_stored, cb.spilled_keys_stored);
    EXPECT_EQ(ca.retransmissions_requested, cb.retransmissions_requested);
    EXPECT_EQ(ca.duplicate_afrs, cb.duplicate_afrs);
    EXPECT_EQ(ca.windows_partial, cb.windows_partial);
  }

  // Observability: every scalar instrument (counters and gauges) matches.
  // Timing histograms measure wall-clock work and are skipped — they are
  // nondeterministic even between two identical runs.
  auto scalar_lines = [](const std::string& json) {
    std::vector<std::string> out;
    std::istringstream in(json);
    std::string line;
    while (std::getline(in, line)) {
      if (line.find("\": ") != std::string::npos &&
          line.find(": {") == std::string::npos) {
        out.push_back(line);
      }
    }
    return out;
  };
  EXPECT_EQ(scalar_lines(legacy.obs_json), scalar_lines(ports.obs_json));
}

}  // namespace
}  // namespace ow
