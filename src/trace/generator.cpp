#include "src/trace/generator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace ow {
namespace {

// Address blocks: background hosts live in 10.0.0.0/16, attack actors in
// 172.16.0.0/16, victims in 192.168.0.0/24 so injections never collide with
// background flows.
constexpr std::uint32_t kBackgroundBase = 0x0A000000u;  // 10.0.0.0
constexpr std::uint32_t kActorBase = 0xAC100000u;       // 172.16.0.0
constexpr std::uint32_t kVictimBase = 0xC0A80000u;      // 192.168.0.0

// Background shape: flow sizes are Zipf with this skew, addresses come from
// a pool of this many hosts, and this share of flows is TCP (the rest UDP).
constexpr double kZipfAlpha = 1.0;
constexpr std::size_t kNumHosts = 4'096;
constexpr double kTcpFraction = 0.8;

/// `cfg`, refused before anything is built from it when its rate is not
/// finite and positive (the background would never reach its duration).
const TraceConfig& Checked(const TraceConfig& cfg) {
  if (!(std::isfinite(cfg.packets_per_sec) && cfg.packets_per_sec > 0)) {
    throw std::invalid_argument(
        "TraceGenerator: packets_per_sec must be finite and positive, got " +
        std::to_string(cfg.packets_per_sec));
  }
  return cfg;
}

}  // namespace

void Trace::SortByTime() {
  const auto earlier = [](const Packet& a, const Packet& b) {
    return a.ts < b.ts;
  };
  // Injections append behind an in-order background: sort only that tail,
  // then merge. inplace_merge keeps the prefix first on time ties, so the
  // result equals a stable sort of the whole trace.
  const auto tail =
      std::is_sorted_until(packets.begin(), packets.end(), earlier);
  std::stable_sort(tail, packets.end(), earlier);
  std::inplace_merge(packets.begin(), tail, packets.end(), earlier);
}

TraceGenerator::TraceGenerator(const TraceConfig& cfg)
    : cfg_(Checked(cfg)), rng_(cfg.seed), zipf_(cfg.num_flows, kZipfAlpha) {
  flow_pool_.reserve(cfg_.num_flows);
  for (std::size_t i = 0; i < cfg_.num_flows; ++i) {
    FiveTuple t;
    t.src_ip = kBackgroundBase + std::uint32_t(rng_.Uniform(kNumHosts));
    t.dst_ip = kBackgroundBase + std::uint32_t(rng_.Uniform(kNumHosts));
    t.src_port = std::uint16_t(rng_.Range(1024, 65535));
    t.dst_port = std::uint16_t(rng_.Range(1, 1023));
    t.proto = rng_.Bernoulli(kTcpFraction) ? 6 : 17;
    flow_pool_.push_back(t);
  }
}

std::uint32_t TraceGenerator::RandomHost() {
  return kBackgroundBase + std::uint32_t(rng_.Uniform(kNumHosts));
}

std::uint16_t TraceGenerator::EphemeralPort() {
  // Historically `next_ephemeral_++ % 65535 + 1`, which wrapped injected
  // "client" source ports into 1–1023 and polluted port-keyed ground truth
  // (a wrapped source port 22 is indistinguishable from SSH to a port-keyed
  // query). Cycle through the client range only.
  constexpr std::uint32_t kLo = 1024;
  constexpr std::uint32_t kSpan = 65536 - kLo;
  return std::uint16_t(kLo + next_ephemeral_++ % kSpan);
}

FiveTuple TraceGenerator::RandomBackgroundTuple(std::size_t flow_rank) {
  return flow_pool_[flow_rank % flow_pool_.size()];
}

std::size_t TraceGenerator::BackgroundCapacity() const {
  // Arrivals are Poisson with mean `expected`; eight standard deviations
  // above it the vector never has to grow in practice.
  const double expected =
      std::max(0.0, double(cfg_.duration) / 1e9 * cfg_.packets_per_sec);
  return std::size_t(expected + 8 * std::sqrt(expected)) + 16;
}

Trace TraceGenerator::GenerateBackground() {
  Trace trace;
  trace.packets.reserve(BackgroundCapacity());
  AppendBackground(trace);
  return trace;
}

void TraceGenerator::AppendBackground(Trace& trace) {
  const double mean_gap_ns = 1e9 / cfg_.packets_per_sec;
  std::vector<std::uint32_t> flow_seq(cfg_.num_flows, 0);
  double t = 0;
  while (true) {
    t += rng_.Exponential(mean_gap_ns);
    // Compared as a double: a gap past the Nanos range (a rate near zero)
    // ends the background instead of overflowing the conversion.
    if (!(t < double(cfg_.duration))) break;
    const Nanos ts = Nanos(t);
    const std::size_t rank = zipf_.Sample(rng_);
    Packet p;
    p.ft = RandomBackgroundTuple(rank);
    p.ts = ts;
    p.size_bytes = std::uint16_t(rng_.Range(64, 1500));
    p.seq = flow_seq[rank]++;
    if (p.ft.proto == 6) {
      // First packet of a flow is a SYN, later ones carry ACK/PSH; sprinkle
      // FINs so completed-flow queries see background completions.
      if (p.seq == 0) {
        p.tcp_flags = kTcpSyn;
      } else if (rng_.Bernoulli(0.02)) {
        p.tcp_flags = kTcpFin | kTcpAck;
      } else {
        p.tcp_flags = kTcpAck | (rng_.Bernoulli(0.3) ? kTcpPsh : 0);
      }
    }
    trace.packets.push_back(p);
  }
}

void TraceGenerator::InjectConnectionFlood(Trace& trace, Nanos start,
                                           Nanos duration, std::size_t conns) {
  const std::uint32_t actor = kActorBase + std::uint32_t(rng_.Uniform(256));
  for (std::size_t i = 0; i < conns; ++i) {
    Packet p;
    p.ft.src_ip = actor;
    p.ft.dst_ip = RandomHost();
    p.ft.src_port = EphemeralPort();
    p.ft.dst_port = std::uint16_t(rng_.Range(1, 1023));
    p.ft.proto = 6;
    p.tcp_flags = kTcpSyn;
    p.ts = start + Nanos(rng_.Uniform(std::uint64_t(duration)));
    p.size_bytes = 64;
    trace.packets.push_back(p);
  }
  injected_.push_back({"connection_flood",
                       FlowKey(FlowKeyKind::kSrcIp, {.src_ip = actor}), start,
                       start + duration, conns});
}

void TraceGenerator::InjectSshBruteForce(Trace& trace, Nanos start,
                                         Nanos duration,
                                         std::size_t attempts) {
  const std::uint32_t victim = kVictimBase + 1;
  const std::uint32_t attacker = kActorBase + 512;
  for (std::size_t i = 0; i < attempts; ++i) {
    const Nanos t0 = start + Nanos(rng_.Uniform(std::uint64_t(duration)));
    FiveTuple ft{attacker, victim, EphemeralPort(),
                 22, 6};
    // Each attempt: SYN, a couple of small auth packets, FIN.
    Packet syn{.ts = t0, .ft = ft, .size_bytes = 64, .tcp_flags = kTcpSyn};
    Packet auth{.ts = t0 + 50 * kMicro, .ft = ft, .seq = 1,
                .size_bytes = 128, .tcp_flags = kTcpAck | kTcpPsh};
    Packet fin{.ts = t0 + 100 * kMicro, .ft = ft, .seq = 2,
               .size_bytes = 64, .tcp_flags = kTcpFin | kTcpAck};
    trace.packets.push_back(syn);
    trace.packets.push_back(auth);
    trace.packets.push_back(fin);
  }
  InjectedAnomaly rec{"ssh_brute_force",
                      FlowKey(FlowKeyKind::kDstIp, {.dst_ip = victim}), start,
                      start + duration, attempts * 3};
  // The attacking host is as legitimately alertable as the victim.
  rec.secondary.push_back(FlowKey(FlowKeyKind::kSrcIp, {.src_ip = attacker}));
  injected_.push_back(std::move(rec));
}

void TraceGenerator::InjectPortScan(Trace& trace, Nanos start, Nanos duration,
                                    std::size_t ports) {
  const std::uint32_t victim = kVictimBase + 2;
  const std::uint32_t scanner = kActorBase + 1024;
  // The probe sequence walks ports 1..65535 and only repeats once the whole
  // port space is exhausted, so the distinct-count ground truth is exact:
  // min(ports, 65535) unique destination ports.
  const std::size_t unique_ports = std::min<std::size_t>(ports, 65535);
  for (std::size_t i = 0; i < ports; ++i) {
    Packet p;
    p.ft = {scanner, victim, EphemeralPort(), std::uint16_t(1 + i % 65535), 6};
    p.tcp_flags = kTcpSyn;
    p.size_bytes = 64;
    p.ts = start + Nanos(double(i) / double(ports) * double(duration));
    trace.packets.push_back(p);
  }
  InjectedAnomaly rec{"port_scan",
                      FlowKey(FlowKeyKind::kDstIp, {.dst_ip = victim}),
                      start,
                      start + duration,
                      ports,
                      unique_ports};
  rec.secondary.push_back(FlowKey(FlowKeyKind::kSrcIp, {.src_ip = scanner}));
  injected_.push_back(std::move(rec));
}

void TraceGenerator::InjectDdos(Trace& trace, Nanos start, Nanos duration,
                                std::size_t sources) {
  const std::uint32_t victim = kVictimBase + 3;
  for (std::size_t i = 0; i < sources; ++i) {
    const std::uint32_t src = kActorBase + 0x2000 + std::uint32_t(i);
    // Each source sends a handful of packets.
    const std::size_t pkts = 1 + rng_.Uniform(4);
    for (std::size_t j = 0; j < pkts; ++j) {
      Packet p;
      p.ft = {src, victim, std::uint16_t(rng_.Range(1024, 65535)), 80, 6};
      p.tcp_flags = j == 0 ? kTcpSyn : kTcpAck;
      p.seq = std::uint32_t(j);
      p.size_bytes = 512;
      p.ts = start + Nanos(rng_.Uniform(std::uint64_t(duration)));
      trace.packets.push_back(p);
    }
  }
  injected_.push_back({"ddos", FlowKey(FlowKeyKind::kDstIp, {.dst_ip = victim}),
                       start, start + duration, sources, sources});
}

void TraceGenerator::InjectSynFlood(Trace& trace, Nanos start, Nanos duration,
                                    std::size_t syns) {
  const std::uint32_t victim = kVictimBase + 4;
  const std::uint32_t attacker = kActorBase + 0x3000;
  for (std::size_t i = 0; i < syns; ++i) {
    Packet p;
    p.ft = {attacker + std::uint32_t(i % 16), victim,
            EphemeralPort(), 443, 6};
    p.tcp_flags = kTcpSyn;
    p.size_bytes = 64;
    p.ts = start + Nanos(rng_.Uniform(std::uint64_t(duration)));
    trace.packets.push_back(p);
  }
  injected_.push_back({"syn_flood",
                       FlowKey(FlowKeyKind::kDstIp, {.dst_ip = victim}), start,
                       start + duration, syns});
}

void TraceGenerator::InjectCompletedFlows(Trace& trace, Nanos start,
                                          Nanos duration, std::size_t flows) {
  const std::uint32_t host = kVictimBase + 5;
  for (std::size_t i = 0; i < flows; ++i) {
    const Nanos t0 = start + Nanos(rng_.Uniform(std::uint64_t(duration)));
    FiveTuple ft{kActorBase + 0x4000 + std::uint32_t(i % 64), host,
                 EphemeralPort(), 8080, 6};
    Packet syn{.ts = t0, .ft = ft, .size_bytes = 64, .tcp_flags = kTcpSyn};
    Packet dat{.ts = t0 + 40 * kMicro, .ft = ft, .seq = 1,
               .size_bytes = 900, .tcp_flags = kTcpAck | kTcpPsh};
    Packet fin{.ts = t0 + 80 * kMicro, .ft = ft, .seq = 2,
               .size_bytes = 64, .tcp_flags = kTcpFin | kTcpAck};
    trace.packets.push_back(syn);
    trace.packets.push_back(dat);
    trace.packets.push_back(fin);
  }
  injected_.push_back({"completed_flows",
                       FlowKey(FlowKeyKind::kDstIp, {.dst_ip = host}), start,
                       start + duration, flows * 3});
}

void TraceGenerator::InjectSlowloris(Trace& trace, Nanos start, Nanos duration,
                                     std::size_t conns) {
  const std::uint32_t victim = kVictimBase + 6;
  const std::uint32_t attacker = kActorBase + 0x5000;
  for (std::size_t i = 0; i < conns; ++i) {
    FiveTuple ft{attacker + std::uint32_t(i % 8), victim,
                 EphemeralPort(), 80, 6};
    // A SYN then tiny keep-alive packets trickling across the window.
    const std::size_t trickles = 4 + rng_.Uniform(4);
    for (std::size_t j = 0; j <= trickles; ++j) {
      Packet p;
      p.ft = ft;
      p.tcp_flags = j == 0 ? kTcpSyn : (kTcpAck | kTcpPsh);
      p.size_bytes = j == 0 ? 64 : 70;  // slowloris sends tiny payloads
      p.seq = std::uint32_t(j);
      p.ts = start + Nanos(double(j) / double(trickles + 1) * double(duration)) +
             Nanos(rng_.Uniform(kMilli));
      // The per-packet jitter can push the final trickle past the recorded
      // [start, start + duration) ground-truth interval; keep every injected
      // packet inside its own label.
      if (p.ts >= start + duration) p.ts = start + duration - 1;
      trace.packets.push_back(p);
    }
  }
  injected_.push_back({"slowloris",
                       FlowKey(FlowKeyKind::kDstIp, {.dst_ip = victim}), start,
                       start + duration, conns});
}

void TraceGenerator::InjectSuperSpreader(Trace& trace, Nanos start,
                                         Nanos duration, std::size_t fanout) {
  const std::uint32_t spreader = kActorBase + 0x6000;
  for (std::size_t i = 0; i < fanout; ++i) {
    Packet p;
    p.ft = {spreader, kBackgroundBase + std::uint32_t(i % 0xFFFF),
            std::uint16_t(rng_.Range(1024, 65535)),
            std::uint16_t(rng_.Range(1, 1023)), 17};
    p.size_bytes = 128;
    p.ts = start + Nanos(rng_.Uniform(std::uint64_t(duration)));
    trace.packets.push_back(p);
  }
  injected_.push_back({"super_spreader",
                       FlowKey(FlowKeyKind::kSrcIp, {.src_ip = spreader}),
                       start, start + duration, fanout,
                       std::min<std::size_t>(fanout, 0xFFFF)});
}

void TraceGenerator::InjectBoundaryBurst(Trace& trace, Nanos center,
                                         Nanos spread, std::size_t packets) {
  FiveTuple ft{kActorBase + 0x7000 + std::uint32_t(injected_.size()),
               kVictimBase + 7, EphemeralPort(),
               80, 6};
  for (std::size_t i = 0; i < packets; ++i) {
    Packet p;
    p.ft = ft;
    p.tcp_flags = i == 0 ? kTcpSyn : kTcpAck;
    p.seq = std::uint32_t(i);
    p.size_bytes = 1000;
    // Uniform across [center - spread, center + spread): roughly half the
    // burst lands in each adjacent tumbling window.
    p.ts = center - spread + Nanos(rng_.Uniform(std::uint64_t(2 * spread)));
    if (p.ts < 0) p.ts = 0;
    trace.packets.push_back(p);
  }
  injected_.push_back({"boundary_burst", FlowKey(FlowKeyKind::kFiveTuple, ft),
                       center - spread, center + spread, packets});
}

Trace TraceGenerator::GenerateEvaluationTrace() {
  constexpr std::size_t kFloodConns = 400;
  constexpr std::size_t kSshAttempts = 200;
  constexpr std::size_t kScanPorts = 300;
  constexpr std::size_t kDdosSources = 500;
  constexpr std::size_t kSyns = 400;
  constexpr std::size_t kCompletedFlows = 150;
  constexpr std::size_t kSlowlorisConns = 60;
  constexpr std::size_t kSpreaderFanout = 600;
  constexpr std::size_t kBurstPackets = 120;
  constexpr Nanos kBurstPeriod = 500 * kMilli;
  const Nanos d = cfg_.duration;
  const std::size_t bursts = d > 0 ? std::size_t((d - 1) / kBurstPeriod) : 0;
  // Room for every injection below at its largest: an SSH attempt and a
  // completed flow are 3 packets, a DDoS source sends at most 4 and a
  // slowloris connection at most 8.
  const std::size_t max_injected =
      kFloodConns + 3 * kSshAttempts + kScanPorts + 4 * kDdosSources + kSyns +
      3 * kCompletedFlows + 8 * kSlowlorisConns + kSpreaderFanout +
      kBurstPackets * bursts;
  Trace trace;
  trace.packets.reserve(BackgroundCapacity() + max_injected);
  AppendBackground(trace);
  InjectConnectionFlood(trace, d / 10, d / 5, kFloodConns);
  InjectSshBruteForce(trace, d / 8, d / 4, kSshAttempts);
  InjectPortScan(trace, d / 6, d / 5, kScanPorts);
  InjectDdos(trace, d / 4, d / 5, kDdosSources);
  InjectSynFlood(trace, d / 3, d / 5, kSyns);
  InjectCompletedFlows(trace, d / 3, d / 4, kCompletedFlows);
  InjectSlowloris(trace, d / 5, d / 2, kSlowlorisConns);
  InjectSuperSpreader(trace, d / 2, d / 5, kSpreaderFanout);
  // Bursts straddling 500 ms window boundaries (Figure 1 motivation).
  for (Nanos boundary = kBurstPeriod; boundary < d; boundary += kBurstPeriod) {
    InjectBoundaryBurst(trace, boundary, 60 * kMilli, kBurstPackets);
  }
  trace.SortByTime();
  return trace;
}

}  // namespace ow
