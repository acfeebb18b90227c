#include "src/dml/dml.h"

#include <algorithm>
#include <cmath>

#include "src/common/rng.h"

namespace ow {
namespace {

constexpr std::uint32_t kWorkerBase = 0x0AC80001u;  // 10.200.0.1...
constexpr std::uint32_t kServerIp = 0x0AC800FFu;    // 10.200.0.255

constexpr std::uint64_t kSeed = 7;
constexpr double kCompressStart = 2;  ///< initial compression ratio
constexpr std::size_t kCompressDoubleEvery = 16;
constexpr double kCompressMax = 2048;
constexpr double kLinkGbps = 10;             ///< worker uplink
constexpr Nanos kComputeTime = 3 * kMilli;   ///< fwd/bwd pass per iteration
constexpr Nanos kComputeJitter = 500 * kMicro;
constexpr std::uint16_t kMtuPayload = 1400;  ///< gradient bytes per packet

}  // namespace

DmlWorkload::DmlWorkload(DmlConfig cfg) : cfg_(cfg) {}

double DmlWorkload::RatioAt(std::size_t iteration) const {
  const double ratio =
      kCompressStart * std::pow(2.0, double(iteration / kCompressDoubleEvery));
  return std::min(ratio, kCompressMax);
}

Trace DmlWorkload::Generate() {
  Rng rng(kSeed);
  Trace trace;
  truth_.iteration_times.assign(std::size_t(cfg_.workers), {});
  truth_.compression_ratio.clear();

  const double bytes_per_ns = kLinkGbps / 8.0;  // Gbps -> B/ns
  std::vector<Nanos> worker_time(std::size_t(cfg_.workers), 0);

  for (std::size_t it = 0; it < cfg_.iterations; ++it) {
    const double ratio = RatioAt(it);
    truth_.compression_ratio.push_back(ratio);
    const std::size_t volume =
        std::size_t(double(cfg_.gradient_bytes) / ratio);
    const std::size_t packets =
        std::max<std::size_t>(1, (volume + kMtuPayload - 1) / kMtuPayload);
    for (int w = 0; w < cfg_.workers; ++w) {
      // Compute phase, then stream the gradient.
      worker_time[std::size_t(w)] +=
          kComputeTime + Nanos(rng.Uniform(std::uint64_t(kComputeJitter)));
      const Nanos start = worker_time[std::size_t(w)];
      const Nanos per_packet = Nanos(double(kMtuPayload) / bytes_per_ns);
      Nanos t = start;
      for (std::size_t k = 0; k < packets; ++k) {
        Packet p;
        p.ft = {kWorkerBase + std::uint32_t(w), kServerIp,
                std::uint16_t(50'000 + w), 9999, 17};
        p.size_bytes = kMtuPayload;
        p.ts = t;
        p.seq = std::uint32_t(k);
        p.iteration = std::uint32_t(it);
        trace.packets.push_back(p);
        t += per_packet;
      }
      const Nanos end = t - per_packet;
      truth_.iteration_times[std::size_t(w)].push_back(end - start);
      worker_time[std::size_t(w)] = t;
    }
  }
  trace.SortByTime();
  return trace;
}

}  // namespace ow
