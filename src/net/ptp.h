// PTP synchronization model (paper §2, C2).
//
// The paper's consistency model exists because PTP's residual clock offset
// varies with network load: the offset estimate a two-way exchange
// produces, (t2 - t1 - t4 + t3) / 2, is exact only when the forward and
// reverse one-way delays match; queueing asymmetry shifts it by half the
// delay difference. PtpSync simulates periodic exchanges over a jittered
// path and yields the residual offset a PTP-disciplined clock would carry
// — used to justify the deviation sweep of Exp#9 with a mechanism rather
// than a hand-picked constant.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"

namespace ow {

struct PtpConfig {
  Nanos queue_jitter = 20 * kMicro;///< exponential queueing delay mean
  double load_asymmetry = 0.5;     ///< fraction of jitter on the forward path
};

class PtpSync {
 public:
  PtpSync(PtpConfig cfg, std::uint64_t seed = 0x3712C10Cull)
      : cfg_(cfg), rng_(seed) {}

  /// Simulate one two-way exchange given the slave's true offset; returns
  /// the offset ESTIMATE the exchange produces (true offset plus the
  /// asymmetry error).
  Nanos ExchangeEstimate(Nanos true_offset);

  /// Run `exchanges` sync rounds against a drifting clock and return the
  /// residual offsets after each correction (what the local clock is off by
  /// between syncs).
  std::vector<Nanos> ResidualOffsets(std::size_t exchanges,
                                     double drift_ppm = 10.0);

  const PtpConfig& config() const noexcept { return cfg_; }

 private:
  PtpConfig cfg_;
  Rng rng_;
};

}  // namespace ow
