#include "src/net/ptp.h"

#include <cmath>

namespace ow {
namespace {

/// Exchange period (the PTP default of about 8 per second).
constexpr Nanos kSyncInterval = 125 * kMilli;

}  // namespace

Nanos PtpSync::ExchangeEstimate(Nanos true_offset) {
  // Load-dependent queueing on the forward (master -> slave) and reverse
  // paths. PTP computes offset = ((t2 - t1) - (t4 - t3)) / 2 =
  // true_offset + (d_fwd - d_rev) / 2, so a symmetric propagation delay
  // cancels and only the queueing is modeled.
  const Nanos d_fwd = Nanos(
      rng_.Exponential(double(cfg_.queue_jitter) * cfg_.load_asymmetry));
  const Nanos d_rev = Nanos(rng_.Exponential(
      double(cfg_.queue_jitter) * (1.0 - cfg_.load_asymmetry)));
  return true_offset + (d_fwd - d_rev) / 2;
}

std::vector<Nanos> PtpSync::ResidualOffsets(std::size_t exchanges,
                                            double drift_ppm) {
  std::vector<Nanos> residuals;
  residuals.reserve(exchanges);
  Nanos offset = 0;
  for (std::size_t i = 0; i < exchanges; ++i) {
    // Clock drifts between syncs.
    offset += Nanos(double(kSyncInterval) * drift_ppm * 1e-6);
    // The sync corrects by the (erroneous) estimate.
    const Nanos estimate = ExchangeEstimate(offset);
    offset -= estimate;
    residuals.push_back(offset < 0 ? -offset : offset);
  }
  return residuals;
}

}  // namespace ow
