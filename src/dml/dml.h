// Distributed machine learning workload model (Exp#3, §9.2 case study).
//
// Stand-in for the paper's VGG19/CIFAR-10 parameter-server testbed: a
// cluster of worker hosts pushes gradients to a server each iteration, with
// a dynamic compression ratio that starts at 2 and doubles every 16
// iterations up to 2048 — so per-iteration traffic (and hence iteration
// time) shrinks in steps, the sawtooth Figure 9 shows. Every packet embeds
// its iteration number, which OmniWindow's user-defined signal turns into
// one window per iteration.
#pragma once

#include <cstdint>
#include <vector>

#include "src/trace/trace.h"

namespace ow {

struct DmlConfig {
  int workers = 3;                     ///< plus one server host
  std::size_t iterations = 96;
  /// Uncompressed gradient volume per worker per iteration.
  std::size_t gradient_bytes = 4 << 20;
};

struct DmlGroundTruth {
  /// iteration_times[w][i] = time worker w spent transmitting iteration i
  /// (first to last packet).
  std::vector<std::vector<Nanos>> iteration_times;
  std::vector<double> compression_ratio;  ///< per iteration
};

class DmlWorkload {
 public:
  explicit DmlWorkload(DmlConfig cfg);

  /// Generate the PS traffic trace (time sorted, iteration numbers
  /// embedded) and the per-iteration ground truth.
  Trace Generate();

  const DmlGroundTruth& truth() const noexcept { return truth_; }
  const DmlConfig& config() const noexcept { return cfg_; }

  /// Compression ratio in effect at `iteration`.
  double RatioAt(std::size_t iteration) const;

 private:
  DmlConfig cfg_;
  DmlGroundTruth truth_;
};

}  // namespace ow
