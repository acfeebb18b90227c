// Zipf sampler for heavy-tailed flow populations.
//
// Real data-center traces (the paper uses CAIDA) have a small number of very
// large flows and a long tail of mice; a Zipf(alpha) rank distribution is the
// standard synthetic stand-in. The sampler precomputes the normalized CDF
// once and answers each draw by inverting it. A guide table (one entry per
// 1/n of [0, 1)) narrows the search to the CDF entries of the draw's bucket,
// so a draw costs O(1) expected instead of a binary search over all n.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/rng.h"

namespace ow {

class ZipfSampler {
 public:
  /// Distribution over ranks [0, n) with exponent `alpha` (> 0). alpha≈1.0
  /// approximates packet-per-flow skew in WAN traces.
  ZipfSampler(std::size_t n, double alpha);

  /// Draw a rank; rank 0 is the most popular.
  std::size_t Sample(Rng& rng) const { return RankOf(rng.NextDouble()); }

  /// The rank a uniform draw `u` in [0, 1) maps to: the first rank whose
  /// CDF value is >= u, exactly what std::lower_bound over cdf() returns.
  std::size_t RankOf(double u) const;

  std::size_t n() const noexcept { return cdf_.size(); }

  /// Normalized CDF: cdf()[i] is the mass of ranks [0, i]; the last is 1.
  const std::vector<double>& cdf() const noexcept { return cdf_; }

  /// Probability mass of a given rank.
  double Pmf(std::size_t rank) const;

 private:
  /// Guide bucket of `u`: floor(u * n), clamped to n - 1. Monotone in u,
  /// which is all RankOf's exactness rests on.
  std::size_t BucketOf(double u) const noexcept;

  std::vector<double> cdf_;
  /// guide_[k] is the first rank whose CDF value falls in a bucket >= k
  /// (n + 1 entries; guide_[n] == n).
  std::vector<std::size_t> guide_;
  double alpha_;
  double norm_;
};

}  // namespace ow
