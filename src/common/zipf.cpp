#include "src/common/zipf.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ow {

ZipfSampler::ZipfSampler(std::size_t n, double alpha) : alpha_(alpha) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be > 0");
  if (!(alpha > 0)) {  // NaN too
    throw std::invalid_argument("ZipfSampler: alpha must be > 0");
  }
  cdf_.resize(n);
  double acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += std::pow(static_cast<double>(i + 1), -alpha);
    cdf_[i] = acc;
  }
  norm_ = acc;
  for (auto& c : cdf_) c /= norm_;
  cdf_.back() = 1.0;  // guard against FP round-off at the top

  // The CDF is non-decreasing and BucketOf is monotone, so the ranks fall
  // into buckets in order.
  guide_.resize(n + 1);
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t b = BucketOf(cdf_[i]);
    while (k <= b) guide_[k++] = i;
  }
  while (k <= n) guide_[k++] = n;
}

std::size_t ZipfSampler::BucketOf(double u) const noexcept {
  return std::min(static_cast<std::size_t>(u * static_cast<double>(n())),
                  n() - 1);
}

std::size_t ZipfSampler::RankOf(double u) const {
  // With k = BucketOf(u): every rank before guide_[k] has a CDF value in a
  // lower bucket, hence below u; every rank from guide_[k + 1] on has one in
  // a higher bucket, hence >= u (BucketOf is monotone). So the answer lies
  // in [guide_[k], guide_[k + 1]], and a search of that range alone returns
  // what a search of the whole CDF would.
  const std::size_t k = BucketOf(u);
  const auto first = cdf_.begin() + std::ptrdiff_t(guide_[k]);
  const auto last = cdf_.begin() + std::ptrdiff_t(guide_[k + 1]);
  return static_cast<std::size_t>(std::lower_bound(first, last, u) -
                                  cdf_.begin());
}

double ZipfSampler::Pmf(std::size_t rank) const {
  return std::pow(static_cast<double>(rank + 1), -alpha_) / norm_;
}

}  // namespace ow
