// Unit tests for src/common: hashing, flow keys, RNG, Zipf, metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <unordered_set>
#include <vector>

#include "src/common/flowkey.h"
#include "src/common/hash.h"
#include "src/common/metrics.h"
#include "src/common/packet.h"
#include "src/common/rng.h"
#include "src/common/zipf.h"

namespace ow {
namespace {

TEST(Hash, DeterministicAndSeedSensitive) {
  const std::uint8_t data[] = {1, 2, 3, 4, 5};
  const auto h1 = HashBytes(data, 42);
  const auto h2 = HashBytes(data, 42);
  const auto h3 = HashBytes(data, 43);
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, h3);
}

TEST(Hash, LengthSensitive) {
  const std::uint8_t a[] = {0, 0, 0, 0};
  const std::uint8_t b[] = {0, 0, 0, 0, 0};
  EXPECT_NE(HashBytes(a, 1), HashBytes(b, 1));
}

TEST(Hash, AvalancheOnSingleBitFlip) {
  std::uint8_t data[8] = {0};
  const auto base = HashBytes(data, 7);
  data[3] ^= 0x10;
  const auto flipped = HashBytes(data, 7);
  // At least a quarter of the bits should differ for a decent mixer.
  EXPECT_GE(std::popcount(base ^ flipped), 16);
}

TEST(HashFamily, IndependentFunctions) {
  HashFamily family(4, 99);
  const std::uint8_t data[] = {9, 9, 9};
  std::set<std::uint64_t> values;
  for (std::size_t i = 0; i < family.size(); ++i) {
    values.insert(family(i, data));
  }
  EXPECT_EQ(values.size(), 4u);
}

TEST(HashFamily, IndexWithinRange) {
  HashFamily family(3, 7);
  for (std::uint32_t v = 0; v < 1000; ++v) {
    const std::uint8_t* bytes = reinterpret_cast<const std::uint8_t*>(&v);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_LT(family.Index(i, std::span(bytes, 4), 17), 17u);
    }
  }
}

TEST(FlowKey, FiveTupleRoundTrip) {
  FiveTuple t{0x0A000001, 0x0A000002, 1234, 80, 6};
  FlowKey k(FlowKeyKind::kFiveTuple, t);
  EXPECT_EQ(k.bytes().size(), 13u);
  EXPECT_EQ(k.src_ip(), t.src_ip);
  EXPECT_EQ(k.dst_ip(), t.dst_ip);
}

TEST(FlowKey, ProjectionsDropFields) {
  FiveTuple a{0x0A000001, 0x0A000002, 1234, 80, 6};
  FiveTuple b{0x0A000001, 0x0A000003, 999, 443, 17};
  EXPECT_EQ(FlowKey(FlowKeyKind::kSrcIp, a), FlowKey(FlowKeyKind::kSrcIp, b));
  EXPECT_NE(FlowKey(FlowKeyKind::kDstIp, a), FlowKey(FlowKeyKind::kDstIp, b));
  EXPECT_NE(FlowKey(FlowKeyKind::kFiveTuple, a),
            FlowKey(FlowKeyKind::kFiveTuple, b));
}

TEST(FlowKey, DifferentKindsNeverEqual) {
  FiveTuple t{0x0A000001, 0x0A000001, 0, 0, 0};
  EXPECT_NE(FlowKey(FlowKeyKind::kSrcIp, t), FlowKey(FlowKeyKind::kDstIp, t));
}

TEST(FlowKey, FromRawRoundTrip) {
  FiveTuple t{0xC0A80101, 0x0A000002, 53, 53, 17};
  FlowKey k(FlowKeyKind::kFiveTuple, t);
  FlowKey r = FlowKey::FromRaw(k.kind(), k.bytes());
  EXPECT_EQ(k, r);
}

TEST(FlowKey, UsableAsUnorderedMapKey) {
  std::unordered_set<FlowKey, FlowKeyHasher> set;
  FiveTuple t{1, 2, 3, 4, 6};
  set.insert(FlowKey(FlowKeyKind::kFiveTuple, t));
  set.insert(FlowKey(FlowKeyKind::kFiveTuple, t));
  EXPECT_EQ(set.size(), 1u);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(11), b(11), c(12);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(Rng, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.Uniform(7), 7u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(5);
  double sum = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.2);
}

TEST(Rng, BernoulliRate) {
  Rng rng(9);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(double(hits) / n, 0.3, 0.01);
}

TEST(Zipf, RejectsBadArguments) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, 0.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, std::nan("")), std::invalid_argument);
}

TEST(Zipf, SkewTowardLowRanks) {
  ZipfSampler zipf(1000, 1.0);
  Rng rng(3);
  std::size_t low = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(rng) < 10) ++low;
  }
  // Top-10 ranks of Zipf(1.0, 1000) carry ~39% of the mass.
  EXPECT_GT(double(low) / n, 0.3);
  EXPECT_LT(double(low) / n, 0.5);
}

TEST(Zipf, RankOfEqualsLowerBoundOverTheCdf) {
  // The guide table may only narrow the search, never change its answer:
  // probe 0, every bucket edge k/n and its neighbours, every CDF value and
  // its neighbours, and the largest double below 1.
  for (const std::size_t n : {1, 2, 3, 1000, 20000}) {
    for (const double alpha : {0.5, 1.0, 1.2, 2.0}) {
      const ZipfSampler zipf(n, alpha);
      const std::vector<double>& cdf = zipf.cdf();
      ASSERT_EQ(cdf.size(), n);
      std::vector<double> probes = {0.0, std::nextafter(1.0, 0.0)};
      const auto add_around = [&probes](double u) {
        probes.push_back(std::nextafter(u, 0.0));
        probes.push_back(u);
        probes.push_back(std::nextafter(u, 1.0));
      };
      for (std::size_t k = 0; k <= n; ++k) add_around(double(k) / double(n));
      for (const double c : cdf) add_around(c);
      for (const double u : probes) {
        if (u < 0.0 || u >= 1.0) continue;
        const auto expected = std::size_t(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        ASSERT_EQ(zipf.RankOf(u), expected)
            << "n=" << n << " alpha=" << alpha << " u=" << u;
      }
    }
  }
}

TEST(Zipf, SampleIsRankOfTheNextDouble) {
  const ZipfSampler zipf(20000, 1.0);
  Rng draws(11), uniforms(11);
  for (int i = 0; i < 100'000; ++i) {
    const double u = uniforms.NextDouble();
    const auto expected = std::size_t(
        std::lower_bound(zipf.cdf().begin(), zipf.cdf().end(), u) -
        zipf.cdf().begin());
    ASSERT_EQ(zipf.Sample(draws), expected) << "draw " << i;
  }
}

TEST(Zipf, PmfSumsToOne) {
  ZipfSampler zipf(500, 1.2);
  double sum = 0;
  for (std::size_t i = 0; i < 500; ++i) sum += zipf.Pmf(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Metrics, PrecisionRecallBasics) {
  FiveTuple t1{1, 0, 0, 0, 0}, t2{2, 0, 0, 0, 0}, t3{3, 0, 0, 0, 0};
  FlowSet actual{FlowKey(FlowKeyKind::kSrcIp, t1),
                 FlowKey(FlowKeyKind::kSrcIp, t2)};
  FlowSet reported{FlowKey(FlowKeyKind::kSrcIp, t1),
                   FlowKey(FlowKeyKind::kSrcIp, t3)};
  const auto pr = ComputePrecisionRecall(reported, actual);
  EXPECT_DOUBLE_EQ(pr.precision, 0.5);
  EXPECT_DOUBLE_EQ(pr.recall, 0.5);
  EXPECT_EQ(pr.true_positives, 1u);
}

TEST(Metrics, EmptySetsArePerfect) {
  const auto pr = ComputePrecisionRecall({}, {});
  EXPECT_DOUBLE_EQ(pr.precision, 1.0);
  EXPECT_DOUBLE_EQ(pr.recall, 1.0);
}

// Pins the empty-set convention documented on ComputePrecisionRecall for
// all four empty/non-empty combinations (the empty-report arm used to be a
// dead ternary that returned 1.0 either way).
TEST(Metrics, PrecisionRecallEmptyConventions) {
  const FlowSet some{FlowKey(FlowKeyKind::kSrcIp, FiveTuple{1, 0, 0, 0, 0})};

  // Empty report, non-empty truth: nothing claimed falsely, everything
  // missed.
  auto pr = ComputePrecisionRecall({}, some);
  EXPECT_DOUBLE_EQ(pr.precision, 1.0);
  EXPECT_DOUBLE_EQ(pr.recall, 0.0);
  EXPECT_DOUBLE_EQ(pr.F1(), 0.0);

  // Non-empty report, empty truth: every claim false, nothing to find.
  pr = ComputePrecisionRecall(some, {});
  EXPECT_DOUBLE_EQ(pr.precision, 0.0);
  EXPECT_DOUBLE_EQ(pr.recall, 1.0);

  // Both empty: perfect. Both non-empty and equal: perfect.
  pr = ComputePrecisionRecall({}, {});
  EXPECT_DOUBLE_EQ(pr.precision, 1.0);
  EXPECT_DOUBLE_EQ(pr.recall, 1.0);
  pr = ComputePrecisionRecall(some, some);
  EXPECT_DOUBLE_EQ(pr.precision, 1.0);
  EXPECT_DOUBLE_EQ(pr.recall, 1.0);
  EXPECT_EQ(pr.true_positives, 1u);
}

TEST(Metrics, AverageRelativeError) {
  FiveTuple t1{1, 0, 0, 0, 0}, t2{2, 0, 0, 0, 0};
  FlowCounts truth{{FlowKey(FlowKeyKind::kSrcIp, t1), 100},
                   {FlowKey(FlowKeyKind::kSrcIp, t2), 200}};
  FlowCounts est{{FlowKey(FlowKeyKind::kSrcIp, t1), 110},
                 {FlowKey(FlowKeyKind::kSrcIp, t2), 180}};
  EXPECT_NEAR(AverageRelativeError(est, truth), (0.1 + 0.1) / 2, 1e-9);
}

}  // namespace
}  // namespace ow
