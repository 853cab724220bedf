// Unit tests for descriptive statistics.

#include "stats/descriptive.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "stats/rng.hpp"
#include "util/expects.hpp"

namespace pv {
namespace {

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.population_variance(), 4.0, 1e-12);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, CvMatchesDefinition) {
  RunningStats s;
  for (double x : {90.0, 110.0}) s.add(x);
  // mean 100, sample sd = sqrt(200) = 14.142...
  EXPECT_NEAR(s.cv(), std::sqrt(200.0) / 100.0, 1e-12);
}

TEST(RunningStats, EmptyAndSmallGuards) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.mean(), contract_error);
  EXPECT_THROW(s.min(), contract_error);
  s.add(1.0);
  EXPECT_THROW(s.variance(), contract_error);
  EXPECT_NO_THROW(s.population_variance());
}

TEST(RunningStats, MergeEqualsBulk) {
  Rng rng(3);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(10.0, 2.0);
    all.add(x);
    (i % 3 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a, b;
  a.add(5.0);
  a.merge(b);  // merging empty changes nothing
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);  // merging into empty copies
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 5.0);
}

TEST(Summarize, MatchesRunningStats) {
  const std::vector<double> xs{581.0, 583.5, 580.2, 584.1, 582.2};
  const Summary s = summarize(xs);
  RunningStats r;
  for (double x : xs) r.add(x);
  EXPECT_DOUBLE_EQ(s.mean, r.mean());
  EXPECT_DOUBLE_EQ(s.stddev, r.stddev());
  EXPECT_DOUBLE_EQ(s.cv, r.cv());
  EXPECT_DOUBLE_EQ(s.min, r.min());
  EXPECT_DOUBLE_EQ(s.max, r.max());
  EXPECT_EQ(s.count, xs.size());
}

TEST(Summarize, SingleElement) {
  const std::vector<double> xs{42.0};
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.mean, 42.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.cv, 0.0);
}

TEST(Quantile, Type7Interpolation) {
  const std::vector<double> xs{3.0, 1.0, 4.0, 2.0};  // sorted: 1 2 3 4
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(Quantile, DomainChecks) {
  const std::vector<double> xs{1.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.7), 1.0);
  EXPECT_THROW(quantile(xs, 1.5), contract_error);
  EXPECT_THROW(quantile(std::vector<double>{}, 0.5), contract_error);
}

TEST(Skewness, SymmetricSampleNearZero) {
  Rng rng(17);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.normal();
  EXPECT_NEAR(skewness(xs), 0.0, 0.05);
}

TEST(Skewness, RightSkewedPositive) {
  Rng rng(19);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = std::exp(rng.normal());  // log-normal
  EXPECT_GT(skewness(xs), 1.0);
}

TEST(Kurtosis, NormalNearZeroHeavyTailsPositive) {
  Rng rng(23);
  std::vector<double> gauss(40000), heavy(40000);
  for (auto& x : gauss) x = rng.normal();
  for (auto& x : heavy) {
    // 5% contamination with a wide component -> leptokurtic.
    x = rng.bernoulli(0.05) ? rng.normal(0.0, 5.0) : rng.normal();
  }
  EXPECT_NEAR(excess_kurtosis(gauss), 0.0, 0.15);
  EXPECT_GT(excess_kurtosis(heavy), 1.0);
}

TEST(Moments, GuardsOnDegenerateInput) {
  const std::vector<double> constant{5.0, 5.0, 5.0, 5.0};
  EXPECT_THROW(skewness(constant), contract_error);
  EXPECT_THROW(excess_kurtosis(constant), contract_error);
  const std::vector<double> two{1.0, 2.0};
  EXPECT_THROW(skewness(two), contract_error);
}

TEST(MedianInPlace, BitIdenticalToMedianIncludingSignedZeros) {
  // Selection instead of a sort: ties, negative and positive zeros and
  // both parities must still give median()'s exact bits.
  Rng rng(21);
  const double pool[] = {-0.0, 0.0, 1.5, -2.25, 3.0, -0.0, 0.0, 1e-300};
  std::vector<double> xs;
  std::vector<double> scratch;
  for (int trial = 0; trial < 2000; ++trial) {
    xs.clear();
    const auto n = 1 + static_cast<std::size_t>(rng.uniform() * 23.0);
    for (std::size_t i = 0; i < n; ++i) {
      xs.push_back(rng.uniform() < 0.6
                       ? pool[static_cast<std::size_t>(rng.uniform() * 8.0)]
                       : rng.normal(0.0, 1.0));
    }
    scratch = xs;
    const double expected = median(xs);
    const double got = median_in_place(scratch);
    EXPECT_EQ(std::memcmp(&expected, &got, sizeof got), 0)
        << "trial " << trial << ": " << expected << " vs " << got;
  }
  std::vector<double> empty;
  EXPECT_THROW((void)median_in_place(empty), contract_error);
}

}  // namespace
}  // namespace pv
