// Unit tests for robust estimators (MAD, trimmed/winsorized means,
// Hampel filter).

#include "stats/robust.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "stats/descriptive.hpp"
#include "stats/rng.hpp"
#include "util/expects.hpp"

namespace pv {
namespace {

TEST(Robust, MadOfConstantSampleIsZero) {
  const std::vector<double> xs(20, 5.0);
  EXPECT_DOUBLE_EQ(median_abs_deviation(xs), 0.0);
}

TEST(Robust, MadEstimatesSigmaForNormalData) {
  Rng rng(1);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.normal(100.0, 7.0);
  EXPECT_NEAR(median_abs_deviation(xs), 7.0, 0.3);
  // Unscaled MAD is the raw median deviation (consistency factor
  // 1/Phi^-1(3/4) ~= 1.4826).
  EXPECT_NEAR(median_abs_deviation(xs, false) * 1.4826,
              median_abs_deviation(xs), 1e-4);
}

TEST(Robust, MadIgnoresGrossOutliers) {
  Rng rng(2);
  std::vector<double> xs(1000);
  for (auto& x : xs) x = rng.normal(100.0, 5.0);
  const double before = median_abs_deviation(xs);
  for (int i = 0; i < 50; ++i) xs[static_cast<std::size_t>(i)] = 1e6;
  EXPECT_NEAR(median_abs_deviation(xs), before, 1.0);
}

TEST(Robust, TrimmedMeanDropsTails) {
  // 1..10 plus one huge outlier.
  std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1e9};
  const double tm = trimmed_mean(xs, 0.1);  // drops 1 low, 1 high
  EXPECT_NEAR(tm, (2 + 3 + 4 + 5 + 6 + 7 + 8 + 9 + 10) / 9.0, 1e-12);
  // Zero trim reduces to the plain mean.
  const std::vector<double> ys{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(trimmed_mean(ys, 0.0), 2.5);
}

TEST(Robust, WinsorizedMeanClampsTails) {
  std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 1e9};
  // cut = 1: clamp to [2, 9]; the 1e9 becomes 9 and the 1 becomes 2.
  const double wm = winsorized_mean(xs, 0.1);
  EXPECT_NEAR(wm, (2 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9 + 9) / 10.0, 1e-12);
}

TEST(Robust, EstimatorsRejectBadArguments) {
  const std::vector<double> xs{1, 2, 3};
  EXPECT_THROW(trimmed_mean(xs, 0.5), contract_error);
  EXPECT_THROW(winsorized_mean(xs, -0.1), contract_error);
  EXPECT_THROW(median_abs_deviation({}), contract_error);
  EXPECT_THROW(hampel_filter({}), contract_error);
}

TEST(Robust, HampelReplacesIsolatedSpikes) {
  Rng rng(3);
  std::vector<double> xs(500);
  for (auto& x : xs) x = rng.normal(400.0, 2.0);
  xs[100] = 4000.0;
  xs[350] = 0.0;
  const HampelResult r = hampel_filter(xs, 5, 3.0);
  EXPECT_EQ(r.outlier[100], 1);
  EXPECT_EQ(r.outlier[350], 1);
  EXPECT_NEAR(r.filtered[100], 400.0, 10.0);
  EXPECT_NEAR(r.filtered[350], 400.0, 10.0);
  EXPECT_GE(r.outlier_count, 2u);
  // Clean samples dominate: very few false positives at 3 sigma.
  EXPECT_LT(r.outlier_count, 20u);
}

TEST(Robust, HampelLeavesCleanSignalAlone) {
  // A smooth ramp has no outliers.
  std::vector<double> xs(200);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = 100.0 + 0.5 * static_cast<double>(i);
  }
  const HampelResult r = hampel_filter(xs, 5, 3.0);
  EXPECT_EQ(r.outlier_count, 0u);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.filtered[i], xs[i]);
  }
}

TEST(Robust, HampelFlagsGlitchOnLocallyConstantSignal) {
  // Zero-MAD window: any deviation is an outlier (stuck sensor + glitch).
  std::vector<double> xs(50, 250.0);
  xs[25] = 251.0;
  const HampelResult r = hampel_filter(xs, 5, 3.0);
  EXPECT_EQ(r.outlier[25], 1);
  EXPECT_DOUBLE_EQ(r.filtered[25], 250.0);
}

TEST(Mad, SelectionMatchesTheSortedMedianDefinition) {
  // Reference: median(|x - median(x)|) through the sorting median(), with
  // ties (every seventh value) so both middle order statistics repeat.
  Rng rng(8);
  std::vector<double> scratch;
  for (std::size_t n = 1; n < 60; ++n) {
    std::vector<double> xs;
    for (std::size_t i = 0; i < n; ++i) {
      xs.push_back(i % 7 == 3 ? 0.25 : rng.normal(1.0, 0.5));
    }
    const double med = median(xs);
    std::vector<double> dev;
    for (double x : xs) dev.push_back(std::fabs(x - med));
    const double raw = median(dev);
    for (const bool consistent : {true, false}) {
      const double expected = consistent ? 1.4826022185056018 * raw : raw;
      const double got = median_abs_deviation(xs, scratch, consistent);
      EXPECT_EQ(std::memcmp(&expected, &got, sizeof got), 0) << "n " << n;
    }
  }
}

}  // namespace
}  // namespace pv
