#pragma once
// Descriptive statistics: a numerically stable streaming accumulator
// (Welford) and batch helpers over spans.
//
// The paper's central quantity is the coefficient of variation sigma/mu of
// per-node power (Table 4); RunningStats::cv() computes it with the
// *sample* standard deviation (n-1 denominator), matching the paper's use
// of sigma-hat in Equations 1-5.

#include <cstddef>
#include <span>
#include <vector>

namespace pv {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  /// Merges another accumulator (parallel reduction; Chan et al. update).
  void merge(const RunningStats& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] double mean() const;
  /// Sample variance (n-1 denominator); requires count() >= 2.
  [[nodiscard]] double variance() const;
  /// Population variance (n denominator); requires count() >= 1.
  [[nodiscard]] double population_variance() const;
  [[nodiscard]] double stddev() const;
  /// Coefficient of variation sigma-hat / mu-hat; mean must be nonzero.
  [[nodiscard]] double cv() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Batch summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample (n-1) standard deviation; 0 for n < 2
  double cv = 0.0;      ///< stddev / mean (0 when mean == 0)
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
};

/// Summarizes a non-empty sample.
[[nodiscard]] Summary summarize(std::span<const double> xs);

/// Linear-interpolated quantile of a sample, q in [0, 1] (type-7, the
/// default of R/NumPy).  The input need not be sorted.
[[nodiscard]] double quantile(std::span<const double> xs, double q);

/// Median shorthand.
[[nodiscard]] double median(std::span<const double> xs);

/// median() by selection, permuting `xs` in place: O(n), no allocation,
/// and the same bits median() returns for any NaN-free sample.  Hot
/// loops pass a reused scratch buffer.
[[nodiscard]] double median_in_place(std::span<double> xs);

/// Sample skewness (adjusted Fisher–Pearson); requires n >= 3.
[[nodiscard]] double skewness(std::span<const double> xs);

/// Excess kurtosis; requires n >= 4.
[[nodiscard]] double excess_kurtosis(std::span<const double> xs);

}  // namespace pv
