#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>

#include "util/expects.hpp"

namespace pv {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n_total = na + nb;
  mean_ += delta * nb / n_total;
  m2_ += other.m2_ + delta * delta * na * nb / n_total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::mean() const {
  PV_EXPECTS(n_ > 0, "mean of empty accumulator");
  return mean_;
}

double RunningStats::variance() const {
  PV_EXPECTS(n_ >= 2, "sample variance needs n >= 2");
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::population_variance() const {
  PV_EXPECTS(n_ >= 1, "population variance needs n >= 1");
  return m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::cv() const {
  PV_EXPECTS(n_ >= 2, "cv needs n >= 2");
  PV_EXPECTS(mean_ != 0.0, "cv undefined for zero mean");
  return stddev() / std::fabs(mean_);
}

double RunningStats::min() const {
  PV_EXPECTS(n_ > 0, "min of empty accumulator");
  return min_;
}

double RunningStats::max() const {
  PV_EXPECTS(n_ > 0, "max of empty accumulator");
  return max_;
}

double RunningStats::sum() const { return sum_; }

Summary summarize(std::span<const double> xs) {
  PV_EXPECTS(!xs.empty(), "summarize of empty sample");
  RunningStats acc;
  for (double x : xs) acc.add(x);
  Summary s;
  s.count = acc.count();
  s.mean = acc.mean();
  s.stddev = acc.count() >= 2 ? acc.stddev() : 0.0;
  s.cv = (s.mean != 0.0) ? s.stddev / std::fabs(s.mean) : 0.0;
  s.min = acc.min();
  s.max = acc.max();
  s.sum = acc.sum();
  return s;
}

double quantile(std::span<const double> xs, double q) {
  PV_EXPECTS(!xs.empty(), "quantile of empty sample");
  PV_EXPECTS(q >= 0.0 && q <= 1.0, "quantile level outside [0,1]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double h = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = h - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double median_in_place(std::span<double> xs) {
  PV_EXPECTS(!xs.empty(), "quantile of empty sample");
  if (xs.size() == 1) return xs.front();
  // quantile()'s type-7 expression at q = 0.5 on the two order statistics
  // it reads, found by selection instead of a full sort.  Those values
  // are fixed by the multiset; only the signs of tied zeros may land
  // differently, and the expression maps every zero pair to +0 either way.
  const double h = 0.5 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const double frac = h - static_cast<double>(lo);
  const auto mid = xs.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(xs.begin(), mid, xs.end());
  const double a = *mid;
  const double b = *std::min_element(mid + 1, xs.end());
  return a + frac * (b - a);
}

double skewness(std::span<const double> xs) {
  PV_EXPECTS(xs.size() >= 3, "skewness needs n >= 3");
  const Summary s = summarize(xs);
  PV_EXPECTS(s.stddev > 0.0, "skewness undefined for constant sample");
  const double n = static_cast<double>(xs.size());
  double m3 = 0.0;
  for (double x : xs) {
    const double d = x - s.mean;
    m3 += d * d * d;
  }
  m3 /= n;
  const double g1 = m3 / std::pow(s.stddev * std::sqrt((n - 1.0) / n), 3.0);
  return std::sqrt(n * (n - 1.0)) / (n - 2.0) * g1;
}

double excess_kurtosis(std::span<const double> xs) {
  PV_EXPECTS(xs.size() >= 4, "kurtosis needs n >= 4");
  const Summary s = summarize(xs);
  PV_EXPECTS(s.stddev > 0.0, "kurtosis undefined for constant sample");
  const double n = static_cast<double>(xs.size());
  double m2 = 0.0, m4 = 0.0;
  for (double x : xs) {
    const double d = x - s.mean;
    m2 += d * d;
    m4 += d * d * d * d;
  }
  m2 /= n;
  m4 /= n;
  const double g2 = m4 / (m2 * m2) - 3.0;
  return ((n + 1.0) * g2 + 6.0) * (n - 1.0) / ((n - 2.0) * (n - 3.0));
}

}  // namespace pv
