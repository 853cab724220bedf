#include "stats/robust.hpp"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.hpp"
#include "util/expects.hpp"

namespace pv {
namespace {

// Consistency factor making the MAD estimate sigma for normal data:
// 1 / Phi^{-1}(3/4).
constexpr double kMadToSigma = 1.4826022185056018;

// Median of an already-sorted range [first, last).
double sorted_median(const std::vector<double>& xs, std::size_t first,
                     std::size_t last) {
  const std::size_t n = last - first;
  const std::size_t mid = first + n / 2;
  return (n % 2 == 1) ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

}  // namespace

double median_abs_deviation(std::span<const double> xs,
                            bool normal_consistent) {
  std::vector<double> scratch;
  return median_abs_deviation(xs, scratch, normal_consistent);
}

double median_abs_deviation(std::span<const double> xs,
                            std::vector<double>& scratch,
                            bool normal_consistent) {
  PV_EXPECTS(!xs.empty(), "MAD of empty sample");
  scratch.assign(xs.begin(), xs.end());
  const double med = median_in_place(scratch);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    scratch[i] = std::fabs(xs[i] - med);
  }
  const double mad = median_in_place(scratch);
  return normal_consistent ? kMadToSigma * mad : mad;
}

double trimmed_mean(std::span<const double> xs, double trim_frac) {
  PV_EXPECTS(!xs.empty(), "trimmed mean of empty sample");
  PV_EXPECTS(trim_frac >= 0.0 && trim_frac < 0.5,
             "trim fraction must be in [0, 0.5)");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const auto cut = static_cast<std::size_t>(
      std::floor(trim_frac * static_cast<double>(sorted.size())));
  double sum = 0.0;
  for (std::size_t i = cut; i < sorted.size() - cut; ++i) sum += sorted[i];
  return sum / static_cast<double>(sorted.size() - 2 * cut);
}

double winsorized_mean(std::span<const double> xs, double trim_frac) {
  PV_EXPECTS(!xs.empty(), "winsorized mean of empty sample");
  PV_EXPECTS(trim_frac >= 0.0 && trim_frac < 0.5,
             "trim fraction must be in [0, 0.5)");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const auto cut = static_cast<std::size_t>(
      std::floor(trim_frac * static_cast<double>(sorted.size())));
  const double lo = sorted[cut];
  const double hi = sorted[sorted.size() - 1 - cut];
  double sum = 0.0;
  for (double x : sorted) sum += std::clamp(x, lo, hi);
  return sum / static_cast<double>(sorted.size());
}

HampelResult hampel_filter(std::span<const double> xs,
                           std::size_t half_window, double n_sigmas) {
  PV_EXPECTS(!xs.empty(), "Hampel filter of empty sample");
  PV_EXPECTS(half_window >= 1, "Hampel half window must be >= 1");
  PV_EXPECTS(n_sigmas > 0.0, "Hampel threshold must be positive");

  HampelResult r;
  r.filtered.assign(xs.begin(), xs.end());
  r.outlier.assign(xs.size(), 0);

  std::vector<double> window;
  std::vector<double> dev;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::size_t lo = i >= half_window ? i - half_window : 0;
    const std::size_t hi = std::min(xs.size(), i + half_window + 1);
    if (hi - lo < 3) continue;  // too little context to judge
    window.assign(xs.begin() + static_cast<std::ptrdiff_t>(lo),
                  xs.begin() + static_cast<std::ptrdiff_t>(hi));
    std::sort(window.begin(), window.end());
    const double med = sorted_median(window, 0, window.size());
    dev.resize(window.size());
    for (std::size_t k = 0; k < window.size(); ++k) {
      dev[k] = std::fabs(window[k] - med);
    }
    std::sort(dev.begin(), dev.end());
    const double sigma = kMadToSigma * sorted_median(dev, 0, dev.size());
    if (std::fabs(xs[i] - med) > n_sigmas * sigma) {
      r.filtered[i] = med;
      r.outlier[i] = 1;
      ++r.outlier_count;
    }
  }
  return r;
}

}  // namespace pv
