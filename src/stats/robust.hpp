#pragma once
// Robust location/scale estimators and outlier filtering.
//
// Faulty meters inject spikes, glitches and stuck readings that destroy
// moment-based summaries: a single 10x spike in a 1000-sample trace moves
// the mean by ~1%, an order of magnitude above the accuracy the paper's
// Level 2/3 rules target.  These estimators bound the influence of any
// individual sample, so per-node power summaries survive corrupted
// readings instead of silently absorbing them into the submitted number.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace pv {

/// Median absolute deviation around the sample median.  With
/// `normal_consistent` the result is scaled by 1.4826 so it estimates the
/// standard deviation for normally distributed data.
[[nodiscard]] double median_abs_deviation(std::span<const double> xs,
                                          bool normal_consistent = true);

/// As above, with both working copies held in `scratch` (overwritten):
/// allocation-free once it has grown.  Medians are found by selection
/// (median_in_place), so a NaN-free sample gets median()'s bits.
[[nodiscard]] double median_abs_deviation(std::span<const double> xs,
                                          std::vector<double>& scratch,
                                          bool normal_consistent = true);

/// Mean of the sample after dropping the lowest and highest
/// floor(trim_frac * n) values.  trim_frac in [0, 0.5).
[[nodiscard]] double trimmed_mean(std::span<const double> xs,
                                  double trim_frac);

/// Winsorized mean: the tails that a trimmed mean would drop are instead
/// clamped to the nearest retained value.  trim_frac in [0, 0.5).
[[nodiscard]] double winsorized_mean(std::span<const double> xs,
                                     double trim_frac);

/// Outcome of a Hampel filter pass.
struct HampelResult {
  std::vector<double> filtered;       ///< outliers replaced by window median
  std::vector<std::uint8_t> outlier;  ///< 1 where a sample was replaced
  std::size_t outlier_count = 0;
};

/// Sliding-window Hampel identifier: sample i is an outlier when
/// |x_i - median(W_i)| > n_sigmas * MAD_sigma(W_i), where W_i is the
/// window of `half_window` samples on each side (truncated at the trace
/// edges) and MAD_sigma is the normal-consistent MAD.  Outliers are
/// replaced by their window median.  A zero-MAD window (locally constant
/// signal) treats any deviating sample as an outlier — exactly the
/// stuck-sensor-then-glitch pattern seen in site PDU logs.
[[nodiscard]] HampelResult hampel_filter(std::span<const double> xs,
                                         std::size_t half_window = 5,
                                         double n_sigmas = 3.0);

}  // namespace pv
