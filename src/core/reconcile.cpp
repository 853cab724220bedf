#include "core/reconcile.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "stats/descriptive.hpp"
#include "stats/robust.hpp"
#include "util/expects.hpp"
#include "util/parallel.hpp"

namespace pv {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kLn10 = 2.302585092994046;

bool finite(double x) { return std::isfinite(x); }

/// The finite values of `xs`, in order, into a caller-owned buffer
/// (cleared first).
void finite_into(std::span<const double> xs, std::vector<double>& out) {
  out.clear();
  for (double x : xs) {
    if (finite(x)) out.push_back(x);
  }
}

std::vector<double> finite_of(std::span<const double> xs) {
  std::vector<double> out;
  out.reserve(xs.size());
  finite_into(xs, out);
  return out;
}

/// Median of the finite values of `xs`, NaN when there are none; `buf` is
/// overwritten.
double median_finite(std::span<const double> xs, std::vector<double>& buf) {
  finite_into(xs, buf);
  if (buf.empty()) return kNaN;
  return median_in_place(buf);
}

/// Per-worker scratch of the cohort pass: every buffer the per-window and
/// per-meter statistics need, reserved once for the largest use.
struct CohortScratch {
  std::vector<double> a;  ///< finite deviations (held for a whole diagnosis)
  std::vector<double> b;  ///< selection buffer: medians, MAD, Theil-Sen slopes
  std::vector<double> c;  ///< standardized / detrended series
  std::vector<double> prefix;
  std::vector<double> prefix2;

  /// Capacity for a cohort of `meters` series of `windows` windows: a
  /// reference column (`meters`) or a window's Theil-Sen pairs in `b`,
  /// one series in the rest.  Reserved by the thread that owns the
  /// scratch before the fan-out, so the workers never allocate.
  void reserve(std::size_t meters, std::size_t windows) {
    a.reserve(windows);
    b.reserve(std::max(meters, windows * (windows - 1) / 2));
    c.reserve(windows);
    prefix.reserve(windows + 1);
    prefix2.reserve(windows + 1);
  }
};

/// theil_sen_slope with its pairwise slopes in `slopes` (overwritten).
/// Pairs are enumerated in the same (i, j) order as the public form.
double theil_sen_into(std::span<const double> xs, std::vector<double>& slopes) {
  slopes.clear();
  std::size_t points = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (!finite(xs[i])) continue;
    ++points;
    for (std::size_t j = i + 1; j < xs.size(); ++j) {
      if (!finite(xs[j])) continue;
      const double dx = static_cast<double>(j) - static_cast<double>(i);
      slopes.push_back((xs[j] - xs[i]) / dx);
    }
  }
  PV_EXPECTS(points >= 2, "Theil-Sen needs >= 2 finite points");
  return median_in_place(slopes);
}

/// Pearson correlation of the child series shifted by `lag` windows against
/// the reference, over the overlapping finite pairs.  NaN when fewer than
/// three pairs overlap or either side is constant.
double lagged_correlation(std::span<const double> child,
                          std::span<const double> reference, int lag) {
  // The overlapping finite pairs in window order; walked twice (moments,
  // then covariance) so the sums chain exactly as over a stored pair list.
  const auto for_each_pair = [&](const auto& visit) {
    const auto n = static_cast<std::ptrdiff_t>(reference.size());
    for (std::ptrdiff_t w = 0; w < n; ++w) {
      const std::ptrdiff_t cw = w + lag;
      if (cw < 0 || cw >= static_cast<std::ptrdiff_t>(child.size())) continue;
      const double x = child[static_cast<std::size_t>(cw)];
      const double y = reference[static_cast<std::size_t>(w)];
      if (!finite(x) || !finite(y)) continue;
      visit(x, y);
    }
  };
  RunningStats a;
  RunningStats b;
  for_each_pair([&](double x, double y) {
    a.add(x);
    b.add(y);
  });
  if (a.count() < 3) return kNaN;
  const double sa = a.stddev();
  const double sb = b.stddev();
  if (sa <= 0.0 || sb <= 0.0) return kNaN;
  double cov = 0.0;
  for_each_pair(
      [&](double x, double y) { cov += (x - a.mean()) * (y - b.mean()); });
  cov /= static_cast<double>(a.count() - 1);
  return cov / (sa * sb);
}

/// Best SSE of a single-changepoint two-mean fit to `ys` (already compacted
/// to finite values, in window order).
double best_step_sse(std::span<const double> ys, CohortScratch& s) {
  const std::size_t n = ys.size();
  if (n < 4) return std::numeric_limits<double>::infinity();
  std::vector<double>& prefix = s.prefix;
  std::vector<double>& prefix2 = s.prefix2;
  prefix.assign(n + 1, 0.0);
  prefix2.assign(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    prefix[i + 1] = prefix[i] + ys[i];
    prefix2[i + 1] = prefix2[i] + ys[i] * ys[i];
  }
  const auto segment_sse = [&](std::size_t lo, std::size_t hi) {
    // SSE of [lo, hi) around its own mean.
    const double cnt = static_cast<double>(hi - lo);
    const double sum = prefix[hi] - prefix[lo];
    const double sum2 = prefix2[hi] - prefix2[lo];
    return std::max(0.0, sum2 - sum * sum / cnt);
  };
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t c = 2; c + 2 <= n; ++c) {
    best = std::min(best, segment_sse(0, c) + segment_sse(c, n));
  }
  return best;
}

/// SSE of a robust linear fit (Theil-Sen slope, median intercept) to `ys`.
double linear_fit_sse(std::span<const double> ys, double slope,
                      CohortScratch& s) {
  std::vector<double>& detrended = s.c;
  detrended.clear();
  for (std::size_t i = 0; i < ys.size(); ++i) {
    detrended.push_back(ys[i] - slope * static_cast<double>(i));
  }
  s.b.assign(detrended.begin(), detrended.end());
  const double intercept = median_in_place(s.b);
  double sse = 0.0;
  for (double d : detrended) {
    const double r = d - intercept;
    sse += r * r;
  }
  return sse;
}

/// The cohort-wide quantities every per-meter diagnosis reads.
struct CohortStats {
  std::span<const double> reference;
  double level = 0.0;
  double spread = 0.0;
  double noise_sigma = 0.0;
  double ref_cv = 0.0;
};

/// Judges one meter against the cohort: `means`, `log_ratio` and
/// `deviation` are its window series, `med` its median log-ratio.  Writes
/// only `d`; all scratch comes from `s`.
void diagnose_meter(MeterDiagnosis& d, std::span<const double> means,
                    std::span<const double> log_ratio,
                    std::span<const double> deviation, double med,
                    const CohortStats& cohort, const ReconcilePolicy& policy,
                    CohortScratch& s) {
  if (!finite(med)) return;  // fully lost meter: nothing to judge
  const std::size_t windows = deviation.size();
  std::vector<double>& dev_f = s.a;
  finite_into(deviation, dev_f);
  if (dev_f.size() < 4) return;

  d.robust_z = (med - cohort.level) / cohort.spread;
  d.gain_estimate = std::exp(med - cohort.level);
  d.drift_per_window = theil_sen_into(deviation, s.b);

  // 1. Power-of-ten unit error: exactly invertible, checked first.
  const double u10 = (med - cohort.level) / kLn10;
  const double p = std::round(u10);
  if (p != 0.0 && std::abs(u10 - p) <= policy.unit_log10_tol) {
    d.verdict = MeterVerdict::kUnitError;
    d.correction_scale = std::pow(10.0, p);
    for (std::size_t w = 0; w < windows; ++w) {
      if (finite(log_ratio[w])) {
        d.detection_window = w;
        break;
      }
    }
    return;
  }

  // 2. Clock skew: the series matches the reference only at a window
  //    offset.  Meaningful only when the workload has structure.
  if (cohort.ref_cv > policy.min_signal_cv && policy.max_lag > 0) {
    const double c0 = lagged_correlation(means, cohort.reference, 0);
    int best_lag = 0;
    double best_corr = finite(c0) ? c0 : -1.0;
    const int max_lag = static_cast<int>(policy.max_lag);
    for (int lag = -max_lag; lag <= max_lag; ++lag) {
      if (lag == 0) continue;
      const double c = lagged_correlation(means, cohort.reference, lag);
      if (finite(c) && c > best_corr) {
        best_corr = c;
        best_lag = lag;
      }
    }
    if (best_lag != 0 && finite(c0) && best_corr - c0 > policy.lag_min_gain &&
        best_corr > 0.5) {
      d.verdict = MeterVerdict::kClockSkewed;
      d.clock_lag = best_lag;
      d.detection_window = static_cast<std::size_t>(std::abs(best_lag));
      return;
    }
  }

  // 3. CUSUM on the meter's own standardized deviations: catches drift
  //    and recalibration steps while they are still far too small to
  //    move the cohort statistics.
  std::vector<double>& standardized = s.c;
  standardized.assign(windows, kNaN);
  for (std::size_t w = 0; w < windows; ++w) {
    if (finite(deviation[w])) {
      standardized[w] = deviation[w] / cohort.noise_sigma;
    }
  }
  const CusumResult cs =
      cusum_detect(standardized, policy.cusum_k, policy.cusum_h);
  d.cusum_max = cs.max_stat;
  // Practical-significance gate: estimate the head-to-tail shift of the
  // deviation series.  A statistically detectable but sub-min_effect
  // wobble is left alone — quarantining it would only cost coverage.
  const double effect = [&] {
    const std::size_t q = std::max<std::size_t>(2, dev_f.size() / 4);
    if (dev_f.size() < 2 * q) return 0.0;
    const auto q_len = static_cast<std::ptrdiff_t>(q);
    s.b.assign(dev_f.end() - q_len, dev_f.end());
    const double tail = median_in_place(s.b);
    s.b.assign(dev_f.begin(), dev_f.begin() + q_len);
    const double head = median_in_place(s.b);
    return std::abs(tail - head);
  }();
  if (cs.crossed && effect >= policy.min_effect) {
    // Drift or step?  Compare a robust linear fit against the best
    // single-changepoint two-mean fit on the compacted deviations.
    const double slope = theil_sen_into(dev_f, s.b);
    const double sse_linear = linear_fit_sse(dev_f, slope, s);
    const double sse_step = best_step_sse(dev_f, s);
    d.verdict = sse_linear <= sse_step ? MeterVerdict::kDrifting
                                       : MeterVerdict::kMiscalibrated;
    d.detection_window = cs.first_cross;
    return;
  }

  // 4. Robust-z backstop for gross static miscalibration that neither
  //    looks like a power of ten nor moves within the run.
  if (std::abs(d.robust_z) > policy.z_threshold) {
    d.verdict = MeterVerdict::kMiscalibrated;
    for (std::size_t w = 0; w < windows; ++w) {
      if (finite(log_ratio[w])) {
        d.detection_window = w;
        break;
      }
    }
  }
}

}  // namespace

const char* to_string(MeterVerdict v) {
  switch (v) {
    case MeterVerdict::kTrusted: return "trusted";
    case MeterVerdict::kDrifting: return "drifting";
    case MeterVerdict::kMiscalibrated: return "miscalibrated";
    case MeterVerdict::kUnitError: return "unit-error";
    case MeterVerdict::kClockSkewed: return "clock-skewed";
  }
  return "unknown";
}

std::vector<double> hierarchy_residuals(
    std::span<const double> parent,
    const std::vector<std::vector<double>>& children, double child_scale) {
  std::vector<double> out(parent.size(), kNaN);
  for (std::size_t w = 0; w < parent.size(); ++w) {
    const double p = parent[w];
    if (!finite(p) || p <= 0.0) continue;
    double sum = 0.0;
    bool ok = true;
    for (const auto& child : children) {
      if (w >= child.size() || !finite(child[w])) {
        ok = false;
        break;
      }
      sum += child[w];
    }
    if (!ok) continue;
    out[w] = (child_scale * sum - p) / p;
  }
  return out;
}

CusumResult cusum_detect(std::span<const double> standardized, double k,
                         double h) {
  PV_EXPECTS(k >= 0.0 && h > 0.0, "CUSUM needs k >= 0 and h > 0");
  CusumResult res;
  double hi = 0.0;
  double lo = 0.0;
  for (std::size_t i = 0; i < standardized.size(); ++i) {
    const double x = standardized[i];
    if (!finite(x)) continue;
    hi = std::max(0.0, hi + x - k);
    lo = std::max(0.0, lo - x - k);
    const double stat = std::max(hi, lo);
    if (stat > res.max_stat) res.max_stat = stat;
    if (!res.crossed && stat > h) {
      res.crossed = true;
      res.first_cross = i;
    }
  }
  return res;
}

double theil_sen_slope(std::span<const double> xs) {
  std::vector<double> slopes;
  return theil_sen_into(xs, slopes);
}

ReconcileReport reconcile_meters(const std::vector<MeterSeries>& meters,
                                 const std::vector<HierarchyCheck>& checks,
                                 const ReconcilePolicy& policy) {
  ReconcileReport report;
  report.meters_checked = meters.size();
  report.corrected_sigma = policy.corrected_sigma;

  std::size_t windows = 0;
  for (const auto& m : meters) windows = std::max(windows, m.means_w.size());
  for (const auto& m : meters) {
    PV_EXPECTS(m.means_w.size() == windows,
               "all meter series must share one window count");
  }

  // Meter index of each diagnosis: the meters sorted by id, built once —
  // diagnoses are reported in this order and every later lookup by id is
  // a binary search over them.
  std::vector<std::size_t> order(meters.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return meters[a].meter_id < meters[b].meter_id;
  });
  report.diagnoses.resize(meters.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t id = meters[order[k]].meter_id;
    PV_EXPECTS(k == 0 || report.diagnoses[k - 1].meter_id != id,
               "meter ids must be unique");
    report.diagnoses[k].meter_id = id;
  }

  const bool cohort_viable = meters.size() >= 3 && windows >= 4;
  if (cohort_viable) {
    // The cohort pass fans out over the pool.  Every unit (one window, or
    // one meter) writes only its own slot from read-only inputs, and the
    // cross-meter reductions between the fan-outs run serially in meter
    // order — so the report is bit-identical at any thread count.
    const std::size_t n = meters.size();
    std::optional<ThreadPool> pool_storage;
    if (policy.threads > 1) pool_storage.emplace(policy.threads);
    ThreadPool* pool = pool_storage ? &*pool_storage : nullptr;
    std::vector<CohortScratch> scratch(
        std::max(dynamic_slots(pool, windows), dynamic_slots(pool, n)));
    for (CohortScratch& s : scratch) s.reserve(n, windows);

    // Reference series: cross-meter median per window.  Robust to a small
    // byzantine minority — a x1000 meter cannot move the median.
    std::vector<double> reference(windows, kNaN);
    parallel_for_dynamic_slots(pool, windows, [&](std::size_t slot,
                                                  std::size_t w) {
      std::vector<double>& column = scratch[slot].b;
      column.clear();
      for (const auto& m : meters) {
        const double x = m.means_w[w];
        if (finite(x) && x > 0.0) column.push_back(x);
      }
      if (!column.empty()) reference[w] = median_in_place(column);
    });

    // Per-meter log-ratio series, its median level, the level-removed
    // deviations and their MAD (the meter's window-to-window noise; NaN
    // when the meter has too few windows to say).  Row-major, one row of
    // `windows` per meter.
    std::vector<double> log_ratio(n * windows, kNaN);
    std::vector<double> deviation(n * windows, kNaN);
    std::vector<double> med(n, kNaN);
    std::vector<double> noise(n, kNaN);
    parallel_for_dynamic_slots(pool, n, [&](std::size_t slot, std::size_t i) {
      CohortScratch& s = scratch[slot];
      const std::span<double> r(log_ratio.data() + i * windows, windows);
      for (std::size_t w = 0; w < windows; ++w) {
        const double x = meters[i].means_w[w];
        const double ref = reference[w];
        if (finite(x) && x > 0.0 && finite(ref) && ref > 0.0) {
          r[w] = std::log(x / ref);
        }
      }
      med[i] = median_finite(r, s.a);
      if (!finite(med[i])) return;
      const std::span<double> dev(deviation.data() + i * windows, windows);
      for (std::size_t w = 0; w < windows; ++w) {
        if (finite(r[w])) dev[w] = r[w] - med[i];
      }
      finite_into(dev, s.a);
      if (s.a.size() >= 4) noise[i] = median_abs_deviation(s.a, s.b);
    });

    // Cohort level and spread of the median log-ratios.  The spread is
    // dominated by honest fleet variability, so it only backstops gross
    // static errors; the per-meter CUSUM below (where fleet level cancels)
    // is the sensitive detector.
    CohortStats cohort;
    cohort.reference = reference;
    std::vector<double> med_finite = finite_of(med);
    cohort.level = median_in_place(med_finite);
    cohort.spread =
        std::max(1e-4, median_abs_deviation(med_finite, scratch.front().b));

    // Window-to-window noise: the per-meter MADs summarized across the
    // cohort by median (byzantine meters inflate their own MAD, not the
    // cohort's).  A MAD of finite values is finite, so NaN marks exactly
    // the meters that had none.
    std::vector<double> per_meter_noise = finite_of(noise);
    cohort.noise_sigma =
        per_meter_noise.empty()
            ? 1e-5
            : std::max(1e-5, median_in_place(per_meter_noise));

    cohort.ref_cv = [&] {
      const std::vector<double> f = finite_of(reference);
      if (f.size() < 3) return 0.0;
      const Summary sm = summarize(f);
      return sm.cv;
    }();

    parallel_for_dynamic_slots(pool, n, [&](std::size_t slot, std::size_t k) {
      const std::size_t i = order[k];
      const auto row = [&](const std::vector<double>& flat) {
        return std::span<const double>(flat.data() + i * windows, windows);
      };
      diagnose_meter(report.diagnoses[k], meters[i].means_w, row(log_ratio),
                     row(deviation), med[i], cohort, policy, scratch[slot]);
    });

    // Apply policy: unit errors are exactly invertible, everything else is
    // quarantined.
    double latency_sum = 0.0;
    std::size_t convicted = 0;
    for (auto& d : report.diagnoses) {
      if (d.verdict == MeterVerdict::kTrusted) continue;
      ++convicted;
      latency_sum += static_cast<double>(d.detection_window);
      if (d.verdict == MeterVerdict::kUnitError && policy.correct_unit_errors) {
        d.corrected = true;
        ++report.meters_corrected;
      } else {
        d.quarantined = true;
        ++report.meters_quarantined;
      }
    }
    if (convicted > 0) {
      report.mean_detection_latency_windows =
          latency_sum / static_cast<double>(convicted);
    }

    // Hierarchy residual checks: confirm the verdicts reconciled the tree,
    // and indict the parent when the children agree but it does not.
    for (const auto& check : checks) {
      HierarchyResidual hr;
      hr.label = check.label;
      const std::vector<double> before = hierarchy_residuals(
          check.parent_means_w, check.child_means_w, check.child_scale);
      for (double r : before) {
        if (finite(r)) hr.worst_before = std::max(hr.worst_before, std::abs(r));
      }

      // Rebuild the child set as the campaign will use it: corrected
      // children undone exactly, quarantined children imputed with the
      // cohort-typical series (reference x cohort level) so the residual
      // measures remaining disagreement, not the hole quarantine left.
      std::vector<std::vector<double>> after_children = check.child_means_w;
      bool any_child_convicted = false;
      for (std::size_t c = 0; c < check.child_ids.size(); ++c) {
        const std::size_t id = check.child_ids[c];
        const auto it = std::lower_bound(
            report.diagnoses.begin(), report.diagnoses.end(), id,
            [](const MeterDiagnosis& d, std::size_t key) {
              return d.meter_id < key;
            });
        if (it == report.diagnoses.end() || it->meter_id != id) continue;
        if (it->corrected) {
          any_child_convicted = true;
          for (double& x : after_children[c]) {
            if (finite(x)) x /= it->correction_scale;
          }
        } else if (it->quarantined) {
          any_child_convicted = true;
          for (std::size_t w = 0; w < after_children[c].size(); ++w) {
            const double ref = w < reference.size() ? reference[w] : kNaN;
            after_children[c][w] =
                finite(ref) ? ref * std::exp(cohort.level) : kNaN;
          }
        }
      }
      const std::vector<double> after = hierarchy_residuals(
          check.parent_means_w, after_children, check.child_scale);
      for (double r : after) {
        if (finite(r)) hr.worst_after = std::max(hr.worst_after, std::abs(r));
      }

      // Children honest but the level still refuses to add up: the parent
      // meter itself is the liar.
      const double median_before = [&] {
        std::vector<double> mags;
        for (double r : before) {
          if (finite(r)) mags.push_back(std::abs(r));
        }
        return mags.empty() ? 0.0 : median(mags);
      }();
      if (!any_child_convicted && median_before > policy.parent_residual_floor) {
        hr.parent_distrusted = true;
        ++report.parents_distrusted;
      }

      report.worst_residual_before =
          std::max(report.worst_residual_before, hr.worst_before);
      if (!hr.parent_distrusted) {
        report.worst_residual_after =
            std::max(report.worst_residual_after, hr.worst_after);
      }
      report.residuals.push_back(std::move(hr));
    }
  } else {
    // Too small for cohort statistics: still report the hierarchy
    // residuals so a lying parent over a tiny fleet is at least visible.
    for (const auto& check : checks) {
      HierarchyResidual hr;
      hr.label = check.label;
      const std::vector<double> res = hierarchy_residuals(
          check.parent_means_w, check.child_means_w, check.child_scale);
      for (double r : res) {
        if (finite(r)) hr.worst_before = std::max(hr.worst_before, std::abs(r));
      }
      hr.worst_after = hr.worst_before;
      if (hr.worst_before > policy.parent_residual_floor) {
        hr.parent_distrusted = true;
        ++report.parents_distrusted;
      }
      report.worst_residual_before =
          std::max(report.worst_residual_before, hr.worst_before);
      report.worst_residual_after =
          std::max(report.worst_residual_after, hr.worst_after);
      report.residuals.push_back(std::move(hr));
    }
  }

  return report;
}

}  // namespace pv
