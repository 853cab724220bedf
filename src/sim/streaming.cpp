#include "sim/streaming.hpp"

#include <cmath>
#include <cstring>
#include <unordered_map>

#include "util/expects.hpp"

namespace pv {

namespace {

// Deduplicates table.shape into table.levels/level_idx by exact bit
// pattern.  Bails out (leaving both empty) past ShapeTable::kMaxLevels:
// a window with that many distinct values gains nothing from gathering.
void index_shape_levels(ShapeTable& table) {
  std::unordered_map<std::uint64_t, std::uint32_t> seen;
  seen.reserve(ShapeTable::kMaxLevels * 2);
  table.level_idx.reserve(table.shape.size());
  for (const double v : table.shape) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    const auto [it, inserted] = seen.emplace(
        bits, static_cast<std::uint32_t>(table.levels.size()));
    if (inserted) {
      if (table.levels.size() >= ShapeTable::kMaxLevels) {
        table.levels.clear();
        table.level_idx.clear();
        return;
      }
      table.levels.push_back(v);
    }
    table.level_idx.push_back(it->second);
  }
}

}  // namespace

std::size_t window_sample_count(const TimeWindow& w, Seconds interval) {
  PV_EXPECTS(interval.value() > 0.0, "reporting interval must be positive");
  PV_EXPECTS(w.valid(), "empty metering window");
  // Same floor arithmetic as MeterModel::measure / samples_in.
  return static_cast<std::size_t>(
      std::floor((w.end.value() - w.begin.value()) / interval.value() + 1e-9));
}

void build_shape_chunk(const ClusterPowerModel& cluster, const TimeWindow& w,
                       Seconds interval, MeterMode mode, std::size_t first,
                       std::size_t count, ShapeTable& out) {
  PV_EXPECTS(count > 0, "empty shape chunk");
  const double dt = interval.value();
  out.t_begin = w.begin.value();
  out.dt = dt;
  out.mode = mode;
  out.samples = count;
  out.levels.clear();
  out.level_idx.clear();
  if (mode == MeterMode::kIntegrated) {
    // Plane-major (see ShapeTable): quadrature plane q at q*count.
    out.shape.resize(count * 4);
    for (std::size_t i = 0; i < count; ++i) {
      // Window-global sample index: double(first + i) carries the exact
      // bits double(i_global) has in the full-window build.
      const double a = out.t_begin + dt * static_cast<double>(first + i);
      for (std::size_t q = 0; q < 4; ++q) {
        out.shape[q * count + i] = cluster.shape_factor(a + gl4::kXs[q] * dt);
      }
    }
  } else {
    out.shape.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      const double a = out.t_begin + dt * static_cast<double>(first + i);
      out.shape[i] = cluster.shape_factor(a + 0.5 * dt);
    }
  }
  index_shape_levels(out);
}

void stream_node_window(const ShapeTable& table, double node_mean_w,
                        const CompiledPsuCurve* ac_curve,
                        const MeterModel& meter, Rng& noise_rng,
                        StreamScratch& scratch) {
  std::vector<double>& out = scratch.readings;
  out.resize(table.samples);
  const double* const shape = table.shape.data();
  const std::size_t points = table.shape.size();
  if (!table.levels.empty()) {
    // Level-indexed path: one PSU evaluation per distinct shape value —
    // through the same inline ac_from_dc the per-point paths call, on a
    // bit-equal DC load — then an index gather.  Steady phases turn the
    // whole per-point conversion stage into a table lookup.
    const std::size_t nl = table.levels.size();
    double acl[ShapeTable::kMaxLevels];
    for (std::size_t l = 0; l < nl; ++l) {
      const double dc = node_mean_w * table.levels[l];
      acl[l] = ac_curve != nullptr ? ac_curve->ac_from_dc(dc) : dc;
    }
    const std::uint32_t* const idx = table.level_idx.data();
    const std::size_t samples = table.samples;
    if (table.mode == MeterMode::kIntegrated) {
      scratch.truth.resize(samples);
      double* const truth = scratch.truth.data();
      const std::uint32_t* const i0 = idx;
      const std::uint32_t* const i1 = idx + samples;
      const std::uint32_t* const i2 = idx + 2 * samples;
      const std::uint32_t* const i3 = idx + 3 * samples;
      for (std::size_t i = 0; i < samples; ++i) {
        truth[i] = ((gl4::kWs[0] * acl[i0[i]] + gl4::kWs[1] * acl[i1[i]]) +
                    gl4::kWs[2] * acl[i2[i]]) +
                   gl4::kWs[3] * acl[i3[i]];
      }
      for (std::size_t i = 0; i < samples; ++i) {
        out[i] = meter.apply_errors(truth[i], noise_rng);
      }
    } else {
      for (std::size_t i = 0; i < samples; ++i) {
        out[i] = meter.apply_errors(acl[idx[i]], noise_rng);
      }
    }
    return;
  }
  if (ac_curve != nullptr) {
    // Phase-structured AC tap: DC loads for every quadrature point of the
    // whole window at once, one batched PSU pass over them, then the
    // quadrature reduce and the (serial, RNG-ordered) error application.
    // Each phase is elementwise over disjoint arrays, so the compiler
    // vectorizes it; each element sees the identical IEEE operations the
    // scalar per-point path performs, so the bits don't move.
    scratch.dc.resize(points);
    scratch.ac.resize(points);
    double* const dc = scratch.dc.data();
    for (std::size_t k = 0; k < points; ++k) dc[k] = node_mean_w * shape[k];
    ac_curve->ac_from_dc_batch(scratch.dc, scratch.ac, scratch.lf,
                               scratch.eff);
    const double* const ac = scratch.ac.data();
    if (table.mode == MeterMode::kIntegrated) {
      // Plane-major reduce: elementwise across samples, with the exact
      // left-to-right add order of the scalar `truth += kWs[q] * w` loop
      // (whose 0.0 seed is exact for the non-negative powers here).
      const std::size_t samples = table.samples;
      scratch.truth.resize(samples);
      double* const truth = scratch.truth.data();
      const double* const a0 = ac;
      const double* const a1 = ac + samples;
      const double* const a2 = ac + 2 * samples;
      const double* const a3 = ac + 3 * samples;
      for (std::size_t i = 0; i < samples; ++i) {
        truth[i] = ((gl4::kWs[0] * a0[i] + gl4::kWs[1] * a1[i]) +
                    gl4::kWs[2] * a2[i]) +
                   gl4::kWs[3] * a3[i];
      }
      for (std::size_t i = 0; i < samples; ++i) {
        out[i] = meter.apply_errors(truth[i], noise_rng);
      }
    } else {
      for (std::size_t i = 0; i < table.samples; ++i) {
        out[i] = meter.apply_errors(ac[i], noise_rng);
      }
    }
  } else if (table.mode == MeterMode::kIntegrated) {
    const std::size_t samples = table.samples;
    scratch.truth.resize(samples);
    double* const truth = scratch.truth.data();
    const double* const s0 = shape;
    const double* const s1 = shape + samples;
    const double* const s2 = shape + 2 * samples;
    const double* const s3 = shape + 3 * samples;
    for (std::size_t i = 0; i < samples; ++i) {
      truth[i] = ((gl4::kWs[0] * (node_mean_w * s0[i]) +
                   gl4::kWs[1] * (node_mean_w * s1[i])) +
                  gl4::kWs[2] * (node_mean_w * s2[i])) +
                 gl4::kWs[3] * (node_mean_w * s3[i]);
    }
    for (std::size_t i = 0; i < samples; ++i) {
      out[i] = meter.apply_errors(truth[i], noise_rng);
    }
  } else {
    for (std::size_t i = 0; i < table.samples; ++i) {
      const double dc = node_mean_w * shape[i];
      out[i] = meter.apply_errors(dc, noise_rng);
    }
  }
}

}  // namespace pv
