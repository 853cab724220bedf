#include "sim/fleet_state.hpp"

#include <cmath>

#include "util/expects.hpp"

namespace pv {

// --------------------------------------------------------------------------
// NodeSpec / NodeSettings gather-scatter

NodeSpecSoA NodeSpecSoA::gather(std::span<const NodeSpec> specs) {
  NodeSpecSoA soa;
  const std::size_t n = specs.size();
  soa.cpu_count.reserve(n);
  soa.gpu_count.reserve(n);
  soa.memory_w.reserve(n);
  soa.misc_w.reserve(n);
  soa.psu_rated_w.reserve(n);
  soa.cpu_leakage_cv.reserve(n);
  soa.gpu_leakage_cv.reserve(n);
  soa.gpu_vid_leakage_corr.reserve(n);
  soa.gpu_dynamic_cv.reserve(n);
  soa.inlet_sd_c.reserve(n);
  soa.memory_cv.reserve(n);
  soa.hpl_efficiency.reserve(n);
  for (const NodeSpec& s : specs) {
    soa.cpu_count.push_back(s.cpu_count);
    soa.gpu_count.push_back(s.gpu_count);
    soa.memory_w.push_back(s.memory_w);
    soa.misc_w.push_back(s.misc_w);
    soa.psu_rated_w.push_back(s.psu_rated_w);
    soa.cpu_leakage_cv.push_back(s.cpu_leakage_cv);
    soa.gpu_leakage_cv.push_back(s.gpu_leakage_cv);
    soa.gpu_vid_leakage_corr.push_back(s.gpu_vid_leakage_corr);
    soa.gpu_dynamic_cv.push_back(s.gpu_dynamic_cv);
    soa.inlet_sd_c.push_back(s.inlet_sd_c);
    soa.memory_cv.push_back(s.memory_cv);
    soa.hpl_efficiency.push_back(s.hpl_efficiency);
  }
  return soa;
}

void NodeSpecSoA::scatter(std::span<NodeSpec> specs) const {
  PV_EXPECTS(specs.size() == size(), "scatter size mismatch");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    NodeSpec& s = specs[i];
    s.cpu_count = cpu_count[i];
    s.gpu_count = gpu_count[i];
    s.memory_w = memory_w[i];
    s.misc_w = misc_w[i];
    s.psu_rated_w = psu_rated_w[i];
    s.cpu_leakage_cv = cpu_leakage_cv[i];
    s.gpu_leakage_cv = gpu_leakage_cv[i];
    s.gpu_vid_leakage_corr = gpu_vid_leakage_corr[i];
    s.gpu_dynamic_cv = gpu_dynamic_cv[i];
    s.inlet_sd_c = inlet_sd_c[i];
    s.memory_cv = memory_cv[i];
    s.hpl_efficiency = hpl_efficiency[i];
  }
}

NodeSettingsSoA NodeSettingsSoA::gather(std::span<const NodeSettings> settings) {
  NodeSettingsSoA soa;
  const std::size_t n = settings.size();
  soa.cpu_op_set.reserve(n);
  soa.cpu_op_hz.reserve(n);
  soa.cpu_op_v.reserve(n);
  soa.gpu_mode.reserve(n);
  soa.gpu_fixed_hz.reserve(n);
  soa.gpu_fixed_v.reserve(n);
  soa.fan_mode.reserve(n);
  soa.fan_pinned_speed.reserve(n);
  for (const NodeSettings& s : settings) {
    soa.cpu_op_set.push_back(s.cpu_op.has_value() ? 1 : 0);
    soa.cpu_op_hz.push_back(s.cpu_op ? s.cpu_op->frequency.value() : 0.0);
    soa.cpu_op_v.push_back(s.cpu_op ? s.cpu_op->voltage.value() : 0.0);
    soa.gpu_mode.push_back(static_cast<std::uint8_t>(s.gpu_mode));
    soa.gpu_fixed_hz.push_back(s.gpu_fixed_op.frequency.value());
    soa.gpu_fixed_v.push_back(s.gpu_fixed_op.voltage.value());
    soa.fan_mode.push_back(static_cast<std::uint8_t>(s.fan_policy.mode));
    soa.fan_pinned_speed.push_back(s.fan_policy.pinned_speed);
  }
  return soa;
}

void NodeSettingsSoA::scatter(std::span<NodeSettings> settings) const {
  PV_EXPECTS(settings.size() == size(), "scatter size mismatch");
  for (std::size_t i = 0; i < settings.size(); ++i) {
    NodeSettings& s = settings[i];
    if (cpu_op_set[i] != 0) {
      s.cpu_op = OperatingPoint{Hertz{cpu_op_hz[i]}, Volts{cpu_op_v[i]}};
    } else {
      s.cpu_op.reset();
    }
    s.gpu_mode = static_cast<NodeSettings::GpuMode>(gpu_mode[i]);
    s.gpu_fixed_op =
        OperatingPoint{Hertz{gpu_fixed_hz[i]}, Volts{gpu_fixed_v[i]}};
    s.fan_policy.mode = static_cast<FanPolicy::Mode>(fan_mode[i]);
    s.fan_policy.pinned_speed = fan_pinned_speed[i];
  }
}

// --------------------------------------------------------------------------
// Provisioning

FleetState build_fleet_state(std::span<const std::size_t> nodes,
                             const FleetProvisionSpec& spec,
                             const std::vector<TimeWindow>& windows,
                             const FaultPlan* faults,
                             const ClusterPowerModel* cluster,
                             const SystemPowerModel* electrical,
                             ThreadPool* pool) {
  const std::size_t n = nodes.size();
  FleetState fs;
  fs.node.assign(nodes.begin(), nodes.end());
  fs.mean_w.assign(n, 0.0);
  fs.gain.assign(n, 1.0);
  fs.offset_w.assign(n, 0.0);
  fs.noise_sd = spec.accuracy.noise_sd;
  fs.meters.resize(n);
  fs.noise.assign(n, Rng(0, 0));
  fs.curve.assign(n, nullptr);
  fs.dead.assign(n, 0);
  fs.samples_expected.assign(n, 0);

  const bool faulty = faults != nullptr && faults->enabled();
  // Every slot is a pure function of its own node id: calibration and
  // noise streams are keyed per node, the mean and curve are lookups, so
  // sharding preserves the per-node RNG streams and is thread-invariant.
  parallel_chunks(pool, n, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const std::size_t id = fs.node[i];
      Rng calibration(spec.seed ^ kCalibrationSalt, id);
      MeterModel meter(spec.accuracy, spec.mode, spec.interval, calibration);
      fs.gain[i] = meter.gain();
      fs.offset_w[i] = meter.offset_w();
      std::size_t expected = 0;
      for (const TimeWindow& w : windows) expected += meter.samples_in(w);
      fs.samples_expected[i] = expected;
      fs.meters[i] = std::move(meter);
      fs.noise[i] = Rng(spec.seed ^ kNoiseSalt, id);
      if (cluster != nullptr) {
        PV_EXPECTS(id < cluster->node_count(),
                   "plan references missing node");
        fs.mean_w[i] = cluster->node_means()[id];
      }
      if (spec.ac_tap && electrical != nullptr) {
        fs.curve[i] = &electrical->node_psu(id).compiled();
      }
      if (faulty && faults->forced_dead(id)) fs.dead[i] = 1;
    }
  });
  fs.bank = FleetPsuBank::build(fs.curve);
  return fs;
}

// --------------------------------------------------------------------------
// Analysis-window mapping (reconcile buckets)

std::vector<std::int32_t> map_analysis_samples(
    const TimeWindow& w, Seconds interval, std::size_t first,
    std::size_t count, const std::vector<TimeWindow>& analysis) {
  std::vector<std::int32_t> idx(count, -1);
  const double t0 = w.begin.value();
  const double dt = interval.value();
  for (std::size_t k = 0; k < count; ++k) {
    // First match wins, like a linear scan per sample.
    const double t = t0 + (static_cast<double>(first + k) + 0.5) * dt;
    for (std::size_t a = 0; a < analysis.size(); ++a) {
      const TimeWindow& aw = analysis[a];
      if (t >= aw.begin.value() && t < aw.end.value()) {
        idx[k] = static_cast<std::int32_t>(a);
        break;
      }
    }
  }
  return idx;
}

// --------------------------------------------------------------------------
// Lane kernels

void chain_lane_chunk(std::span<const double> readings, std::size_t lane,
                      const LaneSinks& sinks) {
  double s = sinks.win_sum[lane];
  for (const double x : readings) s += x;
  sinks.win_sum[lane] = s;
  if (sinks.a_idx == nullptr) return;
  for (std::size_t j = 0; j < readings.size(); ++j) {
    const std::int32_t a = sinks.a_idx[j];
    if (a >= 0) {
      sinks.bucket_sum[static_cast<std::size_t>(a) * sinks.stride + lane] +=
          readings[j];
    }
  }
}

namespace {

// Feeds one level-indexed chunk into the sinks for lanes [begin, end).
// Every lane evaluates the per-node expressions of stream_node_window +
// apply_errors + chain_lane_chunk, operand for operand, with that node's
// own noise stream consumed in sample order.
void fused_level_chunk(const ShapeTable& table, FleetState& fleet,
                       std::size_t begin, std::size_t end,
                       const LaneSinks& sinks, FleetScratch& scratch) {
  const std::size_t m = end - begin;
  const std::size_t nl = table.levels.size();
  const std::size_t samples = table.samples;
  // AC-at-level matrix: acl[l*m + i] = lane (begin+i)'s clean AC (or DC
  // pass-through) at shape level l — the per-node `acl[l]` table, built
  // fleet-major through the PSU bank (bit-identical per lane).
  scratch.acl.resize(nl * m);
  scratch.dc.resize(m);
  const double* const mean = fleet.mean_w.data() + begin;
  for (std::size_t l = 0; l < nl; ++l) {
    const double level = table.levels[l];
    double* const dc = scratch.dc.data();
    for (std::size_t i = 0; i < m; ++i) dc[i] = mean[i] * level;
    fleet.bank.ac_from_dc_fleet(
        std::span<const double>(scratch.dc.data(), m),
        std::span<double>(scratch.acl.data() + l * m, m), begin, scratch.lf,
        scratch.eff);
  }

  const double* const gain = fleet.gain.data() + begin;
  const double* const off = fleet.offset_w.data() + begin;
  double* const win = sinks.win_sum + begin;
  Rng* const noise = fleet.noise.data() + begin;
  const double sd = fleet.noise_sd;
  const std::uint32_t* const idx = table.level_idx.data();
  const double* const acl = scratch.acl.data();

  const auto bucket_row = [&](std::size_t k) -> double* {
    if (sinks.a_idx == nullptr) return nullptr;
    const std::int32_t a = sinks.a_idx[k];
    if (a < 0) return nullptr;
    return sinks.bucket_sum + static_cast<std::size_t>(a) * sinks.stride +
           begin;
  };

  if (table.mode == MeterMode::kIntegrated) {
    const std::uint32_t* const i0 = idx;
    const std::uint32_t* const i1 = idx + samples;
    const std::uint32_t* const i2 = idx + 2 * samples;
    const std::uint32_t* const i3 = idx + 3 * samples;
    for (std::size_t k = 0; k < samples; ++k) {
      const double* const r0 = acl + static_cast<std::size_t>(i0[k]) * m;
      const double* const r1 = acl + static_cast<std::size_t>(i1[k]) * m;
      const double* const r2 = acl + static_cast<std::size_t>(i2[k]) * m;
      const double* const r3 = acl + static_cast<std::size_t>(i3[k]) * m;
      double* const bs = bucket_row(k);
      if (sd > 0.0) {
        for (std::size_t i = 0; i < m; ++i) {
          const double truth =
              ((gl4::kWs[0] * r0[i] + gl4::kWs[1] * r1[i]) +
               gl4::kWs[2] * r2[i]) +
              gl4::kWs[3] * r3[i];
          double v = truth * gain[i] + off[i];
          v *= 1.0 + noise[i].normal(0.0, sd);
          win[i] += v;
          if (bs != nullptr) bs[i] += v;
        }
      } else if (bs != nullptr) {
        for (std::size_t i = 0; i < m; ++i) {
          const double truth =
              ((gl4::kWs[0] * r0[i] + gl4::kWs[1] * r1[i]) +
               gl4::kWs[2] * r2[i]) +
              gl4::kWs[3] * r3[i];
          const double v = truth * gain[i] + off[i];
          win[i] += v;
          bs[i] += v;
        }
      } else {
        for (std::size_t i = 0; i < m; ++i) {
          const double truth =
              ((gl4::kWs[0] * r0[i] + gl4::kWs[1] * r1[i]) +
               gl4::kWs[2] * r2[i]) +
              gl4::kWs[3] * r3[i];
          const double v = truth * gain[i] + off[i];
          win[i] += v;
        }
      }
    }
  } else {
    for (std::size_t k = 0; k < samples; ++k) {
      const double* const row = acl + static_cast<std::size_t>(idx[k]) * m;
      double* const bs = bucket_row(k);
      if (sd > 0.0) {
        for (std::size_t i = 0; i < m; ++i) {
          double v = row[i] * gain[i] + off[i];
          v *= 1.0 + noise[i].normal(0.0, sd);
          win[i] += v;
          if (bs != nullptr) bs[i] += v;
        }
      } else if (bs != nullptr) {
        for (std::size_t i = 0; i < m; ++i) {
          const double v = row[i] * gain[i] + off[i];
          win[i] += v;
          bs[i] += v;
        }
      } else {
        for (std::size_t i = 0; i < m; ++i) {
          const double v = row[i] * gain[i] + off[i];
          win[i] += v;
        }
      }
    }
  }
}

}  // namespace

void stream_lane_chunk(const ShapeTable& chunk, FleetState& fleet,
                       std::size_t begin, std::size_t end, bool fused,
                       const LaneSinks& sinks, FleetScratch& scratch) {
  PV_EXPECTS(end <= fleet.size() && begin <= end, "lane range out of fleet");
  if (fused && !chunk.levels.empty()) {
    fused_level_chunk(chunk, fleet, begin, end, sinks, scratch);
    return;
  }
  for (std::size_t lane = begin; lane < end; ++lane) {
    stream_node_window(chunk, fleet.mean_w[lane], fleet.curve[lane],
                       fleet.meters[lane], fleet.noise[lane], scratch.node);
    chain_lane_chunk(scratch.node.readings, lane, sinks);
  }
}

}  // namespace pv
