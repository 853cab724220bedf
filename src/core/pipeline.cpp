#include "core/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/report.hpp"
#include "stats/descriptive.hpp"
#include "stats/fused.hpp"
#include "stats/robust.hpp"
#include "stats/sketch.hpp"
#include "util/expects.hpp"
#include "util/mathx.hpp"
#include "util/parallel.hpp"
#include "util/ring.hpp"
#include "workload/workload.hpp"

namespace pv {
namespace {

// Average of f over [a, b] via midpoint panels — used for ground truth.
double mean_over_window(const std::function<double(double)>& f, double a,
                        double b) {
  return average_over(f, a, b, 2048);
}

// RNG stream salts for the fault processes (the calibration/noise salts
// are kCalibrationSalt / kNoiseSalt from sim/fleet_state.hpp, shared with
// fleet provisioning and the async collector).
constexpr std::uint64_t kFateSalt = 0xFA7E0FA7ULL;
constexpr std::uint64_t kFaultSalt = 0x1FAC7ED0ULL;

// Node-tap Aggregate tail (defined with the other aggregate functions
// below); the live meter stage also runs it on mid-run snapshots so
// partial and final documents cannot drift apart structurally.
void aggregate_nodes(CampaignContext& ctx);

// The common time grid cross-validation compares meters on.  Plans that
// already meter several windows (L2 spot sampling) use those directly;
// single-window plans (L1/L3 continuous) are subdivided.
std::vector<TimeWindow> make_analysis_windows(
    const std::vector<TimeWindow>& metered, std::size_t target) {
  if (metered.size() >= 4 || metered.empty()) return metered;
  const std::size_t per =
      std::max<std::size_t>(1, (std::max<std::size_t>(target, 4) +
                                metered.size() - 1) /
                                   metered.size());
  std::vector<TimeWindow> out;
  out.reserve(metered.size() * per);
  for (const TimeWindow& w : metered) {
    const double step = w.duration().value() / static_cast<double>(per);
    for (std::size_t i = 0; i < per; ++i) {
      out.push_back(TimeWindow{
          Seconds{w.begin.value() + static_cast<double>(i) * step},
          Seconds{w.begin.value() + static_cast<double>(i + 1) * step}});
    }
  }
  return out;
}

// Samples the meter would produce over the windows — used to account for
// meters that never report.
std::size_t expected_samples(const std::vector<TimeWindow>& windows,
                             const MeterModel& meter) {
  std::size_t n = 0;
  for (const TimeWindow& w : windows) n += meter.samples_in(w);
  return n;
}

// Streaming context of one node device: the shared per-window shape
// tables plus this node's mean, PSU curve (null for DC taps) and a
// reusable scratch buffer owned by the worker's chunk.
struct StreamScope {
  const std::vector<ShapeTable>* tables = nullptr;  // parallel to windows
  double mean_w = 0.0;
  const CompiledPsuCurve* curve = nullptr;
  StreamScratch* scratch = nullptr;
};

// Window-fed metering state machine for one device.  The batch stages
// drive it window by window (meter_device below) and the live stage
// drives it chunk by chunk — both end at the identical DeviceReading,
// because every accumulator here chains in the exact order the historical
// metering loop used.  Holds no reference to the meter or the window
// list, so a fleet of these can live in a relocatable slot vector.
//
// With faults disabled a device is fed clean readings (whole traces or
// window chunks); with faults enabled each window's clean trace is
// corrupted, quality-checked, repaired and despiked, and the device may
// finish lost.
class DeviceMeter {
 public:
  DeviceMeter(const FaultPlan& fp, std::uint64_t seed, std::uint64_t stream,
              std::size_t meter_id, TimeWindow campaign_window,
              std::size_t n_windows, std::size_t samples_expected,
              const std::vector<TimeWindow>* analysis)
      : fp_(&fp), analysis_(analysis), n_windows_(n_windows) {
    if (analysis_ != nullptr) {
      bucket_sum_.assign(analysis_->size(), 0.0);
      bucket_n_.assign(analysis_->size(), 0);
    }
    faulty_ = fp.enabled();
    if (!faulty_) return;
    r_.samples_expected = samples_expected;
    if (fp.forced_dead(meter_id)) {
      dead_ = true;
      r_.lost = true;
      r_.samples_lost = r_.samples_expected;
      return;
    }
    Rng fate_rng(seed ^ kFateSalt, stream);
    fault_rng_.emplace(seed ^ kFaultSalt, stream);
    fate_ = draw_meter_fate(fp.spec, campaign_window, fate_rng);
    const std::size_t byz_pos = fp.forced_byzantine(meter_id);
    if (byz_pos != FaultPlan::npos) {
      fp.apply_forced_byzantine(byz_pos, campaign_window, fate_);
    }
  }

  /// Forced dead at provision time: feed nothing, finish() is final.
  [[nodiscard]] bool dead() const { return dead_; }

  /// Clean path, chunk-fed: samples [first, first + readings.size()) of
  /// the current window.  Chunks must arrive in order; the running sum
  /// chains left-to-right, so any chunking reproduces the whole-window
  /// bits.
  void feed_clean_chunk(double t_begin, double dt, std::size_t first,
                        std::span<const double> readings) {
    double s = win_sum_;
    for (const double x : readings) s += x;
    win_sum_ = s;
    win_n_ += readings.size();
    win_dt_ = dt;
    bucket(t_begin, dt, first, readings);
  }

  /// Adopts a chunk the fused fleet kernels already chained: `chained`
  /// is the window's running sum *after* this chunk (the kernels add
  /// into a per-lane accumulator with the exact feed_clean_chunk
  /// chaining), `count` the chunk's samples.  Keeps win_n_/win_dt_ and
  /// therefore the live snapshots and close_clean_window() working
  /// unchanged.  Clean non-reconciling windows only (no buckets).
  void adopt_clean_chunk(double chained, std::size_t count, double dt) {
    win_sum_ = chained;
    win_n_ += count;
    win_dt_ = dt;
  }

  /// Closes the current chunk-fed clean window; returns its mean.
  double close_clean_window() {
    // 0.0 + win_sum_: the exact expression the historical per-window
    // FusedAccumulator produced (bulk push into a fresh accumulator adds
    // the batch sum onto the zero seed), so chunk-fed windows close on
    // the same bits the batch path computed.
    const double total = 0.0 + win_sum_;
    const double window_mean = total / static_cast<double>(win_n_);
    mean_acc_ += window_mean;
    r_.energy_j += total * win_dt_;
    win_sum_ = 0.0;
    win_n_ = 0;
    ++windows_contributing_;
    return window_mean;
  }

  /// Clean path, whole-trace (eager engine); returns the window mean.
  double feed_clean_trace(const PowerTrace& trace) {
    const double window_mean = trace.mean_power().value();
    mean_acc_ += window_mean;
    r_.energy_j += trace.energy().value();
    bucket(trace.t0().value(), trace.dt().value(), 0, trace.watts());
    ++windows_contributing_;
    return window_mean;
  }

  /// Faulted path: corrupt, flag, repair and despike one window's clean
  /// trace.  Returns the window mean when the window contributed, nullopt
  /// when it was fully lost.
  std::optional<double> feed_faulted_window(const PowerTrace& clean,
                                            const TimeWindow& w) {
    GappyTrace gappy = inject_faults(clean, fp_->spec, fate_, *fault_rng_);
    r_.stuck_flagged += flag_stuck_runs(gappy, fp_->stuck_run_min);
    const GapStats gs = gappy.gap_stats();
    valid_total_ += gs.total - gs.missing;
    r_.samples_lost += gs.missing;
    if (gs.missing == gs.total) return std::nullopt;  // window fully lost

    const PowerTrace dense = gappy.repaired(fp_->repair);
    const HampelResult despiked = hampel_filter(
        dense.watts(), fp_->hampel_half_window, fp_->hampel_n_sigmas);
    r_.spikes_filtered += despiked.outlier_count;
    r_.samples_repaired += gs.missing;
    const double window_mean = mean_of(despiked.filtered);
    mean_acc_ += window_mean;
    r_.energy_j += window_mean * w.duration().value();
    ++windows_contributing_;
    bucket(dense.t0().value(), dense.dt().value(), 0, despiked.filtered);
    return window_mean;
  }

  /// Finalizes the reading: clean mean over all windows, or the faulted
  /// coverage-floor verdict.  Call exactly once, after the last window.
  DeviceReading finish() {
    if (dead_) return std::move(r_);
    if (!faulty_) {
      r_.mean_w = mean_acc_ / static_cast<double>(n_windows_);
      finish_buckets();
      return std::move(r_);
    }
    const double coverage =
        r_.samples_expected == 0
            ? 0.0
            : static_cast<double>(valid_total_) /
                  static_cast<double>(r_.samples_expected);
    if (windows_contributing_ == 0 || coverage < fp_->min_coverage) {
      r_.lost = true;
      // A discarded series repairs nothing; its whole record is lost.
      r_.samples_lost = r_.samples_expected;
      r_.samples_repaired = 0;
      r_.energy_j = 0.0;
      return std::move(r_);
    }
    r_.mean_w = mean_acc_ / static_cast<double>(windows_contributing_);
    finish_buckets();
    return std::move(r_);
  }

  // --- read-only mid-run snapshots for partial (live) reporting.  None
  // of these mutate state or draw RNG, so emission cannot perturb the
  // final numbers.

  /// Device has at least one contributing (or open, partially-fed)
  /// window to report on.
  [[nodiscard]] bool live_has_data() const {
    return !dead_ && (windows_contributing_ > 0 || win_n_ > 0);
  }
  /// Running mean over contributing windows, including the open window's
  /// partial samples when present.
  [[nodiscard]] double live_mean_w() const {
    double acc = mean_acc_;
    std::size_t n = windows_contributing_;
    if (win_n_ > 0) {
      acc += (0.0 + win_sum_) / static_cast<double>(win_n_);
      ++n;
    }
    return acc / static_cast<double>(n);
  }
  /// Energy accumulated so far, including the open window's samples.
  [[nodiscard]] double live_energy_j() const {
    double e = r_.energy_j;
    if (win_n_ > 0) e += (0.0 + win_sum_) * win_dt_;
    return e;
  }

 private:
  // Accumulates per-analysis-window sums for cross-validation on the
  // *window-global* sample index.  Reading already-produced values draws
  // no RNG, so enabling reconciliation cannot perturb the metered
  // numbers.
  void bucket(double t0, double dt, std::size_t first,
              std::span<const double> values) {
    if (analysis_ == nullptr) return;
    for (std::size_t j = 0; j < values.size(); ++j) {
      const double t = t0 + (static_cast<double>(first + j) + 0.5) * dt;
      for (std::size_t a = 0; a < analysis_->size(); ++a) {
        const TimeWindow& aw = (*analysis_)[a];
        if (t >= aw.begin.value() && t < aw.end.value()) {
          bucket_sum_[a] += values[j];
          ++bucket_n_[a];
          break;
        }
      }
    }
  }

  void finish_buckets() {
    if (analysis_ == nullptr) return;
    r_.analysis_means_w.assign(analysis_->size(),
                               std::numeric_limits<double>::quiet_NaN());
    for (std::size_t a = 0; a < analysis_->size(); ++a) {
      if (bucket_n_[a] > 0) {
        r_.analysis_means_w[a] =
            bucket_sum_[a] / static_cast<double>(bucket_n_[a]);
      }
    }
  }

  const FaultPlan* fp_;
  const std::vector<TimeWindow>* analysis_;
  std::size_t n_windows_;
  DeviceReading r_;
  std::vector<double> bucket_sum_;
  std::vector<std::size_t> bucket_n_;
  bool faulty_ = false;
  bool dead_ = false;
  double mean_acc_ = 0.0;
  std::size_t windows_contributing_ = 0;
  std::size_t valid_total_ = 0;
  // Open clean window: left-to-right chained sum + sample count.
  double win_sum_ = 0.0;
  double win_dt_ = 0.0;
  std::size_t win_n_ = 0;
  // Faulted state: the fate is drawn once; the fault stream persists
  // across windows exactly like the historical single-loop consumption.
  MeterFate fate_;
  std::optional<Rng> fault_rng_;
};

// Meters `truth` over every window by driving a DeviceMeter through the
// batch feeding order.  With `stream_scope` set the clean readings come
// from the streaming kernels instead of the truth function —
// bit-identical by construction (sim/streaming.hpp), so everything
// downstream is shared verbatim.
DeviceReading meter_device(const MeterModel& meter,
                           const PowerFunction& truth,
                           const std::vector<TimeWindow>& windows,
                           TimeWindow campaign_window, Rng& noise,
                           const CampaignConfig& config,
                           std::uint64_t stream, std::size_t meter_id,
                           const std::vector<TimeWindow>* analysis = nullptr,
                           const StreamScope* stream_scope = nullptr) {
  DeviceMeter dm(config.faults, config.seed, stream, meter_id,
                 campaign_window, windows.size(),
                 expected_samples(windows, meter), analysis);
  if (dm.dead()) return dm.finish();

  if (!config.faults.enabled()) {
    if (stream_scope != nullptr) {
      // Streaming clean path: no PowerTrace, no per-window allocation.
      StreamScratch& scratch = *stream_scope->scratch;
      for (std::size_t wi = 0; wi < windows.size(); ++wi) {
        const ShapeTable& table = (*stream_scope->tables)[wi];
        stream_node_window(table, stream_scope->mean_w, stream_scope->curve,
                           meter, noise, scratch);
        dm.feed_clean_chunk(table.t_begin, table.dt, 0, scratch.readings);
        dm.close_clean_window();
      }
    } else {
      for (const TimeWindow& w : windows) {
        dm.feed_clean_trace(meter.measure(truth, w.begin, w.end, noise));
      }
    }
    return dm.finish();
  }

  for (std::size_t wi = 0; wi < windows.size(); ++wi) {
    const TimeWindow& w = windows[wi];
    // The fault pipeline consumes a materialized trace either way; the
    // streaming engine only swaps how the clean readings are produced.
    const PowerTrace clean = [&] {
      if (stream_scope == nullptr) {
        return meter.measure(truth, w.begin, w.end, noise);
      }
      stream_node_window((*stream_scope->tables)[wi], stream_scope->mean_w,
                         stream_scope->curve, meter, noise,
                         *stream_scope->scratch);
      return PowerTrace(w.begin, meter.interval(),
                        stream_scope->scratch->readings);
    }();
    dm.feed_faulted_window(clean, w);
  }
  return dm.finish();
}

void absorb_tallies(DataQuality& dq, const DeviceReading& r) {
  dq.samples_expected += r.samples_expected;
  dq.samples_lost += r.samples_lost;
  dq.samples_repaired += r.samples_repaired;
  dq.spikes_filtered += r.spikes_filtered;
  dq.stuck_flagged += r.stuck_flagged;
}

void finalize_quality(DataQuality& dq) {
  dq.sample_coverage =
      dq.samples_expected == 0
          ? 1.0
          : static_cast<double>(dq.samples_expected - dq.samples_lost) /
                static_cast<double>(dq.samples_expected);
}

// RNG streams: nodes use their node id, rack taps 1'000'000 + rack, the
// facility feed 9'999'999; the trusted check meters reconciliation reads
// the hierarchy through sit on disjoint streams below.
constexpr std::uint64_t kRackStreamBase = 1'000'000;
constexpr std::uint64_t kFacilityStream = 9'999'999;
constexpr std::uint64_t kRackCheckStreamBase = 3'000'000;
constexpr std::uint64_t kFacilityCheckStream = 9'999'998;

// A fault-free reference meter read over each analysis window: the
// facility-grade instrumentation (Cray PMDB style) the hierarchy check
// trusts.  Its calibration error still applies — the check tolerates it
// because verdicts come from the cohort statistics, and the hierarchy
// residual only confirms them.
std::vector<double> measure_check_meter(const PowerFunction& truth,
                                        const std::vector<TimeWindow>& analysis,
                                        const MeasurementPlan& plan,
                                        const CampaignConfig& config,
                                        Seconds interval,
                                        std::uint64_t stream) {
  Rng calibration(config.seed ^ kCalibrationSalt, stream);
  Rng noise(config.seed ^ kNoiseSalt, stream);
  const MeterModel meter(config.meter_accuracy, plan.meter_mode, interval,
                         calibration);
  std::vector<double> means;
  means.reserve(analysis.size());
  for (const TimeWindow& w : analysis) {
    const PowerTrace trace = meter.measure(truth, w.begin, w.end, noise);
    means.push_back(trace.mean_power().value());
  }
  return means;
}

// Memo of a power function that, under the lowered model, depends on t
// only through the cluster's shared shape factor: keyed on the shape's
// bit pattern, so every hit returns the exact double a direct evaluation
// would (lowered_model_probe is the gate).  Steady phases then cost one
// evaluation instead of one per panel or sample.
class ShapeMemo {
 public:
  explicit ShapeMemo(const ClusterPowerModel& cluster) : cluster_(&cluster) {}

  template <class Eval>
  double operator()(double t, const Eval& eval) {
    const double s = cluster_->shape_factor(t);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &s, sizeof bits);
    const auto it = memo_.find(bits);
    if (it != memo_.end()) return it->second;
    const double v = eval(t);
    memo_.emplace(bits, v);
    return v;
  }

 private:
  const ClusterPowerModel* cluster_;
  std::unordered_map<std::uint64_t, double> memo_;
};

// Hierarchy checks for a node-AC campaign: one rack-PDU check meter per
// rack whose node meters all produced a series, and — when every rack is
// checkable and no auxiliary subsystems muddy the sum — a facility check
// over the rack check meters.  DC taps are skipped: the per-node PSU
// correction is nonlinear, so the rack sum is not a clean function of the
// DC series (the cohort check still covers those campaigns).
//
// With a non-null `memo_shape` (the streaming probe held) each check
// meter reads rack_pdu_w or compute_ac_w through a ShapeMemo of its own,
// held inside its truth function — the same samples, without re-walking
// every node's PSU per sample.
std::vector<HierarchyCheck> build_hierarchy_checks(
    const SystemPowerModel& electrical, const MeasurementPlan& plan,
    const CampaignConfig& config, Seconds interval,
    const std::vector<TimeWindow>& analysis,
    const std::vector<MeterSeries>& node_series,
    const ClusterPowerModel* memo_shape) {
  std::vector<HierarchyCheck> checks;
  if (plan.point != MeasurementPoint::kNodeAc) return checks;

  std::vector<const MeterSeries*> by_node(electrical.node_count(), nullptr);
  for (const MeterSeries& s : node_series) by_node[s.meter_id] = &s;

  const double loss_scale = 1.0 / (1.0 - electrical.pdu_loss_fraction());
  bool all_racks_checkable = electrical.rack_count() > 0;
  for (std::size_t rack = 0; rack < electrical.rack_count(); ++rack) {
    const std::size_t first = rack * electrical.nodes_per_rack();
    const std::size_t last =
        std::min(first + electrical.nodes_per_rack(), electrical.node_count());
    bool checkable = true;
    for (std::size_t node = first; node < last; ++node) {
      if (by_node[node] == nullptr) {
        checkable = false;
        break;
      }
    }
    if (!checkable) {
      all_racks_checkable = false;
      continue;
    }
    const auto rack_w = [&electrical, rack](double t) {
      return electrical.rack_pdu_w(rack, t);
    };
    PowerFunction truth = rack_w;
    if (memo_shape != nullptr) {
      truth = [memo = ShapeMemo(*memo_shape), rack_w](double t) mutable {
        return memo(t, rack_w);
      };
    }
    HierarchyCheck check;
    check.label = "rack " + std::to_string(rack);
    check.parent_id = kRackCheckStreamBase + rack;
    check.parent_means_w = measure_check_meter(
        truth, analysis, plan, config, interval, kRackCheckStreamBase + rack);
    for (std::size_t node = first; node < last; ++node) {
      check.child_ids.push_back(node);
      check.child_means_w.push_back(by_node[node]->means_w);
    }
    check.child_scale = loss_scale;
    checks.push_back(std::move(check));
  }

  const double t_mid =
      plan.window.begin.value() + 0.5 * plan.window.duration().value();
  if (all_racks_checkable && electrical.auxiliary_ac_w(t_mid) == 0.0) {
    // memo(compute) + auxiliary is facility_w's own expression; the
    // auxiliaries have no shape identity to key on and stay direct.
    PowerFunction truth = electrical.facility_function();
    if (memo_shape != nullptr) {
      truth = [memo = ShapeMemo(*memo_shape), &electrical](double t) mutable {
        return memo(t, [&electrical](double u) {
                 return electrical.compute_ac_w(u);
               }) +
               electrical.auxiliary_ac_w(t);
      };
    }
    HierarchyCheck facility;
    facility.label = "facility";
    facility.parent_id = kFacilityCheckStream;
    facility.parent_means_w = measure_check_meter(
        truth, analysis, plan, config, interval, kFacilityCheckStream);
    for (const HierarchyCheck& rack : checks) {
      facility.child_ids.push_back(rack.parent_id);
      facility.child_means_w.push_back(rack.parent_means_w);
    }
    facility.child_scale = 1.0;
    checks.push_back(std::move(facility));
  }
  return checks;
}

// Ground truth for a streaming-verified campaign.  When the electrical
// model is the cluster lowered through make_system_power_model (which the
// streaming probe has checked), compute_ac_w depends on t only through
// the shared shape factor — so panel evaluations over a steady phase are
// the same double over and over.  Memoizing them on the shape's bit
// pattern leaves the integration grid, the summation order and every
// per-panel value untouched: average_over sees a function returning the
// exact doubles compute_ac_w would return, just without recomputing the
// 240-node PSU sum per panel.
Watts streaming_true_scope_power(const ClusterPowerModel& cluster,
                                 const SystemPowerModel& electrical,
                                 const MethodologySpec& spec) {
  const TimeWindow core = cluster.phases().core_window();
  ShapeMemo memo(cluster);
  const double compute = mean_over_window(
      [&](double t) {
        return memo(t, [&](double u) { return electrical.compute_ac_w(u); });
      },
      core.begin.value(), core.end.value());
  if (spec.subsystems == SubsystemRule::kComputeOnly) return Watts{compute};
  // Auxiliaries are arbitrary functions of t (no shape identity to key
  // on); their panel evaluations stay direct.
  const double aux = mean_over_window(
      [&](double t) { return electrical.auxiliary_ac_w(t); },
      core.begin.value(), core.end.value());
  return Watts{compute + aux};
}

// --- stages ---------------------------------------------------------------

// Worker threads for the node fan-outs: the meter fan-out knob, widened
// by the reconcile knob when the defense is on.
std::size_t node_fanout(const CampaignConfig& config, bool reconciling) {
  return std::max<std::size_t>(
      {config.threads,
       reconciling ? static_cast<std::size_t>(config.reconcile.threads)
                   : std::size_t{1},
       std::size_t{1}});
}

class ProvisionStage final : public CampaignStage {
 public:
  [[nodiscard]] const char* name() const override { return "provision"; }

  void run(CampaignContext& ctx, StageTrace& trace) override {
    const ClusterPowerModel& cluster = *ctx.cluster;
    const SystemPowerModel& electrical = *ctx.electrical;
    const MeasurementPlan& plan = *ctx.plan;
    const CampaignConfig& config = *ctx.config;

    ctx.interval = config.meter_interval_override.value() > 0.0
                       ? config.meter_interval_override
                       : plan.meter_interval;
    ctx.faulty = config.faults.enabled();
    ctx.result.system_name = cluster.name();
    ctx.result.nodes_measured = plan.node_count();
    ctx.result.window_duration = plan.window.duration();
    ctx.dq().faults_enabled = ctx.faulty;

    // The time windows this plan actually meters (aspect 1).
    ctx.windows = metered_windows(plan, ctx.interval);

    switch (plan.point) {
      case MeasurementPoint::kFacilityFeed:
        ctx.dq().meters_planned = 1;
        break;
      case MeasurementPoint::kRackPdu: {
        for (std::size_t node : plan.node_indices) {
          PV_EXPECTS(node < cluster.node_count(),
                     "plan references missing node");
          ctx.racks.push_back(node / electrical.nodes_per_rack());
        }
        std::sort(ctx.racks.begin(), ctx.racks.end());
        ctx.racks.erase(std::unique(ctx.racks.begin(), ctx.racks.end()),
                        ctx.racks.end());
        ctx.dq().meters_planned = ctx.racks.size();
        break;
      }
      default: {
        ctx.dq().meters_planned = plan.node_count();
        ctx.reconciling = config.reconcile.enabled;
        if (ctx.reconciling) {
          ctx.analysis = make_analysis_windows(
              ctx.windows, config.reconcile.analysis_windows);
        }
        // Streaming engine: engaged only when the exact lowered-model
        // probe holds — any mismatch (a hand-built SystemPowerModel) falls
        // back to the eager path, whose arithmetic the kernels reproduce
        // bit-for-bit anyway.
        const bool streaming = config.engine == CampaignEngine::kStreaming &&
                               lowered_model_probe(cluster, electrical, plan);
        ctx.streaming = streaming;
        // The live (bounded-memory) meter stage builds its own per-chunk
        // shape tables on the fly — materializing every window here would
        // defeat its O(nodes + windows) footprint.
        if (streaming && !config.live.enabled) {
          ctx.tables = build_shape_tables(cluster, ctx.windows, ctx.interval,
                                          plan.meter_mode);
        }
        // Transpose the cohort into the fleet table: meter models +
        // calibration columns, per-node noise streams, PSU lanes and
        // fault flags, in plan order.  Built once here, shared by every
        // downstream metering path (batch, live, async collection).
        // Sharded over the fan-out pool; every lane is a pure function
        // of its own node id, so the build is bit-identical at any
        // thread count.
        {
          FleetProvisionSpec fspec;
          fspec.accuracy = config.meter_accuracy;
          fspec.mode = plan.meter_mode;
          fspec.interval = ctx.interval;
          fspec.seed = config.seed;
          fspec.ac_tap = plan.point != MeasurementPoint::kNodeDc;
          const std::size_t fanout = node_fanout(config, ctx.reconciling);
          std::optional<ThreadPool> pool;
          if (fanout > 1) pool.emplace(static_cast<unsigned>(fanout));
          ctx.fleet = std::make_unique<FleetState>(build_fleet_state(
              plan.node_indices, fspec, ctx.windows,
              ctx.faulty ? &config.faults : nullptr, &cluster, &electrical,
              pool ? &*pool : nullptr));
        }
        break;
      }
    }

    // Expected sample count of any one meter: a probe model on a
    // throwaway RNG stream — campaign streams are untouched.
    {
      Rng probe_rng(0, 0);
      const MeterModel probe(config.meter_accuracy, plan.meter_mode,
                             ctx.interval, probe_rng);
      ctx.samples_per_meter = expected_samples(ctx.windows, probe);
    }

    trace.items = ctx.dq().meters_planned;
    trace.samples = ctx.samples_per_meter * ctx.dq().meters_planned;
    trace.virtual_s = plan.window.duration().value();
    trace.counters = {
        {"windows", static_cast<double>(ctx.windows.size())},
        {"analysis_windows", static_cast<double>(ctx.analysis.size())},
        {"streaming", ctx.streaming ? 1.0 : 0.0},
        {"interval_s", ctx.interval.value()},
        {"fleet_nodes",
         ctx.fleet ? static_cast<double>(ctx.fleet->size()) : 0.0},
        {"fleet_psu_shared",
         ctx.fleet && ctx.fleet->bank.shared() ? 1.0 : 0.0},
    };
  }
};

// Virtual seconds a meter stage covered: every meter reads every window.
double metered_virtual_s(const CampaignContext& ctx, std::size_t meters) {
  double s = 0.0;
  for (const TimeWindow& w : ctx.windows) s += w.duration().value();
  return s * static_cast<double>(meters);
}

class NodeMeterStage final : public CampaignStage {
 public:
  [[nodiscard]] const char* name() const override { return "meter"; }

  void run(CampaignContext& ctx, StageTrace& trace) override {
    const SystemPowerModel& electrical = *ctx.electrical;
    const MeasurementPlan& plan = *ctx.plan;
    const CampaignConfig& config = *ctx.config;
    const bool streaming = ctx.streaming;
    const bool reconciling = ctx.reconciling;

    // Meter every selected node through the fleet table Provision built:
    // calibration errors and noise streams were drawn there, keyed by the
    // node id, so this stage only consumes lanes.
    PV_EXPECTS(ctx.fleet != nullptr, "meter stage needs a provisioned fleet");
    FleetState& fleet = *ctx.fleet;
    const std::size_t n = plan.node_count();
    ctx.devices.resize(n);
    ctx.readings.resize(n);
    const std::size_t fanout = node_fanout(config, reconciling);
    // Fused fleet kernels: clean streaming campaigns stream every window
    // sample-major with the node index as the SIMD lane.  Faulted
    // campaigns keep the per-node path — the corruption pipeline needs a
    // materialized trace per node per window.
    const bool fused = streaming && !ctx.faulty && config.fleet_soa;

    // DeviceReading -> NodeReading, identical to the historical tail.
    const auto to_node_reading = [&](std::size_t i) {
      const DeviceReading& reading = ctx.devices[i];
      NodeReading nr;
      nr.node = plan.node_indices[i];
      nr.lost = reading.lost;
      if (!reading.lost) {
        nr.mean_w = reading.mean_w;
        nr.energy_j = reading.energy_j;
        if (plan.timing != TimingStrategy::kContinuous) {
          // Spot sampling: report energy as mean power over the window.
          nr.energy_j = nr.mean_w * plan.window.duration().value();
        }
        apply_dc_conversion(plan, electrical, nr.node, nr.mean_w,
                            nr.energy_j);
      }
      ctx.readings[i] = nr;
    };

    if (fused) {
      // Each lane runs the per-node expressions operand for operand
      // (sim/fleet_state.hpp), so the finished devices carry the same
      // bits meter_device would produce lane by lane.
      std::vector<std::vector<std::int32_t>> analysis_idx;
      FleetAccumulators acc;
      acc.init(n, reconciling ? ctx.analysis.size() : 0);
      if (reconciling) {
        // The sample grid is shared across the clean cohort, so the
        // bucket mapping and counts are computed once per window — the
        // per-node path recomputed them per device.
        analysis_idx.reserve(ctx.tables.size());
        for (const ShapeTable& t : ctx.tables) {
          analysis_idx.push_back(map_analysis_samples(t, ctx.analysis));
          count_analysis_samples(analysis_idx.back(), acc.bucket_n);
        }
      }
      const auto stream_lanes = [&](std::size_t b, std::size_t e) {
        FleetScratch scratch;
        stream_fleet_windows(ctx.tables, analysis_idx, fleet, b, e, acc,
                             scratch);
      };
      if (fanout > 1) {
        ThreadPool pool(static_cast<unsigned>(fanout));
        parallel_chunks(&pool, n, stream_lanes);
      } else {
        stream_lanes(0, n);
      }
      // Finish: the exact DeviceMeter::finish()/finish_buckets()
      // expressions per lane.
      const double n_windows = static_cast<double>(ctx.windows.size());
      for (std::size_t i = 0; i < n; ++i) {
        DeviceReading r;
        r.mean_w = acc.mean_acc[i] / n_windows;
        r.energy_j = acc.energy_j[i];
        if (reconciling) {
          r.analysis_means_w.assign(
              ctx.analysis.size(), std::numeric_limits<double>::quiet_NaN());
          for (std::size_t a = 0; a < ctx.analysis.size(); ++a) {
            if (acc.bucket_n[a] > 0) {
              r.analysis_means_w[a] = acc.bucket_sum[a * n + i] /
                                      static_cast<double>(acc.bucket_n[a]);
            }
          }
        }
        ctx.devices[i] = std::move(r);
        to_node_reading(i);
      }
    } else {
      const auto meter_one = [&](std::size_t i, StreamScratch& scratch) {
        const std::size_t node = plan.node_indices[i];
        PowerFunction truth;  // only the eager path walks the function chain
        StreamScope scope;
        if (streaming) {
          scope.tables = &ctx.tables;
          scope.mean_w = fleet.mean_w[i];
          scope.curve = fleet.curve[i];
          scope.scratch = &scratch;
        } else {
          truth = plan.point == MeasurementPoint::kNodeDc
                      ? PowerFunction([&electrical, node](double t) {
                          return electrical.node_dc_w(node, t);
                        })
                      : electrical.node_ac_function(node);
        }
        ctx.devices[i] = meter_device(
            fleet.meters[i], truth, ctx.windows, plan.window, fleet.noise[i],
            config, node, node, reconciling ? &ctx.analysis : nullptr,
            streaming ? &scope : nullptr);
        to_node_reading(i);
      };
      // Every lane's streams are keyed by its node id and every result
      // lands in its own slot, so the fan-out is bit-identical at any
      // thread count.  Chunked sharding gives each worker one contiguous
      // range and one scratch buffer reused across all of its nodes.
      if (fanout > 1) {
        ThreadPool pool(static_cast<unsigned>(fanout));
        parallel_chunks(&pool, n, [&](std::size_t begin, std::size_t end) {
          StreamScratch scratch;
          for (std::size_t i = begin; i < end; ++i) {
            meter_one(i, scratch);
          }
        });
      } else {
        StreamScratch scratch;
        for (std::size_t i = 0; i < n; ++i) {
          meter_one(i, scratch);
        }
      }
    }

    std::size_t lost = 0;
    for (const NodeReading& nr : ctx.readings) lost += nr.lost ? 1 : 0;
    trace.items = ctx.readings.size();
    trace.samples = ctx.samples_per_meter * ctx.readings.size();
    trace.virtual_s = metered_virtual_s(ctx, ctx.readings.size());
    trace.counters = {
        {"engine_streaming", streaming ? 1.0 : 0.0},
        {"fleet_fused", fused ? 1.0 : 0.0},
        {"fanout", static_cast<double>(fanout)},
        {"lost", static_cast<double>(lost)},
    };
  }
};

// One closed metering window's fleet-level summary, retained in the live
// stage's fixed-capacity ring buffer.
struct WindowSummary {
  std::size_t index = 0;
  double fleet_mean_w = 0.0;
  std::size_t nodes = 0;
};

// Bounded-memory node-tap Meter stage (config.live).  Window-major: the
// outer loop walks metering windows — clean streaming campaigns in
// fixed-size shape chunks — and the inner fan-out walks per-node slots.
// Peak footprint is O(nodes + chunk_samples + analysis windows),
// independent of campaign length, versus the batch stage's O(total
// samples) up-front shape tables.
//
// Byte-identity with NodeMeterStage: every per-node RNG stream is keyed
// identically and consumed in the identical time order (calibration at
// slot build, noise chunk-by-chunk within each node), kernel chunks
// evaluate the window-global sample grid, and DeviceMeter chains every
// accumulator in batch feeding order.  The pool barrier after each chunk
// gives the serial bookkeeping a happens-before edge over every worker
// write.  test_streaming_assessment memcmps the result against the batch
// stage across seeds x levels x threads x fault plans.
class LiveNodeMeterStage final : public CampaignStage {
 public:
  [[nodiscard]] const char* name() const override { return "meter"; }

  void run(CampaignContext& ctx, StageTrace& trace) override {
    const ClusterPowerModel& cluster = *ctx.cluster;
    const SystemPowerModel& electrical = *ctx.electrical;
    const MeasurementPlan& plan = *ctx.plan;
    const CampaignConfig& config = *ctx.config;
    const LiveOptions& live = config.live;
    const bool streaming = ctx.streaming;
    const bool reconciling = ctx.reconciling;
    const bool faulty = ctx.faulty;
    const std::size_t n = plan.node_count();

    // The cohort's meters, noise streams, means and PSU lanes live in the
    // fleet table Provision built; this stage only consumes lanes.
    PV_EXPECTS(ctx.fleet != nullptr, "meter stage needs a provisioned fleet");
    FleetState& fleet = *ctx.fleet;

    // Per-node driver state: everything a worker mutates for node i lives
    // in slot i (or lane i of the fleet), so the window-major fan-out is
    // bit-identical at any thread count.
    struct NodeSlot {
      DeviceMeter dm;
      PowerFunction truth;       // eager truth chain
      double window_mean = 0.0;  // current window's mean (worker-written)
      bool window_contributed = false;
    };
    std::vector<NodeSlot> slots;
    slots.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t node = plan.node_indices[i];
      DeviceMeter dm(config.faults, config.seed, node, node, plan.window,
                     ctx.windows.size(), fleet.samples_expected[i],
                     reconciling ? &ctx.analysis : nullptr);
      NodeSlot slot{std::move(dm), PowerFunction{}, 0.0, false};
      if (!streaming) {
        slot.truth = plan.point == MeasurementPoint::kNodeDc
                         ? PowerFunction([&electrical, node](double t) {
                             return electrical.node_dc_w(node, t);
                           })
                         : electrical.node_ac_function(node);
      }
      slots.push_back(std::move(slot));
    }

    const std::size_t fanout = node_fanout(config, reconciling);
    std::optional<ThreadPool> pool;
    if (fanout > 1) pool.emplace(static_cast<unsigned>(fanout));
    ThreadPool* const pool_ptr = pool ? &*pool : nullptr;

    // Campaign-wide bounded state: a fixed-capacity ring of closed-window
    // fleet summaries plus a mergeable quantile sketch over per-node
    // window means — one small sketch per closed window, merged in, which
    // is exact (sketch-of-stream == merge-of-window-sketches, pinned by
    // the sketch property tests).
    RingBuffer<WindowSummary> ring(
        std::max<std::size_t>(std::size_t{1}, live.history_windows));
    QuantileSketch campaign_sketch(0.01);
    std::size_t windows_closed = 0;
    std::size_t chunks_run = 0;
    std::size_t partials = 0;

    // Ground truth for partial documents, computed once on first use (the
    // final document's truth comes from AssessStage as usual).
    std::optional<double> truth_cache;
    const auto truth_w = [&]() -> double {
      if (!truth_cache) {
        truth_cache =
            (streaming
                 ? streaming_true_scope_power(cluster, electrical, plan.spec)
                 : true_scope_power(cluster, electrical, plan.spec))
                .value();
      }
      return *truth_cache;
    };

    // Emits one partial assessment Document from a read-only snapshot of
    // the slots.  Runs strictly between fan-out barriers; draws no RNG
    // and mutates no metering state, so emission cannot perturb the
    // final numbers.
    const auto emit_partial = [&](double virtual_now) {
      if (!config.live_sink) return;
      std::vector<NodeReading> partial;
      partial.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        const NodeSlot& s = slots[i];
        if (!s.dm.live_has_data()) continue;
        NodeReading nr;
        nr.node = plan.node_indices[i];
        nr.lost = false;
        nr.mean_w = s.dm.live_mean_w();
        nr.energy_j = s.dm.live_energy_j();
        if (plan.timing != TimingStrategy::kContinuous) {
          nr.energy_j = nr.mean_w * plan.window.duration().value();
        }
        apply_dc_conversion(plan, electrical, nr.node, nr.mean_w,
                            nr.energy_j);
        partial.push_back(nr);
      }
      if (partial.empty()) return;

      // Run the snapshot through the exact node-tap Aggregate tail the
      // final result uses, on a scratch context.
      CampaignContext snap;
      snap.cluster = ctx.cluster;
      snap.electrical = ctx.electrical;
      snap.plan = ctx.plan;
      snap.config = ctx.config;
      snap.readings = std::move(partial);
      snap.dq().meters_planned = ctx.dq().meters_planned;
      snap.dq().faults_enabled = faulty;
      aggregate_nodes(snap);
      snap.result.true_power = Watts{truth_w()};
      snap.result.relative_error =
          std::fabs(snap.result.submitted_power.value() - truth_w()) /
          truth_w();

      LiveProgress prog;
      prog.seq = partials;
      prog.virtual_s = virtual_now;
      prog.windows_closed = windows_closed;
      prog.nodes_reporting = snap.readings.size();
      prog.window_capacity = ring.capacity();
      for (std::size_t i = 0; i < ring.size(); ++i) {
        prog.recent_windows.emplace_back(ring[i].index, ring[i].fleet_mean_w);
      }
      prog.sketch_count = campaign_sketch.count();
      if (!campaign_sketch.empty()) {
        prog.sketch_bins = campaign_sketch.bin_count();
        prog.sketch_alpha = campaign_sketch.alpha();
        prog.p05_w = campaign_sketch.quantile(0.05);
        prog.p50_w = campaign_sketch.quantile(0.50);
        prog.p95_w = campaign_sketch.quantile(0.95);
      }
      // One complete rendered line per call — the sink never observes a
      // torn document.
      config.live_sink(
          render_json(live_assessment_document(plan, snap.result, prog)));
      ++partials;
    };

    // Pinned virtual-time emission schedule: thresholds advance from the
    // first window's origin in emit_every_s steps, checked at chunk and
    // window boundaries, so reruns emit identical partials at identical
    // points.
    double next_emit = ctx.windows.empty()
                           ? 0.0
                           : ctx.windows.front().begin.value() +
                                 live.emit_every_s;
    const auto maybe_emit = [&](double virtual_now) {
      if (live.emit_every_s <= 0.0) return;
      if (virtual_now + 1e-9 < next_emit) return;
      emit_partial(virtual_now);
      while (next_emit <= virtual_now + 1e-9) next_emit += live.emit_every_s;
    };

    // Closes window `wi` fleet-wide: per-node window means feed one
    // window sketch (merged into the campaign sketch) and the ring.
    const auto close_window_stats = [&](std::size_t wi) {
      QuantileSketch window_sketch(campaign_sketch.alpha());
      FusedAccumulator fleet;
      for (const NodeSlot& s : slots) {
        if (!s.window_contributed) continue;
        window_sketch.push(s.window_mean);
        fleet.push(s.window_mean);
      }
      campaign_sketch.merge(window_sketch);
      if (!fleet.empty()) {
        ring.push(WindowSummary{wi, fleet.mean(), fleet.count()});
      }
      ++windows_closed;
    };

    double virtual_now =
        ctx.windows.empty() ? 0.0 : ctx.windows.front().begin.value();
    if (streaming && !faulty) {
      // Clean streaming driver: each window streams in fixed-size chunks
      // of the window-global sample grid.  The chunk's shape table is
      // built serially (once, shared by every node) and its storage is
      // reused, so peak memory never depends on the window length.
      //
      // Fused variant (fleet_soa, no reconcile buckets): the chunk
      // streams through the fleet kernels with the node index as the
      // SIMD lane, chaining each lane's running sum in a stage-owned
      // vector; the serial adopt below hands the chained sums to the
      // DeviceMeters between barriers, so live snapshots and window
      // closes observe the exact per-node state.
      const std::size_t chunk_cap =
          std::max<std::size_t>(std::size_t{1}, live.chunk_samples);
      ShapeTable chunk;
      const bool fused = config.fleet_soa && !reconciling;
      std::vector<double> fleet_win_sum;
      if (fused) fleet_win_sum.assign(n, 0.0);
      for (std::size_t wi = 0; wi < ctx.windows.size(); ++wi) {
        const TimeWindow& w = ctx.windows[wi];
        const std::size_t samples = window_sample_count(w, ctx.interval);
        PV_EXPECTS(samples > 0,
                   "window shorter than one reporting interval");
        for (std::size_t first = 0; first < samples; first += chunk_cap) {
          const std::size_t count = std::min(chunk_cap, samples - first);
          build_shape_chunk(cluster, w, ctx.interval, plan.meter_mode, first,
                            count, chunk);
          if (fused) {
            parallel_chunks(pool_ptr, n, [&](std::size_t b, std::size_t e) {
              FleetScratch scratch;
              stream_fleet_chunk(chunk, fleet, b, e,
                                 std::span<double>(fleet_win_sum), scratch);
            });
            for (std::size_t i = 0; i < n; ++i) {
              slots[i].dm.adopt_clean_chunk(fleet_win_sum[i], count,
                                            chunk.dt);
            }
          } else {
            parallel_chunks(pool_ptr, n, [&](std::size_t b, std::size_t e) {
              StreamScratch scratch;
              for (std::size_t i = b; i < e; ++i) {
                NodeSlot& s = slots[i];
                stream_node_window(chunk, fleet.mean_w[i], fleet.curve[i],
                                   fleet.meters[i], fleet.noise[i], scratch);
                s.dm.feed_clean_chunk(chunk.t_begin, chunk.dt, first,
                                      scratch.readings);
              }
            });
          }
          ++chunks_run;
          virtual_now = w.begin.value() +
                        ctx.interval.value() *
                            static_cast<double>(first + count);
          maybe_emit(virtual_now);
        }
        for (NodeSlot& s : slots) {
          s.window_mean = s.dm.close_clean_window();
          s.window_contributed = true;
        }
        if (fused) {
          std::fill(fleet_win_sum.begin(), fleet_win_sum.end(), 0.0);
        }
        close_window_stats(wi);
        virtual_now = w.end.value();
        if (live.emit_every_s <= 0.0) emit_partial(virtual_now);
      }
    } else {
      // Whole-window driver (faulted campaigns need a materialized clean
      // trace per window for the corruption pipeline; eager clean
      // campaigns measure per window anyway).  Only one window per node
      // is ever in flight, so memory stays bounded by the window length.
      ShapeTable chunk;
      for (std::size_t wi = 0; wi < ctx.windows.size(); ++wi) {
        const TimeWindow& w = ctx.windows[wi];
        if (streaming) {
          const std::size_t samples = window_sample_count(w, ctx.interval);
          PV_EXPECTS(samples > 0,
                     "window shorter than one reporting interval");
          build_shape_chunk(cluster, w, ctx.interval, plan.meter_mode, 0,
                            samples, chunk);
        }
        parallel_chunks(pool_ptr, n, [&](std::size_t b, std::size_t e) {
          StreamScratch scratch;
          for (std::size_t i = b; i < e; ++i) {
            NodeSlot& s = slots[i];
            s.window_contributed = false;
            if (s.dm.dead()) continue;
            if (!faulty) {
              s.window_mean = s.dm.feed_clean_trace(fleet.meters[i].measure(
                  s.truth, w.begin, w.end, fleet.noise[i]));
              s.window_contributed = true;
              continue;
            }
            const PowerTrace clean = [&] {
              if (!streaming) {
                return fleet.meters[i].measure(s.truth, w.begin, w.end,
                                               fleet.noise[i]);
              }
              stream_node_window(chunk, fleet.mean_w[i], fleet.curve[i],
                                 fleet.meters[i], fleet.noise[i], scratch);
              return PowerTrace(w.begin, fleet.meters[i].interval(),
                                scratch.readings);
            }();
            const std::optional<double> wm =
                s.dm.feed_faulted_window(clean, w);
            if (wm.has_value()) {
              s.window_mean = *wm;
              s.window_contributed = true;
            }
          }
        });
        ++chunks_run;
        close_window_stats(wi);
        virtual_now = w.end.value();
        if (live.emit_every_s <= 0.0) {
          emit_partial(virtual_now);
        } else {
          maybe_emit(virtual_now);
        }
      }
    }

    // Finish: identical post-processing to NodeMeterStage.
    ctx.devices.resize(n);
    ctx.readings.resize(n);
    std::size_t lost = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ctx.devices[i] = slots[i].dm.finish();
      const DeviceReading& reading = ctx.devices[i];
      NodeReading nr;
      nr.node = plan.node_indices[i];
      nr.lost = reading.lost;
      if (!reading.lost) {
        nr.mean_w = reading.mean_w;
        nr.energy_j = reading.energy_j;
        if (plan.timing != TimingStrategy::kContinuous) {
          // Spot sampling: report energy as mean power over the window.
          nr.energy_j = nr.mean_w * plan.window.duration().value();
        }
        apply_dc_conversion(plan, electrical, nr.node, nr.mean_w,
                            nr.energy_j);
      }
      ctx.readings[i] = nr;
      lost += nr.lost ? 1 : 0;
    }

    trace.items = ctx.readings.size();
    trace.samples = ctx.samples_per_meter * ctx.readings.size();
    trace.virtual_s = metered_virtual_s(ctx, ctx.readings.size());
    trace.counters = {
        {"engine_streaming", streaming ? 1.0 : 0.0},
        {"fleet_fused",
         streaming && !faulty && config.fleet_soa && !reconciling ? 1.0
                                                                  : 0.0},
        {"fanout", static_cast<double>(fanout)},
        {"lost", static_cast<double>(lost)},
        {"live", 1.0},
        {"chunks", static_cast<double>(chunks_run)},
        {"windows_stored", static_cast<double>(ring.size())},
        {"partials_emitted", static_cast<double>(partials)},
    };
  }
};

class RackMeterStage final : public CampaignStage {
 public:
  [[nodiscard]] const char* name() const override { return "meter"; }

  void run(CampaignContext& ctx, StageTrace& trace) override {
    const SystemPowerModel& electrical = *ctx.electrical;
    const MeasurementPlan& plan = *ctx.plan;
    const CampaignConfig& config = *ctx.config;

    // One meter per rack containing a selected node.  The rack reading
    // (which *includes* PDU distribution loss, unlike node taps) is
    // later attributed evenly to the rack's nodes — the standard site
    // practice when only PDU instrumentation exists.
    std::size_t lost = 0;
    for (std::size_t rack : ctx.racks) {
      Rng calibration(config.seed ^ kCalibrationSalt, kRackStreamBase + rack);
      Rng noise(config.seed ^ kNoiseSalt, kRackStreamBase + rack);
      const MeterModel meter(config.meter_accuracy, plan.meter_mode,
                             ctx.interval, calibration);
      const std::size_t first = rack * electrical.nodes_per_rack();
      const std::size_t nodes_in_rack =
          std::min(electrical.nodes_per_rack(),
                   electrical.node_count() - first);
      DeviceReading reading = meter_device(
          meter,
          [&electrical, rack](double t) {
            return electrical.rack_pdu_w(rack, t);
          },
          ctx.windows, plan.window, noise, config, kRackStreamBase + rack,
          rack);
      NodeReading nr;
      nr.node = rack;
      nr.lost = reading.lost;
      nr.mean_w = reading.mean_w;
      nr.energy_j = reading.energy_j;
      lost += nr.lost ? 1 : 0;
      ctx.devices.push_back(std::move(reading));
      ctx.readings.push_back(nr);
      ctx.rack_nodes_in.push_back(nodes_in_rack);
    }

    trace.items = ctx.readings.size();
    trace.samples = ctx.samples_per_meter * ctx.readings.size();
    trace.virtual_s = metered_virtual_s(ctx, ctx.readings.size());
    trace.counters = {{"lost", static_cast<double>(lost)}};
  }
};

class FacilityMeterStage final : public CampaignStage {
 public:
  [[nodiscard]] const char* name() const override { return "meter"; }

  void run(CampaignContext& ctx, StageTrace& trace) override {
    const SystemPowerModel& electrical = *ctx.electrical;
    const MeasurementPlan& plan = *ctx.plan;
    const CampaignConfig& config = *ctx.config;

    // One meter on the whole feed — the realistic Level 3
    // instrumentation.  There is no surviving-node fallback here: losing
    // the only meter ends the campaign.
    if (ctx.faulty && config.faults.forced_dead(kFacilityStream)) {
      throw NoUsableDataError(
          "campaign: the facility-feed meter is dead and no fallback "
          "instrumentation exists");
    }
    Rng calibration(config.seed ^ kCalibrationSalt, kFacilityStream);
    Rng noise(config.seed ^ kNoiseSalt, kFacilityStream);
    const MeterModel meter(config.meter_accuracy, plan.meter_mode,
                           ctx.interval, calibration);
    ctx.devices.push_back(meter_device(
        meter, electrical.facility_function(), ctx.windows, plan.window,
        noise, config, kFacilityStream, kFacilityStream));

    trace.items = 1;
    trace.samples = ctx.samples_per_meter;
    trace.virtual_s = metered_virtual_s(ctx, 1);
    trace.counters = {
        {"lost", ctx.devices.back().lost ? 1.0 : 0.0},
    };
  }
};

class RepairStage final : public CampaignStage {
 public:
  [[nodiscard]] const char* name() const override { return "repair"; }

  void run(CampaignContext& ctx, StageTrace& trace) override {
    // Consolidate the per-device repair accounting.  On the fault-free
    // path every tally is zero, so this is a no-op there — exactly the
    // historical `if (faulty)` guard, without the branch.
    DataQuality& dq = ctx.dq();
    for (const DeviceReading& r : ctx.devices) absorb_tallies(dq, r);

    trace.items = ctx.devices.size();
    trace.samples = dq.samples_repaired;
    trace.counters = {
        {"samples_lost", static_cast<double>(dq.samples_lost)},
        {"samples_repaired", static_cast<double>(dq.samples_repaired)},
        {"spikes_filtered", static_cast<double>(dq.spikes_filtered)},
        {"stuck_flagged", static_cast<double>(dq.stuck_flagged)},
    };
  }
};

class ReconcileStage final : public CampaignStage {
 public:
  [[nodiscard]] const char* name() const override { return "reconcile"; }

  void run(CampaignContext& ctx, StageTrace& trace) override {
    DataQuality& dq = ctx.dq();
    dq.reconcile_ran = true;
    std::vector<MeterSeries> series;
    series.reserve(ctx.readings.size());
    for (std::size_t i = 0; i < ctx.readings.size(); ++i) {
      if (ctx.readings[i].lost || ctx.devices[i].analysis_means_w.empty()) {
        continue;
      }
      series.push_back(
          MeterSeries{ctx.readings[i].node, ctx.devices[i].analysis_means_w});
    }
    const std::vector<HierarchyCheck> checks = build_hierarchy_checks(
        *ctx.electrical, *ctx.plan, *ctx.config, ctx.interval, ctx.analysis,
        series, ctx.streaming ? ctx.cluster : nullptr);
    // The cohort pass fans out as wide as the node fan-out; its report is
    // bit-identical at any width.
    ReconcilePolicy policy = ctx.config->reconcile;
    policy.threads = static_cast<unsigned>(node_fanout(*ctx.config, true));
    ReconcileReport verdicts = reconcile_meters(series, checks, policy);

    // Quarantine convicted meters through the existing dead-meter
    // degradation path; undo exactly invertible unit errors in place.
    // Node -> first reading with that node, built once.
    constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
    std::size_t max_node = 0;
    for (const NodeReading& nr : ctx.readings) {
      max_node = std::max(max_node, nr.node);
    }
    std::vector<std::size_t> reading_of(ctx.readings.empty() ? 0 : max_node + 1,
                                        kNone);
    for (std::size_t i = 0; i < ctx.readings.size(); ++i) {
      std::size_t& slot = reading_of[ctx.readings[i].node];
      if (slot == kNone) slot = i;
    }
    for (const MeterDiagnosis& d : verdicts.diagnoses) {
      if (d.meter_id >= reading_of.size() || reading_of[d.meter_id] == kNone) {
        continue;
      }
      NodeReading& nr = ctx.readings[reading_of[d.meter_id]];
      if (d.quarantined) {
        nr.lost = true;
      } else if (d.corrected) {
        nr.mean_w /= d.correction_scale;
        nr.energy_j /= d.correction_scale;
      }
    }

    trace.items = series.size();
    trace.samples = series.size() * ctx.analysis.size();
    trace.counters = {
        {"hierarchy_checks", static_cast<double>(checks.size())},
        {"checks_memoized", ctx.streaming && !checks.empty() ? 1.0 : 0.0},
        {"quarantined", static_cast<double>(verdicts.meters_quarantined)},
        {"corrected", static_cast<double>(verdicts.meters_corrected)},
    };
    dq.integrity = std::move(verdicts);
  }
};

// Aggregate for the facility-feed tap: no extrapolation at all; the only
// error sources are the meter itself and any scope mismatch.
void aggregate_facility(CampaignContext& ctx) {
  const ClusterPowerModel& cluster = *ctx.cluster;
  const SystemPowerModel& electrical = *ctx.electrical;
  const MeasurementPlan& plan = *ctx.plan;
  CampaignResult& result = ctx.result;
  DataQuality& dq = ctx.dq();

  const DeviceReading& reading = ctx.devices.front();
  if (reading.lost) {
    throw NoUsableDataError(
        "campaign: the facility-feed meter produced " +
        std::to_string(dq.samples_expected - dq.samples_lost) + " of " +
        std::to_string(dq.samples_expected) +
        " expected samples (below the coverage floor); no fallback "
        "instrumentation exists");
  }
  const double mean = reading.mean_w;
  double energy_acc = reading.energy_j;
  if (plan.timing != TimingStrategy::kContinuous) {
    energy_acc = mean * plan.window.duration().value();
  }
  result.nodes_measured = cluster.node_count();
  result.submitted_energy = Joules{energy_acc};
  // The facility feed includes every auxiliary; for compute-only scopes
  // the measured aux must be deducted (it is measured, not estimated).
  double submitted = mean;
  if (plan.spec.subsystems == SubsystemRule::kComputeOnly) {
    const double t_mid =
        plan.window.begin.value() + 0.5 * plan.window.duration().value();
    submitted -= electrical.auxiliary_ac_w(t_mid);
  }
  result.submitted_power = Watts{submitted};
  dq.planned_node_fraction = 1.0;
  dq.achieved_node_fraction = 1.0;
  finalize_quality(dq);
}

// Aggregate for the rack-PDU tap: attribute each surviving rack reading
// evenly to its nodes, then extrapolate.  A dead/degraded rack meter
// loses the whole rack; extrapolation proceeds from the rest.
void aggregate_rack(CampaignContext& ctx) {
  const ClusterPowerModel& cluster = *ctx.cluster;
  const SystemPowerModel& electrical = *ctx.electrical;
  const MeasurementPlan& plan = *ctx.plan;
  CampaignResult& result = ctx.result;
  DataQuality& dq = ctx.dq();

  const std::size_t planned_nodes = plan.node_count();
  double energy_acc = 0.0;
  std::size_t surviving_nodes = 0;
  for (std::size_t i = 0; i < ctx.readings.size(); ++i) {
    const NodeReading& reading = ctx.readings[i];
    if (reading.lost) {
      ++dq.meters_lost;
      dq.lost_meter_ids.push_back(reading.node);
      continue;
    }
    const double rack_mean = reading.mean_w;
    double rack_energy = reading.energy_j;
    if (plan.timing != TimingStrategy::kContinuous) {
      rack_energy = rack_mean * plan.window.duration().value();
    }
    const std::size_t nodes_in_rack = ctx.rack_nodes_in[i];
    const double per_node = rack_mean / static_cast<double>(nodes_in_rack);
    for (std::size_t n = 0; n < nodes_in_rack; ++n) {
      result.node_mean_powers_w.push_back(per_node);
    }
    surviving_nodes += nodes_in_rack;
    energy_acc += rack_energy;
  }
  if (result.node_mean_powers_w.empty()) {
    throw NoUsableDataError(
        "campaign: every rack meter was lost (" +
        std::to_string(dq.meters_lost) + " of " +
        std::to_string(dq.meters_planned) +
        "); nothing to extrapolate from");
  }
  result.nodes_measured = result.node_mean_powers_w.size();
  // Scale energy to the planned metering scope so submissions stay
  // comparable between degraded and clean campaigns.
  if (ctx.faulty && surviving_nodes > 0 && surviving_nodes < planned_nodes) {
    energy_acc *= static_cast<double>(planned_nodes) /
                  static_cast<double>(surviving_nodes);
  }
  result.submitted_energy = Joules{energy_acc};

  const Summary rack_nodes = summarize(result.node_mean_powers_w);
  double rack_submitted =
      rack_nodes.mean * static_cast<double>(cluster.node_count());
  if (plan.spec.subsystems != SubsystemRule::kComputeOnly) {
    const double t_mid =
        plan.window.begin.value() + 0.5 * plan.window.duration().value();
    rack_submitted += electrical.auxiliary_ac_w(t_mid);
  }
  result.submitted_power = Watts{rack_submitted};
  if (result.node_mean_powers_w.size() >= 2 && rack_nodes.stddev > 0.0) {
    result.node_mean_ci =
        t_confidence_interval(result.node_mean_powers_w, 0.05);
    result.relative_halfwidth =
        0.5 * result.node_mean_ci.width() / rack_nodes.mean;
    dq.ci_widened = dq.meters_lost > 0;
  }
  dq.planned_node_fraction =
      static_cast<double>(planned_nodes) /
      static_cast<double>(cluster.node_count());
  dq.achieved_node_fraction =
      static_cast<double>(result.nodes_measured) /
      static_cast<double>(cluster.node_count());
  finalize_quality(dq);
}

// Aggregate for node taps — the shared tail every node campaign (sync or
// async collection) runs: exclusion, extrapolation, energy re-basing,
// the Eq. 1 CI and its corrected-sigma widening, coverage fractions.
void aggregate_nodes(CampaignContext& ctx) {
  const ClusterPowerModel& cluster = *ctx.cluster;
  const SystemPowerModel& electrical = *ctx.electrical;
  const MeasurementPlan& plan = *ctx.plan;
  CampaignResult& result = ctx.result;
  DataQuality& dq = ctx.dq();

  result.system_name = cluster.name();
  result.window_duration = plan.window.duration();

  double energy_j = 0.0;
  result.node_mean_powers_w.reserve(ctx.readings.size());
  for (const NodeReading& r : ctx.readings) {
    if (r.lost) {
      ++dq.meters_lost;
      dq.lost_meter_ids.push_back(r.node);
      continue;
    }
    result.node_mean_powers_w.push_back(r.mean_w);
    energy_j += r.energy_j;
  }
  if (result.node_mean_powers_w.empty()) {
    throw NoUsableDataError(
        "campaign: every node meter was lost (" +
        std::to_string(dq.meters_lost) + " of " +
        std::to_string(dq.meters_planned) +
        "); nothing to extrapolate from");
  }
  result.nodes_measured = result.node_mean_powers_w.size();
  // Scale energy to the planned metering scope so submissions stay
  // comparable between degraded and clean campaigns.
  if (result.nodes_measured < dq.meters_planned) {
    energy_j *= static_cast<double>(dq.meters_planned) /
                static_cast<double>(result.nodes_measured);
  }
  result.submitted_energy = Joules{energy_j};

  const Summary nodes = summarize(result.node_mean_powers_w);
  // Linear extrapolation to the full compute subsystem (§2.2).  Note the
  // per-node AC taps do not see PDU distribution losses, which the true
  // compute power includes — a structural Level 1 bias the benches expose.
  double submitted =
      nodes.mean * static_cast<double>(cluster.node_count());

  // Auxiliary subsystems per the spec's aspect 3.
  if (plan.spec.subsystems != SubsystemRule::kComputeOnly) {
    const double t_mid =
        plan.window.begin.value() + 0.5 * plan.window.duration().value();
    submitted += electrical.auxiliary_ac_w(t_mid);
  }
  result.submitted_power = Watts{submitted};

  // Accuracy assessment: Equation 1 on the metered per-node averages.
  if (result.nodes_measured >= 2 && nodes.stddev > 0.0) {
    result.node_mean_ci =
        t_confidence_interval(result.node_mean_powers_w, /*alpha=*/0.05);
    result.relative_halfwidth =
        0.5 * result.node_mean_ci.width() / nodes.mean;
    dq.ci_widened = dq.meters_lost > 0;
  }
  // Readings reconciliation un-scaled carry residual calibration
  // uncertainty the Eq. 1 spread cannot see (the correction is exact only
  // up to the meter's remaining gain error); widen the CI in quadrature.
  if (dq.reconcile_ran && dq.integrity.meters_corrected > 0 &&
      result.relative_halfwidth > 0.0) {
    const double extra =
        1.96 * dq.integrity.corrected_sigma *
        std::sqrt(static_cast<double>(dq.integrity.meters_corrected)) /
        static_cast<double>(result.nodes_measured);
    result.relative_halfwidth = std::hypot(result.relative_halfwidth, extra);
    const double half = result.relative_halfwidth * nodes.mean;
    result.node_mean_ci = Interval{nodes.mean - half, nodes.mean + half};
    dq.ci_widened = true;
  }
  dq.planned_node_fraction =
      static_cast<double>(dq.meters_planned) /
      static_cast<double>(cluster.node_count());
  dq.achieved_node_fraction =
      static_cast<double>(result.nodes_measured) /
      static_cast<double>(cluster.node_count());
  finalize_quality(dq);
}

class AggregateStage final : public CampaignStage {
 public:
  [[nodiscard]] const char* name() const override { return "aggregate"; }

  void run(CampaignContext& ctx, StageTrace& trace) override {
    switch (ctx.plan->point) {
      case MeasurementPoint::kFacilityFeed:
        aggregate_facility(ctx);
        break;
      case MeasurementPoint::kRackPdu:
        aggregate_rack(ctx);
        break;
      default:
        aggregate_nodes(ctx);
        break;
    }
    const DataQuality& dq = ctx.result.data_quality;
    trace.items = ctx.result.node_mean_powers_w.size();
    trace.counters = {
        {"meters_lost", static_cast<double>(dq.meters_lost)},
        {"ci_widened", dq.ci_widened ? 1.0 : 0.0},
        {"sample_coverage", dq.sample_coverage},
    };
  }
};

class AssessStage final : public CampaignStage {
 public:
  [[nodiscard]] const char* name() const override { return "assess"; }

  void run(CampaignContext& ctx, StageTrace& trace) override {
    CampaignResult& result = ctx.result;
    // Ground truth and error.  The memoized form returns the exact
    // doubles the direct form would (streaming probe holding), faster.
    result.true_power =
        ctx.streaming
            ? streaming_true_scope_power(*ctx.cluster, *ctx.electrical,
                                         ctx.plan->spec)
            : true_scope_power(*ctx.cluster, *ctx.electrical, ctx.plan->spec);
    result.relative_error =
        std::fabs(result.submitted_power.value() - result.true_power.value()) /
        result.true_power.value();

    const TimeWindow core = ctx.cluster->phases().core_window();
    trace.items = 1;
    trace.virtual_s = core.duration().value();
    trace.counters = {
        {"memoized", ctx.streaming ? 1.0 : 0.0},
        {"relative_error", result.relative_error},
    };
  }
};

}  // namespace

bool lowered_model_probe(const ClusterPowerModel& cluster,
                         const SystemPowerModel& electrical,
                         const MeasurementPlan& plan) {
  PV_EXPECTS(!plan.node_indices.empty(), "plan selects no nodes");
  const std::size_t probe = plan.node_indices.front();
  PV_EXPECTS(probe < cluster.node_count(), "plan references missing node");
  // Probe the metered window (the kernels) and the core window (the
  // memoized ground truth) alike.
  const TimeWindow core = cluster.phases().core_window();
  for (const TimeWindow& w : {plan.window, core}) {
    for (double frac : {0.25, 0.5, 0.75}) {
      const double t = w.begin.value() + frac * w.duration().value();
      const double lowered =
          cluster.node_means()[probe] * cluster.shape_factor(t);
      if (electrical.node_dc_w(probe, t) != lowered) return false;
    }
  }
  return true;
}

Watts true_scope_power(const ClusterPowerModel& cluster,
                       const SystemPowerModel& electrical,
                       const MethodologySpec& spec) {
  const TimeWindow core = cluster.phases().core_window();
  const double compute = mean_over_window(
      [&](double t) { return electrical.compute_ac_w(t); },
      core.begin.value(), core.end.value());
  if (spec.subsystems == SubsystemRule::kComputeOnly) return Watts{compute};
  const double aux = mean_over_window(
      [&](double t) { return electrical.auxiliary_ac_w(t); },
      core.begin.value(), core.end.value());
  return Watts{compute + aux};
}

StagePtr make_provision_stage() { return std::make_unique<ProvisionStage>(); }
StagePtr make_node_meter_stage() { return std::make_unique<NodeMeterStage>(); }
StagePtr make_live_node_meter_stage() {
  return std::make_unique<LiveNodeMeterStage>();
}
StagePtr make_rack_meter_stage() { return std::make_unique<RackMeterStage>(); }
StagePtr make_facility_meter_stage() {
  return std::make_unique<FacilityMeterStage>();
}
StagePtr make_repair_stage() { return std::make_unique<RepairStage>(); }
StagePtr make_reconcile_stage() { return std::make_unique<ReconcileStage>(); }
StagePtr make_aggregate_stage() { return std::make_unique<AggregateStage>(); }
StagePtr make_assess_stage() { return std::make_unique<AssessStage>(); }

std::vector<StagePtr> make_campaign_stages(const MeasurementPlan& plan,
                                           const CampaignConfig& config) {
  const bool node_tap = plan.point != MeasurementPoint::kFacilityFeed &&
                        plan.point != MeasurementPoint::kRackPdu;
  std::vector<StagePtr> stages;
  stages.push_back(make_provision_stage());
  switch (plan.point) {
    case MeasurementPoint::kFacilityFeed:
      stages.push_back(make_facility_meter_stage());
      break;
    case MeasurementPoint::kRackPdu:
      stages.push_back(make_rack_meter_stage());
      break;
    default:
      stages.push_back(config.live.enabled ? make_live_node_meter_stage()
                                           : make_node_meter_stage());
      break;
  }
  stages.push_back(make_repair_stage());
  // Only node-tap campaigns reconcile — rack/facility taps have no
  // sibling cohort to cross-validate against.
  if (node_tap && config.reconcile.enabled) {
    stages.push_back(make_reconcile_stage());
  }
  stages.push_back(make_aggregate_stage());
  stages.push_back(make_assess_stage());
  return stages;
}

CampaignResult run_campaign_stages(const ClusterPowerModel& cluster,
                                   const SystemPowerModel& electrical,
                                   const MeasurementPlan& plan,
                                   const CampaignConfig& config,
                                   const std::vector<StagePtr>& stages,
                                   const CancelToken* cancel) {
  PV_EXPECTS(!plan.node_indices.empty(), "plan selects no nodes");
  PV_EXPECTS(electrical.node_count() == cluster.node_count(),
             "electrical model does not match the cluster");
  PV_EXPECTS(plan.window.valid(), "plan window is empty");

  CampaignContext ctx;
  ctx.cluster = &cluster;
  ctx.electrical = &electrical;
  ctx.plan = &plan;
  ctx.config = &config;
  ctx.cancel = cancel;
  run_pipeline(stages, ctx);
  return std::move(ctx.result);
}

void run_pipeline(const std::vector<StagePtr>& stages, CampaignContext& ctx) {
  for (const StagePtr& stage : stages) {
    if (ctx.cancel != nullptr) ctx.cancel->check(stage->name());
    StageTrace trace;
    trace.stage = stage->name();
    const auto t0 = std::chrono::steady_clock::now();
    stage->run(ctx, trace);
    const auto t1 = std::chrono::steady_clock::now();
    trace.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    ctx.result.stage_traces.push_back(std::move(trace));
  }
  // The closing boundary: a deadline eaten inside the *last* stage must
  // still surface as DeadlineExceeded, not as a completed result.
  if (ctx.cancel != nullptr) ctx.cancel->check("finish");
}

}  // namespace pv
