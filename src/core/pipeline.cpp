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
#include "sim/streaming.hpp"
#include "stats/descriptive.hpp"
#include "stats/fused.hpp"
#include "stats/robust.hpp"
#include "stats/sketch.hpp"
#include "util/expects.hpp"
#include "util/mathx.hpp"
#include "util/parallel.hpp"
#include "util/ring.hpp"

namespace pv {
namespace {

// RNG stream salts for the fault processes (the calibration/noise salts
// are kCalibrationSalt / kNoiseSalt from sim/fleet_state.hpp, shared with
// fleet provisioning and the async collector).
constexpr std::uint64_t kFateSalt = 0xFA7E0FA7ULL;
constexpr std::uint64_t kFaultSalt = 0x1FAC7ED0ULL;

// Node-tap Aggregate tail (defined with the other aggregate functions
// below); live metering also runs it on mid-run snapshots so partial
// and final documents cannot drift apart structurally.
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

// `f` itself, or — with `memo_shape` set (the streaming probe held) — `f`
// read through a ShapeMemo of its own, held inside the returned function.
template <class F>
PowerFunction memoized(const ClusterPowerModel* memo_shape, F f) {
  if (memo_shape == nullptr) return f;
  return [memo = ShapeMemo(*memo_shape), f](double t) mutable {
    return memo(t, f);
  };
}

// Hierarchy checks for a node-AC campaign: one rack-PDU check meter per
// rack whose node meters all produced a series, and — when every rack is
// checkable and no auxiliary subsystems muddy the sum — a facility check
// over the rack check meters.  DC taps are skipped: the per-node PSU
// correction is nonlinear, so the rack sum is not a clean function of the
// DC series (the cohort check still covers those campaigns).
//
// With a non-null `memo_shape` each check meter reads rack_pdu_w or
// compute_ac_w through a ShapeMemo of its own (memoized) — the same
// samples, without re-walking every node's PSU per sample.
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
    if (std::any_of(by_node.begin() + first, by_node.begin() + last,
                    [](const MeterSeries* s) { return s == nullptr; })) {
      all_racks_checkable = false;
      continue;
    }
    const PowerFunction truth =
        memoized(memo_shape, [&electrical, rack](double t) {
          return electrical.rack_pdu_w(rack, t);
        });
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
    // compute + auxiliary is facility_w's own expression; the
    // auxiliaries have no shape identity to key on and stay direct.
    const PowerFunction compute =
        memoized(memo_shape, [&electrical](double t) {
          return electrical.compute_ac_w(t);
        });
    const PowerFunction truth = [compute, &electrical](double t) {
      return compute(t) + electrical.auxiliary_ac_w(t);
    };
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

// Ground truth: the core-phase average of the spec's scope (compute-only
// for compute-only rules, compute + auxiliaries otherwise) over 2048
// midpoint panels.  `memoized` marks a streaming-verified campaign: when
// the electrical model is the cluster lowered through
// make_system_power_model (which the streaming probe has checked),
// compute_ac_w depends on t only through the shared shape factor, so
// panel evaluations over a steady phase are the same double over and
// over.  Reading them through a ShapeMemo leaves the integration grid,
// the summation order and every per-panel value untouched — just without
// recomputing the per-node PSU sum per panel.
Watts scope_truth(const ClusterPowerModel& cluster,
                  const SystemPowerModel& electrical,
                  const MethodologySpec& spec, bool memoized) {
  constexpr std::size_t kPanels = 2048;
  const TimeWindow core = cluster.phases().core_window();
  const auto compute_w = [&](double t) { return electrical.compute_ac_w(t); };
  ShapeMemo memo(cluster);
  const double compute = average_over(
      [&](double t) { return memoized ? memo(t, compute_w) : compute_w(t); },
      core.begin.value(), core.end.value(), kPanels);
  if (spec.subsystems == SubsystemRule::kComputeOnly) return Watts{compute};
  // Auxiliaries are arbitrary functions of t (no shape identity to key
  // on); their panel evaluations stay direct.
  const double aux = average_over(
      [&](double t) { return electrical.auxiliary_ac_w(t); },
      core.begin.value(), core.end.value(), kPanels);
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

// Provisioning inputs of every meter in the campaign.
FleetProvisionSpec lane_spec(const CampaignContext& ctx, bool ac_tap) {
  FleetProvisionSpec spec;
  spec.accuracy = ctx.config->meter_accuracy;
  spec.mode = ctx.plan->meter_mode;
  spec.interval = ctx.interval;
  spec.seed = ctx.config->seed;
  spec.ac_tap = ac_tap;
  return spec;
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
        ctx.streaming = config.engine == CampaignEngine::kStreaming &&
                        lowered_model_probe(cluster, electrical, plan);
        // Transpose the cohort into the fleet table: meter models +
        // calibration columns, per-node noise streams, PSU lanes and
        // fault flags, in plan order, for the Meter stage's lane driver.
        // Sharded over the fan-out pool; every lane is a pure function of
        // its own node id, so the build is bit-identical at any thread
        // count.
        const std::size_t fanout = node_fanout(config, ctx.reconciling);
        std::optional<ThreadPool> pool;
        if (fanout > 1) pool.emplace(static_cast<unsigned>(fanout));
        ctx.fleet = std::make_unique<FleetState>(build_fleet_state(
            plan.node_indices,
            lane_spec(ctx, plan.point != MeasurementPoint::kNodeDc),
            ctx.windows, ctx.faulty ? &config.faults : nullptr, &cluster,
            &electrical, pool ? &*pool : nullptr));
        break;
      }
    }

    // Expected sample count of any one meter.
    for (const TimeWindow& w : ctx.windows) {
      ctx.samples_per_meter += window_sample_count(w, ctx.interval);
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

// A meter's reading as the collection layer reports it (`id` is the node,
// or the rack for the rack-PDU tap): spot-sampled plans report energy as
// mean power over the window, and DC taps are corrected back to AC.
NodeReading meter_reading(const CampaignContext& ctx, std::size_t id,
                          bool lost, double mean_w, double energy_j) {
  const MeasurementPlan& plan = *ctx.plan;
  if (lost) return NodeReading{id, true};
  NodeReading nr{id, false, mean_w, energy_j};
  if (plan.timing != TimingStrategy::kContinuous) {
    nr.energy_j = nr.mean_w * plan.window.duration().value();
  }
  apply_dc_conversion(plan, *ctx.electrical, nr.node, nr.mean_w, nr.energy_j);
  return nr;
}

// --- the lane metering driver -----------------------------------------------

// The eager lane source: lane i's truth function, built per window.
using LaneTruth = std::function<PowerFunction(std::size_t)>;

// Faulted-run lane state: the fate is drawn once and the fault stream
// persists across windows; the tallies feed Repair.
struct LaneFault {
  bool dead = false;  ///< forced dead: never fed, finishes lost
  MeterFate fate;
  Rng rng{0, 0};
  std::size_t windows = 0;  ///< windows contributing
  std::size_t valid = 0;    ///< samples neither missing nor flagged
  std::size_t lost = 0;
  std::size_t repaired = 0;
  std::size_t spikes = 0;
  std::size_t stuck = 0;
};

class LiveEmitter;

// The one metering driver.  Its lanes are a FleetState's (meter models and
// calibration columns, noise streams keyed by fleet.node, node means and
// PSU curves); `meter_ids` holds each lane's fault-plan id (node, rack or
// kFacilityStream).  Lanes stream from shared shape chunks when
// `streaming` (node taps whose model passed the lowered-model probe), and
// otherwise meter truth(lane) eagerly.  The driver walks the metered
// windows in chunks and fans each chunk out over lane ranges; per-lane
// state lives in columns next to the FleetState, not in per-lane objects.
// Every accumulator chains in the order a whole-window trace's prefix sum
// uses, and every lane's RNG streams are keyed by its own id, so any
// chunking and any thread count yield the same bits.
//
// Chunks are whole windows when faults are on (the corruption pipeline
// reads a window's trace at once) or the lanes are eager
// (MeterModel::measure meters a window at once); otherwise
// config.live.chunk_samples samples, so a clean streaming run holds
// O(chunk_samples) of shape table at any campaign length.  A faulted
// window is post-processed per lane: corrupt, flag, repair, despike, mean.
class LaneMeter {
 public:
  LaneMeter(const CampaignContext& ctx, FleetState& fleet,
            std::span<const std::size_t> meter_ids, bool streaming,
            LaneTruth truth)
      : ctx_(ctx),
        fleet_(fleet),
        meter_ids_(meter_ids),
        streaming_(streaming),
        truth_(std::move(truth)),
        lanes_(fleet.size()),
        faulty_(ctx.faulty),
        analysis_(ctx.reconciling ? ctx.analysis.size() : 0),
        whole_windows_(faulty_ || !streaming),
        fused_(streaming && !faulty_ && ctx.config->fleet_soa) {
    window_.assign(lanes_, 0.0);
    mean_acc_.assign(lanes_, 0.0);
    energy_.assign(lanes_, 0.0);
    bucket_sum_.assign(analysis_ * lanes_, 0.0);
    // Clean lanes all see every sample, so one count per analysis window
    // serves the cohort; faulted lanes count their own.
    bucket_n_.assign(faulty_ ? analysis_ * lanes_ : analysis_, 0);
    if (faulty_) faults_.resize(lanes_);
  }

  [[nodiscard]] std::size_t lanes() const { return lanes_; }
  [[nodiscard]] bool whole_windows() const { return whole_windows_; }
  // Clean streaming chunks run the fused level kernel.
  [[nodiscard]] bool fused() const { return fused_; }

  // Meters every window; `live` (may be null) observes chunk and window
  // boundaries between fan-out barriers.
  void run(ThreadPool* pool, LiveEmitter* live);

  // The finished reading of one lane: clean mean over all windows, or
  // the faulted coverage-floor verdict.
  [[nodiscard]] DeviceReading finish(std::size_t i) const {
    DeviceReading r;
    std::size_t windows = windows_closed_;
    if (faulty_) {
      const LaneFault& f = faults_[i];
      r.samples_expected = fleet_.samples_expected[i];
      r.spikes_filtered = f.spikes;
      r.stuck_flagged = f.stuck;
      const double coverage =
          r.samples_expected == 0
              ? 0.0
              : static_cast<double>(f.valid) /
                    static_cast<double>(r.samples_expected);
      if (f.windows == 0 || coverage < ctx_.config->faults.min_coverage) {
        // Dead, or below the floor: a discarded series repairs nothing;
        // its whole record is lost.
        r.lost = true;
        r.samples_lost = r.samples_expected;
        return r;
      }
      r.samples_lost = f.lost;
      r.samples_repaired = f.repaired;
      windows = f.windows;
    }
    r.mean_w = mean_acc_[i] / static_cast<double>(windows);
    r.energy_j = energy_[i];
    r.analysis_means_w.assign(analysis_, kNoWindow);
    for (std::size_t a = 0; a < analysis_; ++a) {
      const std::size_t n = bucket_n_[faulty_ ? a * lanes_ + i : a];
      if (n > 0) {
        r.analysis_means_w[a] =
            bucket_sum_[a * lanes_ + i] / static_cast<double>(n);
      }
    }
    return r;
  }

  // Mid-run snapshot of lane i for live reporting: the running mean over
  // contributing windows and the energy so far, both including the open
  // window's samples; false when the lane has nothing to report yet.
  // Reads only, so reporting cannot perturb the final numbers.
  bool live_reading(std::size_t i, double& mean_w, double& energy_j) const {
    std::size_t n = contributed(i);
    if (n == 0 && open_n_ == 0) return false;
    mean_w = mean_acc_[i];
    energy_j = energy_[i];
    if (open_n_ > 0) {
      mean_w += (0.0 + window_[i]) / static_cast<double>(open_n_);
      energy_j += (0.0 + window_[i]) * ctx_.interval.value();
      ++n;
    }
    mean_w /= static_cast<double>(n);
    return true;
  }
  // Between windows, once the closed window's means are read, the window
  // column holds nothing the run still needs (the next window
  // re-initializes it), so live reporting may borrow its storage.
  std::vector<double>& spent_window_column() { return window_; }

  // The last closed window's mean, or NaN when the lane contributed
  // nothing to it.
  [[nodiscard]] double window_mean(std::size_t i) const {
    return faulty_ ? window_[i]
                   : (0.0 + window_[i]) / static_cast<double>(last_samples_);
  }

 private:
  static constexpr double kNoWindow = std::numeric_limits<double>::quiet_NaN();

  // One chunk of one window, shared by every lane.
  struct Chunk {
    const TimeWindow* w = nullptr;
    std::size_t first = 0;
    std::size_t count = 0;
    bool closes = false;  ///< last chunk of its window
    const ShapeTable* table = nullptr;   ///< streaming lanes only
    const std::int32_t* a_idx = nullptr;  ///< reconcile buckets only
  };

  [[nodiscard]] std::size_t contributed(std::size_t i) const {
    return faulty_ ? faults_[i].windows : windows_closed_;
  }

  // Draws each faulted lane's fate once, before any window.
  void draw_fates(ThreadPool* pool) {
    const FaultPlan& fp = ctx_.config->faults;
    const std::uint64_t seed = ctx_.config->seed;
    const TimeWindow campaign = ctx_.plan->window;
    parallel_chunks(pool, lanes_, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        LaneFault& f = faults_[i];
        const std::size_t id = meter_ids_[i];
        const std::uint64_t stream = fleet_.node[i];
        f.dead = fp.forced_dead(id);
        if (f.dead) continue;
        Rng fate_rng(seed ^ kFateSalt, stream);
        f.rng = Rng(seed ^ kFaultSalt, stream);
        f.fate = draw_meter_fate(fp.spec, campaign, fate_rng);
        const std::size_t byz_pos = fp.forced_byzantine(id);
        if (byz_pos != FaultPlan::npos) {
          fp.apply_forced_byzantine(byz_pos, campaign, f.fate);
        }
      }
    });
  }

  // Lane i's clean readings for a whole-window chunk, into `s.readings`.
  const std::vector<double>& lane_readings(const Chunk& c, std::size_t i,
                                           StreamScratch& s) {
    if (streaming_) {
      stream_node_window(*c.table, fleet_.mean_w[i], fleet_.curve[i],
                         fleet_.meters[i], fleet_.noise[i], s);
    } else {
      fleet_.meters[i].measure_into(truth_(i), c.w->begin, c.w->end,
                                    fleet_.noise[i], s.readings);
    }
    return s.readings;
  }

  // Meters chunk `c` for lanes [b, e).
  void meter_range(const Chunk& c, std::size_t b, std::size_t e,
                   FleetScratch& scratch) {
    if (faulty_) {
      for (std::size_t i = b; i < e; ++i) {
        window_[i] = kNoWindow;
        if (faults_[i].dead) continue;
        faulted_window(c, i, lane_readings(c, i, scratch.node));
      }
      return;
    }
    if (c.first == 0) std::fill(&window_[b], &window_[e], 0.0);
    const LaneSinks sinks{window_.data(), c.a_idx, bucket_sum_.data(),
                          lanes_};
    if (streaming_) {
      stream_lane_chunk(*c.table, fleet_, b, e, fused_, sinks, scratch);
    } else {
      for (std::size_t i = b; i < e; ++i) {
        chain_lane_chunk(lane_readings(c, i, scratch.node), i, sinks);
      }
    }
    if (!c.closes) return;
    // Close the window: total / samples is the trace mean, total * dt its
    // energy (0.0 + sum is the prefix sum's own zero seed).  The sum stays
    // in place until the next window opens, for window_mean().
    const double samples = static_cast<double>(c.first + c.count);
    const double dt = ctx_.interval.value();
    for (std::size_t i = b; i < e; ++i) {
      const double total = 0.0 + window_[i];
      const double window_mean = total / samples;
      mean_acc_[i] += window_mean;
      energy_[i] += total * dt;
    }
  }

  // Corrupts, flags, repairs and despikes lane i's clean window trace;
  // a fully lost window contributes nothing.
  void faulted_window(const Chunk& c, std::size_t i,
                      const std::vector<double>& clean) {
    const FaultPlan& fp = ctx_.config->faults;
    LaneFault& f = faults_[i];
    GappyTrace gappy = inject_faults(
        PowerTrace(c.w->begin, fleet_.meters[i].interval(), clean),
        fp.spec, f.fate, f.rng);
    f.stuck += flag_stuck_runs(gappy, fp.stuck_run_min);
    const GapStats gs = gappy.gap_stats();
    f.valid += gs.total - gs.missing;
    f.lost += gs.missing;
    if (gs.missing == gs.total) return;

    const PowerTrace dense = gappy.repaired(fp.repair);
    const HampelResult despiked = hampel_filter(
        dense.watts(), fp.hampel_half_window, fp.hampel_n_sigmas);
    f.spikes += despiked.outlier_count;
    f.repaired += gs.missing;
    const double window_mean = mean_of(despiked.filtered);
    mean_acc_[i] += window_mean;
    energy_[i] += window_mean * c.w->duration().value();
    ++f.windows;
    window_[i] = window_mean;
    if (c.a_idx == nullptr) return;
    for (std::size_t j = 0; j < despiked.filtered.size(); ++j) {
      const std::int32_t a = c.a_idx[j];
      if (a < 0) continue;
      const std::size_t at = static_cast<std::size_t>(a) * lanes_ + i;
      bucket_sum_[at] += despiked.filtered[j];
      ++bucket_n_[at];
    }
  }

  const CampaignContext& ctx_;
  FleetState& fleet_;
  std::span<const std::size_t> meter_ids_;
  bool streaming_;
  LaneTruth truth_;
  std::size_t lanes_;
  bool faulty_;
  std::size_t analysis_;  ///< analysis windows bucketed (0 = none)
  bool whole_windows_;
  bool fused_;
  // --- lane columns ---------------------------------------------------------
  /// Clean runs: the window's running sum, chained left to right (kept
  /// after the close until the next window opens).  Faulted runs, whose
  /// windows never chain: the last window's mean, NaN when it was lost.
  std::vector<double> window_;
  std::vector<double> mean_acc_;     ///< sum of contributing window means
  std::vector<double> energy_;
  std::vector<double> bucket_sum_;   ///< analysis window a at [a*lanes, ...)
  std::vector<std::size_t> bucket_n_;
  std::vector<LaneFault> faults_;    ///< faulted runs only
  // --- shared progress ------------------------------------------------------
  std::size_t windows_closed_ = 0;
  std::size_t open_n_ = 0;  ///< samples fed into the open window
  std::size_t last_samples_ = 0;  ///< samples of the last closed window
};

// The live part of node metering (config.live): a fixed-capacity ring of
// closed-window fleet summaries, a mergeable quantile sketch over per-lane
// window means — one small sketch per closed window, merged in, which is
// exact (sketch-of-stream == merge-of-window-sketches, pinned by the
// sketch property tests) — and partial assessment Documents emitted to
// config.live_sink on a schedule pinned in virtual time.  It reads the
// driver's columns strictly between fan-out barriers and draws no RNG,
// so emission cannot perturb the final numbers.
class LiveEmitter {
 public:
  LiveEmitter(CampaignContext& ctx, LaneMeter& meter)
      : ctx_(ctx),
        meter_(meter),
        live_(ctx.config->live),
        ring_(std::max<std::size_t>(std::size_t{1},
                                    live_.history_windows)),
        sketch_(0.01),
        next_emit_(ctx.windows.empty() ? 0.0
                                       : ctx.windows.front().begin.value() +
                                             live_.emit_every_s) {}

  // Chunked runs emit at chunk boundaries (inside a window); whole-window
  // runs only once a window has closed.
  void after_chunk(double virtual_now) {
    ++chunks_;
    if (!meter_.whole_windows()) maybe_emit(virtual_now, false);
  }

  // Window `wi` closed fleet-wide: per-lane window means feed one window
  // sketch (merged into the campaign sketch) and the ring.
  void after_window(std::size_t wi, double virtual_now) {
    QuantileSketch window_sketch(sketch_.alpha());
    FusedAccumulator fleet;
    for (std::size_t i = 0; i < meter_.lanes(); ++i) {
      const double m = meter_.window_mean(i);
      if (std::isnan(m)) continue;
      window_sketch.push(m);
      fleet.push(m);
    }
    sketch_.merge(window_sketch);
    if (!fleet.empty()) ring_.push({wi, fleet.mean()});
    ++windows_closed_;
    if (live_.emit_every_s <= 0.0) {
      emit(virtual_now, true);
    } else if (meter_.whole_windows()) {
      maybe_emit(virtual_now, true);
    }
  }

  void add_counters(StageTrace& trace) const {
    trace.counters.insert(
        trace.counters.end(),
        {{"live", 1.0},
         {"chunks", static_cast<double>(chunks_)},
         {"windows_stored", static_cast<double>(ring_.size())},
         {"partials_emitted", static_cast<double>(partials_)}});
  }

 private:
  void maybe_emit(double virtual_now, bool between_windows) {
    if (live_.emit_every_s <= 0.0 || virtual_now + 1e-9 < next_emit_) return;
    emit(virtual_now, between_windows);
    while (next_emit_ <= virtual_now + 1e-9) next_emit_ += live_.emit_every_s;
  }

  // Emits one partial assessment Document: the lanes reporting so far run
  // through the exact node-tap Aggregate tail the final result uses, on a
  // scratch context, so partial and final documents cannot drift apart.
  // One complete rendered line per call — the sink never observes a torn
  // document.
  void emit(double virtual_now, bool between_windows) {
    if (!ctx_.config->live_sink) return;
    CampaignContext snap;
    snap.cluster = ctx_.cluster;
    snap.electrical = ctx_.electrical;
    snap.plan = ctx_.plan;
    snap.config = ctx_.config;
    // The snapshot lives in storage the stage holds anyway, so a live run
    // needs no memory a batch run does not: ctx.readings, which the stage
    // fills only once the lanes finish, and — between windows — the lane
    // meter's spent window column for the per-node means.
    snap.readings = std::move(ctx_.readings);
    snap.readings.clear();
    snap.readings.reserve(meter_.lanes());
    if (between_windows) {
      snap.result.node_mean_powers_w.swap(meter_.spent_window_column());
      snap.result.node_mean_powers_w.clear();
    }
    double mean_w = 0.0;
    double energy_j = 0.0;
    for (std::size_t i = 0; i < meter_.lanes(); ++i) {
      if (!meter_.live_reading(i, mean_w, energy_j)) continue;
      snap.readings.push_back(meter_reading(
          ctx_, ctx_.plan->node_indices[i], false, mean_w, energy_j));
    }
    if (!snap.readings.empty()) {
      ctx_.config->live_sink(render_json(partial_document(snap, virtual_now)));
      ++partials_;
    }
    if (between_windows) {
      snap.result.node_mean_powers_w.swap(meter_.spent_window_column());
      meter_.spent_window_column().resize(meter_.lanes());
    }
    ctx_.readings = std::move(snap.readings);
    ctx_.readings.clear();
  }

  Document partial_document(CampaignContext& snap, double virtual_now) {
    snap.dq().meters_planned = ctx_.dq().meters_planned;
    snap.dq().faults_enabled = ctx_.faulty;
    aggregate_nodes(snap);
    // Ground truth, computed once on first use (the final document's
    // truth comes from AssessStage as usual).
    if (!truth_) {
      truth_ = scope_truth(*ctx_.cluster, *ctx_.electrical, ctx_.plan->spec,
                           ctx_.streaming)
                   .value();
    }
    const double truth = *truth_;
    snap.result.true_power = Watts{truth};
    snap.result.relative_error =
        std::fabs(snap.result.submitted_power.value() - truth) / truth;

    LiveProgress prog;
    prog.seq = partials_;
    prog.virtual_s = virtual_now;
    prog.windows_closed = windows_closed_;
    prog.nodes_reporting = snap.readings.size();
    prog.window_capacity = ring_.capacity();
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      prog.recent_windows.push_back(ring_[i]);
    }
    prog.sketch_count = sketch_.count();
    if (!sketch_.empty()) {
      prog.sketch_bins = sketch_.bin_count();
      prog.sketch_alpha = sketch_.alpha();
      prog.p05_w = sketch_.quantile(0.05);
      prog.p50_w = sketch_.quantile(0.50);
      prog.p95_w = sketch_.quantile(0.95);
    }
    return live_assessment_document(*ctx_.plan, snap.result, prog);
  }

  CampaignContext& ctx_;
  LaneMeter& meter_;
  const LiveOptions& live_;
  RingBuffer<std::pair<std::size_t, double>> ring_;  ///< (window, fleet mean)
  QuantileSketch sketch_;
  double next_emit_;  ///< from the first window's origin, emit_every_s steps
  std::optional<double> truth_;
  std::size_t windows_closed_ = 0;
  std::size_t chunks_ = 0;
  std::size_t partials_ = 0;
};

void LaneMeter::run(ThreadPool* pool, LiveEmitter* live) {
  if (faulty_) draw_fates(pool);
  const ClusterPowerModel& cluster = *ctx_.cluster;
  const Seconds interval = ctx_.interval;
  const std::size_t chunk_cap =
      std::max<std::size_t>(std::size_t{1}, ctx_.config->live.chunk_samples);
  ShapeTable table;  // storage reused across chunks
  std::vector<std::int32_t> a_idx;
  for (std::size_t wi = 0; wi < ctx_.windows.size(); ++wi) {
    const TimeWindow& w = ctx_.windows[wi];
    const std::size_t samples = window_sample_count(w, interval);
    PV_EXPECTS(samples > 0, "window shorter than one reporting interval");
    const std::size_t cap = whole_windows_ ? samples : chunk_cap;
    for (std::size_t first = 0; first < samples; first += cap) {
      Chunk c{.w = &w, .first = first, .count = std::min(cap, samples - first)};
      c.closes = first + c.count == samples;
      if (streaming_) {
        build_shape_chunk(cluster, w, interval, ctx_.plan->meter_mode, first,
                          c.count, table);
        c.table = &table;
      }
      if (analysis_ > 0) {
        a_idx = map_analysis_samples(w, interval, first, c.count,
                                     ctx_.analysis);
        c.a_idx = a_idx.data();
        if (!faulty_) {
          for (const std::int32_t a : a_idx) {
            if (a >= 0) ++bucket_n_[static_cast<std::size_t>(a)];
          }
        }
      }
      parallel_chunks(pool, lanes_, [&](std::size_t b, std::size_t e) {
        FleetScratch scratch;
        meter_range(c, b, e, scratch);
      });
      open_n_ = c.closes ? 0 : open_n_ + c.count;
      if (c.closes) {
        ++windows_closed_;
        last_samples_ = samples;
      }
      if (live != nullptr) {
        live->after_chunk(w.begin.value() +
                          interval.value() *
                              static_cast<double>(first + c.count));
      }
    }
    if (live != nullptr) live->after_window(wi, w.end.value());
  }
}

// The Meter stage of every tap, on the lane driver.  Node taps meter the
// provisioned fleet, batch or live.  The rack-PDU tap meters one eager
// lane per rack containing a selected node: its reading *includes* PDU
// distribution loss, unlike node taps, and Aggregate attributes it evenly
// to the rack's nodes — the standard site practice when only PDU
// instrumentation exists.  The facility-feed tap meters the single
// whole-feed meter.  Rack and facility lanes are provisioned here, each on
// its own RNG stream.
class MeterStage final : public CampaignStage {
 public:
  [[nodiscard]] const char* name() const override { return "meter"; }

  void run(CampaignContext& ctx, StageTrace& trace) override {
    const SystemPowerModel& electrical = *ctx.electrical;
    const MeasurementPlan& plan = *ctx.plan;
    const CampaignConfig& config = *ctx.config;
    static constexpr std::size_t kFeed[] = {kFacilityStream};
    const bool facility = plan.point == MeasurementPoint::kFacilityFeed;
    const bool racks = plan.point == MeasurementPoint::kRackPdu;
    std::span<const std::size_t> ids = plan.node_indices;  // fault-plan ids
    LaneTruth truth;
    if (facility) {
      // There is no surviving-node fallback: losing the only meter ends
      // the campaign.
      if (ctx.faulty && config.faults.forced_dead(kFacilityStream)) {
        throw NoUsableDataError(
            "campaign: the facility-feed meter is dead and no fallback "
            "instrumentation exists");
      }
      ids = kFeed;
      truth = [&](std::size_t) { return electrical.facility_function(); };
    } else if (racks) {
      ids = ctx.racks;
      truth = [&](std::size_t i) -> PowerFunction {
        const std::size_t rack = ctx.racks[i];
        return [&electrical, rack](double t) {
          return electrical.rack_pdu_w(rack, t);
        };
      };
    } else {
      PV_EXPECTS(ctx.fleet != nullptr, "meter stage needs a provisioned fleet");
      truth = [&](std::size_t i) -> PowerFunction {
        const std::size_t node = plan.node_indices[i];
        if (plan.point == MeasurementPoint::kNodeDc) {
          return [&electrical, node](double t) {
            return electrical.node_dc_w(node, t);
          };
        }
        return electrical.node_ac_function(node);
      };
    }
    std::optional<FleetState> eager_lanes;
    if (facility || racks) {
      std::vector<std::size_t> streams(ids.begin(), ids.end());
      for (std::size_t& stream : streams) {
        stream += racks ? kRackStreamBase : 0;
      }
      eager_lanes.emplace(build_fleet_state(streams, lane_spec(ctx, false),
                                            ctx.windows, nullptr, nullptr,
                                            nullptr));
    }
    FleetState& fleet = eager_lanes ? *eager_lanes : *ctx.fleet;
    const std::size_t n = fleet.size();
    const std::size_t fanout = node_fanout(config, ctx.reconciling);
    const std::size_t workers = std::min(fanout, n);
    std::optional<ThreadPool> pool;
    if (workers > 1) pool.emplace(static_cast<unsigned>(workers));

    LaneMeter meter(ctx, fleet, ids, ctx.streaming, truth);
    std::optional<LiveEmitter> live;
    if (config.live.enabled && !eager_lanes) live.emplace(ctx, meter);
    meter.run(pool ? &*pool : nullptr, live ? &*live : nullptr);

    std::size_t lost = 0;
    ctx.devices.resize(n);
    if (!facility) ctx.readings.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const DeviceReading& r = ctx.devices[i] = meter.finish(i);
      lost += r.lost ? 1 : 0;
      if (facility) continue;
      ctx.readings.push_back(
          meter_reading(ctx, ids[i], r.lost, r.mean_w, r.energy_j));
      if (racks) {
        const std::size_t first = ids[i] * electrical.nodes_per_rack();
        ctx.rack_nodes_in.push_back(std::min(electrical.nodes_per_rack(),
                                             electrical.node_count() - first));
      }
    }

    trace.items = n;
    trace.samples = ctx.samples_per_meter * n;
    // Every meter reads every window.
    for (const TimeWindow& w : ctx.windows) {
      trace.virtual_s += w.duration().value();
    }
    trace.virtual_s *= static_cast<double>(n);
    if (eager_lanes) {
      trace.counters = {{"lost", static_cast<double>(lost)}};
      return;
    }
    trace.counters = {
        {"engine_streaming", ctx.streaming ? 1.0 : 0.0},
        {"fleet_fused", meter.fused() ? 1.0 : 0.0},
        {"fanout", static_cast<double>(fanout)},
        {"lost", static_cast<double>(lost)},
    };
    if (live) live->add_counters(trace);
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
    for (const DeviceReading& r : ctx.devices) {
      dq.samples_expected += r.samples_expected;
      dq.samples_lost += r.samples_lost;
      dq.samples_repaired += r.samples_repaired;
      dq.spikes_filtered += r.spikes_filtered;
      dq.stuck_flagged += r.stuck_flagged;
    }

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

// Aggregate for node and rack-PDU taps — the shared tail every node
// campaign (sync or async collection) runs: exclusion, extrapolation,
// energy re-basing, the Eq. 1 CI and its corrected-sigma widening,
// coverage fractions.  A rack reading is attributed evenly to the rack's
// nodes, so a dead or degraded rack meter loses the whole rack and
// extrapolation proceeds from the rest.
void aggregate_nodes(CampaignContext& ctx) {
  const ClusterPowerModel& cluster = *ctx.cluster;
  const SystemPowerModel& electrical = *ctx.electrical;
  const MeasurementPlan& plan = *ctx.plan;
  CampaignResult& result = ctx.result;
  DataQuality& dq = ctx.dq();
  const bool racks = plan.point == MeasurementPoint::kRackPdu;

  result.system_name = cluster.name();
  result.window_duration = plan.window.duration();

  double energy_j = 0.0;
  result.node_mean_powers_w.reserve(ctx.readings.size());
  for (std::size_t i = 0; i < ctx.readings.size(); ++i) {
    const NodeReading& r = ctx.readings[i];
    if (r.lost) {
      ++dq.meters_lost;
      dq.lost_meter_ids.push_back(r.node);
      continue;
    }
    const std::size_t nodes = racks ? ctx.rack_nodes_in[i] : 1;
    result.node_mean_powers_w.insert(
        result.node_mean_powers_w.end(), nodes,
        racks ? r.mean_w / static_cast<double>(nodes) : r.mean_w);
    energy_j += r.energy_j;
  }
  if (result.node_mean_powers_w.empty()) {
    throw NoUsableDataError(
        std::string("campaign: every ") + (racks ? "rack" : "node") +
        " meter was lost (" + std::to_string(dq.meters_lost) + " of " +
        std::to_string(dq.meters_planned) +
        "); nothing to extrapolate from");
  }
  result.nodes_measured = result.node_mean_powers_w.size();
  // Scale energy to the planned metering scope so submissions stay
  // comparable between degraded and clean campaigns.  Rack meters cover
  // whole racks, so only a lost rack can leave fewer nodes than planned.
  const std::size_t planned = racks ? plan.node_count() : dq.meters_planned;
  if (result.nodes_measured < planned) {
    energy_j *= static_cast<double>(planned) /
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
      static_cast<double>(planned) / static_cast<double>(cluster.node_count());
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
    result.true_power = scope_truth(*ctx.cluster, *ctx.electrical,
                                    ctx.plan->spec, ctx.streaming);
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
  return scope_truth(cluster, electrical, spec, false);
}

StagePtr make_provision_stage() { return std::make_unique<ProvisionStage>(); }
StagePtr make_meter_stage() { return std::make_unique<MeterStage>(); }
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
  stages.push_back(make_meter_stage());
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
