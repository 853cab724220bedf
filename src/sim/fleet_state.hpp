#pragma once
// FleetState: per-node campaign state in structure-of-arrays layout.
//
// The historical engine walks one node at a time: a NodeInstance-derived
// mean, a MeterModel, a noise Rng and a window accumulator per node, each
// node's window streamed start-to-finish before the next node begins.  That
// array-of-structs walk leaves the only loop-carried dependency — the
// window's running sum — serial *within* a node, so the reduction never
// vectorizes.  FleetState transposes the fleet: contiguous per-field
// vectors (node ids, provisioned DC draw, meter gain/offset, PSU curve
// lanes, fault/quarantine flags, per-node RNG streams) let the streaming
// window kernels run sample-major with the *node index as the SIMD lane*.
// Per-node accumulator chains are independent across lanes, so the
// previously serial sum becomes an elementwise vector add.
//
// Byte-identity contract (the repo's signature): every lane performs the
// exact scalar expressions of the per-node path, operand for operand, in
// the per-node order — each node's samples are still consumed
// left-to-right, each node's RNG streams are keyed and drawn identically —
// so gathered results are bit-identical to the pre-refactor engine at any
// thread count (ctest-enforced by test_fleet_soa).  The project builds
// with -ffp-contract=off, so the shared expressions round identically in
// every translation unit.
//
// Ownership: build_fleet_state provisions a FleetState from the plan's
// node cohort; core/pipeline's CampaignContext owns the instance for the
// duration of one campaign (see docs/architecture.md).  The sim layer
// owns the layout and the kernels because they are pure functions of sim
// inputs; the pipeline's lane driver keeps its per-lane metering state
// (window sums, accumulators, fault state) in columns beside the table.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "meter/faults.hpp"
#include "meter/meter.hpp"
#include "meter/psu.hpp"
#include "sim/cluster.hpp"
#include "sim/node.hpp"
#include "sim/streaming.hpp"
#include "stats/rng.hpp"
#include "util/parallel.hpp"
#include "util/units.hpp"

namespace pv {

/// RNG stream salts for per-meter calibration and per-sample noise —
/// shared by every provisioning site (the campaign's Meter stage, the
/// async collector) so a node's streams are identical wherever it is
/// metered.
inline constexpr std::uint64_t kCalibrationSalt = 0x5CA1AB1EULL;
inline constexpr std::uint64_t kNoiseSalt = 0xBADCAB1EULL;

/// SoA mirror of the scalar NodeSpec fields (the SKU's VID/efficiency and
/// variability parameters).  gather/scatter round-trip bit-exactly — the
/// vectors carry the exact stored doubles, no recomputation — so fleet
/// tooling can transpose a cohort, operate column-wise and restore it.
/// Nested component specs (CpuSpec/GpuSpec/FanSpec/ThermalSpec) stay
/// AoS: they are per-SKU, not per-node-varying.
struct NodeSpecSoA {
  std::vector<std::size_t> cpu_count;
  std::vector<std::size_t> gpu_count;
  std::vector<double> memory_w;
  std::vector<double> misc_w;
  std::vector<double> psu_rated_w;
  std::vector<double> cpu_leakage_cv;
  std::vector<double> gpu_leakage_cv;
  std::vector<double> gpu_vid_leakage_corr;
  std::vector<double> gpu_dynamic_cv;
  std::vector<double> inlet_sd_c;
  std::vector<double> memory_cv;
  std::vector<double> hpl_efficiency;

  [[nodiscard]] std::size_t size() const { return memory_w.size(); }
  [[nodiscard]] static NodeSpecSoA gather(std::span<const NodeSpec> specs);
  /// Writes the columns back into `specs` (sizes must match).
  void scatter(std::span<NodeSpec> specs) const;
};

/// SoA mirror of NodeSettings (the operator knobs: DVFS point, GPU
/// voltage mode, fan policy).  Same bit-exact round-trip contract.
struct NodeSettingsSoA {
  std::vector<std::uint8_t> cpu_op_set;  ///< cpu_op.has_value()
  std::vector<double> cpu_op_hz;         ///< 0.0 when unset
  std::vector<double> cpu_op_v;          ///< 0.0 when unset
  std::vector<std::uint8_t> gpu_mode;    ///< NodeSettings::GpuMode
  std::vector<double> gpu_fixed_hz;
  std::vector<double> gpu_fixed_v;
  std::vector<std::uint8_t> fan_mode;  ///< FanPolicy::Mode
  std::vector<double> fan_pinned_speed;

  [[nodiscard]] std::size_t size() const { return gpu_mode.size(); }
  [[nodiscard]] static NodeSettingsSoA gather(
      std::span<const NodeSettings> settings);
  void scatter(std::span<NodeSettings> settings) const;
};

/// The metered cohort, transposed.  Lane i is the i-th node of the plan's
/// selection (plan order); all vectors are parallel.
struct FleetState {
  // --- identity / provisioned draw --------------------------------------
  std::vector<std::size_t> node;  ///< cluster node ids, plan order
  std::vector<double> mean_w;     ///< per-node mean DC draw (0 w/o cluster)

  // --- meter calibration -------------------------------------------------
  /// SoA mirrors of meters[i].gain()/offset_w() — the fused kernels read
  /// these contiguously; the per-node paths use the models directly.
  std::vector<double> gain;
  std::vector<double> offset_w;
  double noise_sd = 0.0;  ///< shared accuracy class (fixed per campaign)
  /// Per-node meter models for the per-node code paths (eager engine,
  /// faulted windows, dense-window fallback).  Calibration streams keyed
  /// by node id, exactly as the inline construction sites draw them.
  std::vector<MeterModel> meters;
  /// Per-node per-sample noise streams (Rng(seed ^ kNoiseSalt, node)).
  /// Mutable state: whichever metering path runs consumes them in the
  /// node's sample order.
  std::vector<Rng> noise;

  // --- PSU lanes ----------------------------------------------------------
  std::vector<const CompiledPsuCurve*> curve;  ///< null lanes = DC tap
  FleetPsuBank bank;  ///< fleet-major ac_from_dc over the curve lanes

  // --- fault / quarantine flags -------------------------------------------
  std::vector<std::uint8_t> dead;  ///< forced dead at provision (fp.forced_dead)
  std::vector<std::size_t> samples_expected;  ///< per meter, over all windows

  [[nodiscard]] std::size_t size() const { return node.size(); }
};

/// Provisioning inputs shared by every lane.
struct FleetProvisionSpec {
  MeterAccuracy accuracy;
  MeterMode mode = MeterMode::kSampled;
  Seconds interval{1.0};
  std::uint64_t seed = 1;
  bool ac_tap = true;  ///< bind PSU curve lanes (needs `electrical`)
};

/// Provisions a FleetState for the cohort `nodes`, sharded over `pool`
/// when given.  Every lane is a pure function of its own node id (RNG
/// streams keyed per node, slots disjoint), so the build is bit-identical
/// at any thread count.  `faults` may be null (clean campaign); `cluster`
/// fills mean_w; `electrical` + ac_tap binds the PSU curve lanes and the
/// bank.  `windows` sizes samples_expected.
[[nodiscard]] FleetState build_fleet_state(
    std::span<const std::size_t> nodes, const FleetProvisionSpec& spec,
    const std::vector<TimeWindow>& windows, const FaultPlan* faults,
    const ClusterPowerModel* cluster, const SystemPowerModel* electrical,
    ThreadPool* pool = nullptr);

/// Where the lane kernels add one chunk's readings: each lane's
/// open-window running sum (chained left to right, the order a whole
/// trace's prefix sum uses) and, when the campaign reconciles, the
/// analysis-window bucket sums — row-major, analysis window a of lane i
/// at bucket_sum[a * stride + i], addressed per chunk sample through
/// a_idx (see map_analysis_samples; null = no buckets).  Workers own
/// disjoint lane ranges, so the sinks are shared without synchronization.
struct LaneSinks {
  double* win_sum = nullptr;
  const std::int32_t* a_idx = nullptr;
  double* bucket_sum = nullptr;
  std::size_t stride = 0;
};

/// Reused per-worker staging for the fused kernels.
struct FleetScratch {
  std::vector<double> acl;  ///< levels x lanes AC matrix (row-major by level)
  std::vector<double> dc;   ///< per-lane DC staging for one level
  std::vector<double> lf;   ///< FleetPsuBank blend staging
  std::vector<double> eff;  ///< FleetPsuBank blend staging
  StreamScratch node;       ///< per-lane readings (non-fused sources)
};

/// Maps samples [first, first + count) of window `w` onto the analysis
/// windows: entry k is the index of the analysis window containing the
/// bucket time of window-global sample first + k (w.begin + (first + k +
/// 0.5) * interval, first match wins), or -1 when none contains it.  The
/// grid is shared across the cohort, so this is computed once per chunk,
/// not per lane.
[[nodiscard]] std::vector<std::int32_t> map_analysis_samples(
    const TimeWindow& w, Seconds interval, std::size_t first,
    std::size_t count, const std::vector<TimeWindow>& analysis);

/// Chains one lane's chunk of readings, in sample order, into its sinks.
void chain_lane_chunk(std::span<const double> readings, std::size_t lane,
                      const LaneSinks& sinks);

/// Streams one chunk (from build_shape_chunk) for fleet lanes [begin,
/// end) into `sinks`.  With `fused` set and a level-indexed chunk, the
/// fused lane kernel runs sample-major with the node index as the vector
/// lane; otherwise each lane runs stream_node_window + chain_lane_chunk.
/// Either way every lane gets the per-node expressions operand for
/// operand and consumes fleet.noise in sample order, so the two are
/// bit-identical.  Workers must own disjoint lane ranges.
void stream_lane_chunk(const ShapeTable& chunk, FleetState& fleet,
                       std::size_t begin, std::size_t end, bool fused,
                       const LaneSinks& sinks, FleetScratch& scratch);

}  // namespace pv
