// Differential harness for the SoA fleet engine.
//
// The headline contract: a campaign run through the fused fleet kernels
// (CampaignConfig::fleet_soa, the default) must produce a final
// assessment byte-identical to the per-node scalar path (fleet_soa off)
// — memcmp on every reported double and verdict, string equality on the
// rendered JSON — across seeds x L1/L2/L3 x thread counts x {clean,
// harsh faults + dead + byzantine + reconcile, clean reconcile, live}.
// Alongside the differential: the SoA gather/scatter round-trips are
// bit-exact, dead-lane masking matches the per-node dead-meter path,
// the sharded fleet provision is thread-count invariant (the FleetSoA
// suite, run under TSan), and stats merge_all reduces shards exactly
// left-to-right.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/plan.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "sim/fleet_state.hpp"
#include "stats/fused.hpp"
#include "util/parallel.hpp"

namespace pv {
namespace {

struct Rig {
  std::unique_ptr<ClusterPowerModel> cluster;
  std::unique_ptr<SystemPowerModel> electrical;
  MeasurementPlan plan;
};

Rig make_rig(std::size_t nodes, Level level, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "fleet-rig";
  spec.nodes = nodes;
  spec.cv = 0.03;
  spec.fleet_seed = seed ^ 0x99;
  Scenario built = build_scenario(spec);
  Rig rig;
  rig.plan = built.plan(MethodologySpec::get(level, Revision::kV2015), seed);
  rig.cluster = std::move(built.cluster);
  rig.electrical = std::move(built.electrical);
  return rig;
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Byte-compares everything a campaign reports — per-node means, CI,
// energy, truth, data-quality tallies and reconcile verdicts — then the
// rendered JSON document as a whole.
void expect_identical(const MeasurementPlan& plan, const CampaignResult& a,
                      const CampaignResult& b, const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_TRUE(bits_equal(a.submitted_power.value(), b.submitted_power.value()));
  EXPECT_TRUE(
      bits_equal(a.submitted_energy.value(), b.submitted_energy.value()));
  EXPECT_EQ(a.nodes_measured, b.nodes_measured);
  ASSERT_EQ(a.node_mean_powers_w.size(), b.node_mean_powers_w.size());
  for (std::size_t i = 0; i < a.node_mean_powers_w.size(); ++i) {
    EXPECT_TRUE(bits_equal(a.node_mean_powers_w[i], b.node_mean_powers_w[i]))
        << "node mean " << i;
  }
  EXPECT_TRUE(bits_equal(a.node_mean_ci.lo, b.node_mean_ci.lo));
  EXPECT_TRUE(bits_equal(a.node_mean_ci.hi, b.node_mean_ci.hi));
  EXPECT_TRUE(bits_equal(a.relative_halfwidth, b.relative_halfwidth));
  EXPECT_TRUE(bits_equal(a.true_power.value(), b.true_power.value()));
  EXPECT_TRUE(bits_equal(a.relative_error, b.relative_error));
  const DataQuality& qa = a.data_quality;
  const DataQuality& qb = b.data_quality;
  EXPECT_EQ(qa.meters_lost, qb.meters_lost);
  EXPECT_EQ(qa.lost_meter_ids, qb.lost_meter_ids);
  EXPECT_EQ(qa.samples_lost, qb.samples_lost);
  EXPECT_EQ(qa.samples_repaired, qb.samples_repaired);
  EXPECT_EQ(qa.spikes_filtered, qb.spikes_filtered);
  EXPECT_EQ(qa.stuck_flagged, qb.stuck_flagged);
  EXPECT_TRUE(bits_equal(qa.sample_coverage, qb.sample_coverage));
  EXPECT_EQ(qa.reconcile_ran, qb.reconcile_ran);
  EXPECT_EQ(qa.integrity.meters_checked, qb.integrity.meters_checked);
  EXPECT_EQ(qa.integrity.meters_quarantined, qb.integrity.meters_quarantined);
  EXPECT_EQ(qa.integrity.meters_corrected, qb.integrity.meters_corrected);
  ASSERT_EQ(qa.integrity.diagnoses.size(), qb.integrity.diagnoses.size());
  for (std::size_t i = 0; i < qa.integrity.diagnoses.size(); ++i) {
    EXPECT_EQ(qa.integrity.diagnoses[i].meter_id,
              qb.integrity.diagnoses[i].meter_id);
    EXPECT_EQ(static_cast<int>(qa.integrity.diagnoses[i].verdict),
              static_cast<int>(qb.integrity.diagnoses[i].verdict));
  }
  // The whole rendered document, byte for byte.
  EXPECT_EQ(render_json(assessment_document(plan, a)),
            render_json(assessment_document(plan, b)));
}

CampaignConfig base_config(std::uint64_t seed, std::size_t threads = 1,
                           bool soa = true) {
  CampaignConfig cfg;
  cfg.seed = seed;
  cfg.threads = threads;
  cfg.fleet_soa = soa;
  cfg.meter_interval_override = Seconds{5.0};
  return cfg;
}

CampaignConfig with_harsh_faults(CampaignConfig cfg,
                                 const MeasurementPlan& plan) {
  cfg.faults.spec = FaultSpec::harsh();
  cfg.faults.dead_meters = {plan.node_indices[1]};
  cfg.faults.byzantine_meters = {plan.node_indices[0], plan.node_indices[3]};
  cfg.reconcile.enabled = true;
  return cfg;
}

// ---------------------------------------------------------------------------
// Differential: fused SoA engine vs the per-node scalar path.

class FleetEngineDifferential
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Level>> {};

TEST_P(FleetEngineDifferential, CleanFusedMatchesScalarPath) {
  const auto [seed, level] = GetParam();
  const Rig rig = make_rig(96, level, seed);
  const auto scalar = run_campaign(*rig.cluster, *rig.electrical, rig.plan,
                                   base_config(seed, 1, /*soa=*/false));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{5}}) {
    const auto fused = run_campaign(*rig.cluster, *rig.electrical, rig.plan,
                                    base_config(seed, threads, /*soa=*/true));
    expect_identical(rig.plan, scalar, fused,
                     "clean, threads=" + std::to_string(threads));
  }
}

TEST_P(FleetEngineDifferential, FaultedByzantineReconciledMatchesScalarPath) {
  const auto [seed, level] = GetParam();
  const Rig rig = make_rig(96, level, seed);
  const auto scalar =
      run_campaign(*rig.cluster, *rig.electrical, rig.plan,
                   with_harsh_faults(base_config(seed, 1, false), rig.plan));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{5}}) {
    const auto fused = run_campaign(
        *rig.cluster, *rig.electrical, rig.plan,
        with_harsh_faults(base_config(seed, threads, true), rig.plan));
    expect_identical(rig.plan, scalar, fused,
                     "faulted, threads=" + std::to_string(threads));
  }
}

TEST_P(FleetEngineDifferential, CleanReconcileFusedBucketsMatchScalarPath) {
  // Reconciliation without faults drives the fused kernels' analysis
  // buckets (the faulted runs above fall back to the per-node path).
  const auto [seed, level] = GetParam();
  const Rig rig = make_rig(96, level, seed);
  CampaignConfig ref = base_config(seed, 1, false);
  ref.reconcile.enabled = true;
  const auto scalar =
      run_campaign(*rig.cluster, *rig.electrical, rig.plan, ref);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{5}}) {
    CampaignConfig cfg = base_config(seed, threads, true);
    cfg.reconcile.enabled = true;
    const auto fused =
        run_campaign(*rig.cluster, *rig.electrical, rig.plan, cfg);
    expect_identical(rig.plan, scalar, fused,
                     "reconcile, threads=" + std::to_string(threads));
  }
}

TEST_P(FleetEngineDifferential, LiveFusedChunkDriverMatchesScalarPath) {
  const auto [seed, level] = GetParam();
  const Rig rig = make_rig(96, level, seed);
  CampaignConfig ref = base_config(seed, 1, false);
  ref.live.enabled = true;
  ref.live.chunk_samples = 37;
  const auto scalar =
      run_campaign(*rig.cluster, *rig.electrical, rig.plan, ref);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{5}}) {
    CampaignConfig cfg = base_config(seed, threads, true);
    cfg.live.enabled = true;
    cfg.live.chunk_samples = 37;
    const auto fused =
        run_campaign(*rig.cluster, *rig.electrical, rig.plan, cfg);
    expect_identical(rig.plan, scalar, fused,
                     "live, threads=" + std::to_string(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndLevels, FleetEngineDifferential,
    ::testing::Combine(::testing::Values(1u, 3u),
                       ::testing::Values(Level::kL1, Level::kL2, Level::kL3)),
    [](const ::testing::TestParamInfo<FleetEngineDifferential::ParamType>& p) {
      return "seed" + std::to_string(std::get<0>(p.param)) + "_L" +
             std::to_string(static_cast<int>(std::get<1>(p.param)));
    });

TEST(FleetEngineDifferential, DeadMeterMaskingMatchesScalarPath) {
  // Dead lanes (quarantined at provision) must drop out of the fused
  // cohort exactly as the per-node path drops dead meters: same
  // lost-meter ids, same coverage, same submitted numbers.
  const Rig rig = make_rig(64, Level::kL1, 5);
  CampaignConfig ref = base_config(5, 1, false);
  ref.faults.dead_meters = {rig.plan.node_indices[0],
                            rig.plan.node_indices[7]};
  const auto scalar =
      run_campaign(*rig.cluster, *rig.electrical, rig.plan, ref);
  EXPECT_EQ(scalar.data_quality.meters_lost, 2u);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{5}}) {
    CampaignConfig cfg = base_config(5, threads, true);
    cfg.faults.dead_meters = ref.faults.dead_meters;
    const auto fused =
        run_campaign(*rig.cluster, *rig.electrical, rig.plan, cfg);
    expect_identical(rig.plan, scalar, fused,
                     "dead, threads=" + std::to_string(threads));
  }
}

// ---------------------------------------------------------------------------
// SoA layout: gather/scatter round-trips are bit-exact.

std::vector<NodeSpec> varied_specs() {
  std::vector<NodeSpec> specs(5);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    NodeSpec& s = specs[i];
    const double f = static_cast<double>(i + 1);
    s.cpu_count = i + 1;
    s.gpu_count = i % 3;
    s.memory_w = 40.0 + 0.1 * f;
    s.misc_w = 25.0 / f;
    s.psu_rated_w = 1200.0 + f;
    s.cpu_leakage_cv = 0.04 * f;
    s.gpu_leakage_cv = 0.03 / f;
    s.gpu_vid_leakage_corr = 0.5 - 0.01 * f;
    s.gpu_dynamic_cv = 0.02 + 1e-9 * f;
    s.inlet_sd_c = 1.5 * f;
    s.memory_cv = 0.02 / f;
    s.hpl_efficiency = 0.80 + 0.007 * f;
  }
  // Signed zero and a subnormal must survive the transpose bitwise.
  specs[2].misc_w = -0.0;
  specs[3].memory_cv = 5e-324;
  return specs;
}

TEST(FleetLayout, NodeSpecRoundTripIsBitExact) {
  const std::vector<NodeSpec> original = varied_specs();
  const NodeSpecSoA soa = NodeSpecSoA::gather(original);
  ASSERT_EQ(soa.size(), original.size());
  // Scatter into defaulted specs: every mirrored column must restore.
  std::vector<NodeSpec> restored(original.size());
  soa.scatter(restored);
  for (std::size_t i = 0; i < original.size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    EXPECT_EQ(restored[i].cpu_count, original[i].cpu_count);
    EXPECT_EQ(restored[i].gpu_count, original[i].gpu_count);
    EXPECT_TRUE(bits_equal(restored[i].memory_w, original[i].memory_w));
    EXPECT_TRUE(bits_equal(restored[i].misc_w, original[i].misc_w));
    EXPECT_TRUE(bits_equal(restored[i].psu_rated_w, original[i].psu_rated_w));
    EXPECT_TRUE(
        bits_equal(restored[i].cpu_leakage_cv, original[i].cpu_leakage_cv));
    EXPECT_TRUE(
        bits_equal(restored[i].gpu_leakage_cv, original[i].gpu_leakage_cv));
    EXPECT_TRUE(bits_equal(restored[i].gpu_vid_leakage_corr,
                           original[i].gpu_vid_leakage_corr));
    EXPECT_TRUE(
        bits_equal(restored[i].gpu_dynamic_cv, original[i].gpu_dynamic_cv));
    EXPECT_TRUE(bits_equal(restored[i].inlet_sd_c, original[i].inlet_sd_c));
    EXPECT_TRUE(bits_equal(restored[i].memory_cv, original[i].memory_cv));
    EXPECT_TRUE(
        bits_equal(restored[i].hpl_efficiency, original[i].hpl_efficiency));
  }
}

TEST(FleetLayout, NodeSettingsRoundTripIsBitExact) {
  std::vector<NodeSettings> original(4);
  original[0] = NodeSettings::defaults();
  original[1] = NodeSettings::tuned_lcsc();
  original[2].cpu_op = OperatingPoint{megahertz(2100.0), volts(0.9875)};
  original[2].gpu_mode = NodeSettings::GpuMode::kFixed;
  original[2].gpu_fixed_op = OperatingPoint{megahertz(700.0), volts(-0.0)};
  original[3].fan_policy = FanPolicy::pinned(0.37);

  const NodeSettingsSoA soa = NodeSettingsSoA::gather(original);
  ASSERT_EQ(soa.size(), original.size());
  std::vector<NodeSettings> restored(original.size());
  soa.scatter(restored);
  for (std::size_t i = 0; i < original.size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    ASSERT_EQ(restored[i].cpu_op.has_value(), original[i].cpu_op.has_value());
    if (original[i].cpu_op.has_value()) {
      EXPECT_TRUE(bits_equal(restored[i].cpu_op->frequency.value(),
                             original[i].cpu_op->frequency.value()));
      EXPECT_TRUE(bits_equal(restored[i].cpu_op->voltage.value(),
                             original[i].cpu_op->voltage.value()));
    }
    EXPECT_EQ(restored[i].gpu_mode, original[i].gpu_mode);
    EXPECT_TRUE(bits_equal(restored[i].gpu_fixed_op.frequency.value(),
                           original[i].gpu_fixed_op.frequency.value()));
    EXPECT_TRUE(bits_equal(restored[i].gpu_fixed_op.voltage.value(),
                           original[i].gpu_fixed_op.voltage.value()));
    EXPECT_EQ(restored[i].fan_policy.mode, original[i].fan_policy.mode);
    EXPECT_TRUE(bits_equal(restored[i].fan_policy.pinned_speed,
                           original[i].fan_policy.pinned_speed));
  }
}

// ---------------------------------------------------------------------------
// FleetSoA: the sharded provision and the fused drivers under threads.
// These run in the TSan tier (run_tier1.sh matches the suite name).

void expect_same_fleet(const FleetState& a, const FleetState& b,
                       const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.node, b.node);
  EXPECT_EQ(a.samples_expected, b.samples_expected);
  EXPECT_EQ(a.dead, b.dead);
  EXPECT_TRUE(bits_equal(a.noise_sd, b.noise_sd));
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("lane " + std::to_string(i));
    EXPECT_TRUE(bits_equal(a.mean_w[i], b.mean_w[i]));
    EXPECT_TRUE(bits_equal(a.gain[i], b.gain[i]));
    EXPECT_TRUE(bits_equal(a.offset_w[i], b.offset_w[i]));
    EXPECT_TRUE(bits_equal(a.meters[i].gain(), b.meters[i].gain()));
    EXPECT_TRUE(bits_equal(a.meters[i].offset_w(), b.meters[i].offset_w()));
    EXPECT_EQ(a.curve[i], b.curve[i]);
    // The noise streams must be positioned identically: drawing from
    // copies yields the same sequence.
    Rng ra = a.noise[i];
    Rng rb = b.noise[i];
    for (int k = 0; k < 4; ++k) EXPECT_EQ(ra.next(), rb.next());
  }
}

TEST(FleetSoA, ShardedProvisionIsThreadCountInvariant) {
  const Rig rig = make_rig(64, Level::kL1, 9);
  FaultPlan faults;
  faults.dead_meters = {rig.plan.node_indices[3], rig.plan.node_indices[11]};
  const std::vector<TimeWindow> windows = {
      TimeWindow{Seconds{120.0}, Seconds{300.0}},
      TimeWindow{Seconds{300.0}, Seconds{480.0}}};
  FleetProvisionSpec spec;
  spec.accuracy = MeterAccuracy::pdu_grade();
  spec.interval = Seconds{5.0};
  spec.seed = 9;
  const FleetState serial =
      build_fleet_state(rig.plan.node_indices, spec, windows, &faults,
                        rig.cluster.get(), rig.electrical.get(), nullptr);
  // Dead lanes mirror the fault plan, in plan order.
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial.dead[i] != 0, faults.forced_dead(serial.node[i]))
        << "lane " << i;
  }
  for (const unsigned threads : {2u, 8u}) {
    ThreadPool pool(threads);
    const FleetState sharded =
        build_fleet_state(rig.plan.node_indices, spec, windows, &faults,
                          rig.cluster.get(), rig.electrical.get(), &pool);
    expect_same_fleet(serial, sharded,
                      "threads=" + std::to_string(threads));
  }
}

TEST(FleetSoA, FusedBatchIsThreadCountInvariant) {
  // The fused batch stage shards lanes across the pool; any thread count
  // must report the byte-identical document (TSan races this).
  const Rig rig = make_rig(96, Level::kL1, 17);
  const auto one = run_campaign(*rig.cluster, *rig.electrical, rig.plan,
                                base_config(17, 1, true));
  const auto eight = run_campaign(*rig.cluster, *rig.electrical, rig.plan,
                                  base_config(17, 8, true));
  expect_identical(rig.plan, one, eight, "batch 1 vs 8 threads");
}

TEST(FleetSoA, FusedLiveChunkDriverIsThreadCountInvariant) {
  const Rig rig = make_rig(96, Level::kL1, 17);
  CampaignConfig a = base_config(17, 1, true);
  a.live.enabled = true;
  a.live.chunk_samples = 37;
  CampaignConfig b = base_config(17, 8, true);
  b.live.enabled = true;
  b.live.chunk_samples = 37;
  const auto one = run_campaign(*rig.cluster, *rig.electrical, rig.plan, a);
  const auto eight = run_campaign(*rig.cluster, *rig.electrical, rig.plan, b);
  expect_identical(rig.plan, one, eight, "live 1 vs 8 threads");
}

// ---------------------------------------------------------------------------
// merge_all: shard reduction is exactly left-to-right merge().

TEST(FleetMergeAll, ReducesShardsLeftToRight) {
  std::vector<FusedAccumulator> shards(4);
  Rng rng(123);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    for (int k = 0; k < 17; ++k) {
      shards[s].push(rng.uniform(100.0, 900.0));
    }
  }
  FusedAccumulator manual;
  for (const FusedAccumulator& s : shards) manual.merge(s);
  const FusedAccumulator merged = merge_all(shards);
  EXPECT_EQ(merged.count(), manual.count());
  EXPECT_TRUE(bits_equal(merged.sum(), manual.sum()));
  EXPECT_TRUE(bits_equal(merged.mean(), manual.mean()));
  EXPECT_TRUE(bits_equal(merged.variance(), manual.variance()));
  EXPECT_TRUE(bits_equal(merged.min(), manual.min()));
}

TEST(FleetMergeAll, EmptySpanYieldsEmptyAccumulator) {
  const FusedAccumulator merged = merge_all({});
  EXPECT_EQ(merged.count(), 0u);
}

// ---------------------------------------------------------------------------
// Scenario-scale guard rails (the typed error the CLI maps to exit 2).

TEST(ScenarioScale, GuardsRejectAbsurdSpecs) {
  ScenarioSpec spec;
  spec.nodes = 0;
  EXPECT_THROW((void)build_scenario(spec), ScenarioError);
  spec.nodes = (std::size_t{1} << 22) + 1;  // past the fleet-scale cap
  EXPECT_THROW((void)build_scenario(spec), ScenarioError);
  spec.nodes = 64;
  spec.run_minutes = 0.0;
  EXPECT_THROW((void)build_scenario(spec), ScenarioError);
  // A fleet-wide sample count past 2^53 throws before any allocation.
  spec.nodes = std::size_t{1} << 22;
  spec.run_minutes = 4e7;
  EXPECT_THROW((void)build_scenario(spec), ScenarioError);
  // Externally supplied fleet draws must match the node count.
  spec = ScenarioSpec{};
  spec.nodes = 8;
  EXPECT_THROW(
      (void)build_scenario_with_powers(spec, std::vector<double>(7, 400.0)),
      ScenarioError);
  EXPECT_NO_THROW(
      (void)build_scenario_with_powers(spec, std::vector<double>(8, 400.0)));
}

}  // namespace
}  // namespace pv
