// Campaign-level fault injection and graceful degradation: dead meters
// are excluded, gaps repaired, extrapolation re-based on survivors, and
// the DataQuality block discloses exactly what happened.  The zero-fault
// plan must be bit-identical to the historical fault-free path.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/campaign.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "sim/fleet.hpp"
#include "workload/profiles.hpp"

namespace pv {
namespace {

struct Rig {
  std::unique_ptr<ClusterPowerModel> cluster;
  std::unique_ptr<SystemPowerModel> electrical;
  PlanInputs inputs;
};

Rig make_rig(std::size_t n_nodes, double cv = 0.02) {
  ScenarioSpec spec;
  spec.name = "fault-rig";
  spec.nodes = n_nodes;
  spec.cv = cv;
  spec.fleet_seed = 99;
  Scenario built = build_scenario(spec);
  Rig rig;
  rig.cluster = std::move(built.cluster);
  rig.electrical = std::move(built.electrical);
  rig.inputs = built.inputs;
  return rig;
}

CampaignConfig fast_config() {
  CampaignConfig c;
  c.meter_accuracy = MeterAccuracy::pdu_grade();
  c.meter_interval_override = Seconds{10.0};
  return c;
}

// A plan metering exactly 16 nodes (the acceptance scenario's shape).
MeasurementPlan plan16(const Rig& rig, Rng& rng) {
  const auto spec = MethodologySpec::get(Level::kL1, Revision::kV2015);
  return plan_measurement(spec, rig.inputs, rng);
}

TEST(CampaignFaults, ZeroFaultPlanIsBitIdenticalToFaultFree) {
  const Rig rig = make_rig(128);
  Rng rng(1);
  const auto plan = plan16(rig, rng);
  const auto clean =
      run_campaign(*rig.cluster, *rig.electrical, plan, fast_config());
  CampaignConfig with_default_plan = fast_config();
  with_default_plan.faults = FaultPlan{};  // explicitly disabled
  const auto again =
      run_campaign(*rig.cluster, *rig.electrical, plan, with_default_plan);
  EXPECT_EQ(clean.submitted_power.value(), again.submitted_power.value());
  EXPECT_EQ(clean.submitted_energy.value(), again.submitted_energy.value());
  EXPECT_EQ(clean.relative_halfwidth, again.relative_halfwidth);
  ASSERT_EQ(clean.node_mean_powers_w.size(), again.node_mean_powers_w.size());
  for (std::size_t i = 0; i < clean.node_mean_powers_w.size(); ++i) {
    EXPECT_EQ(clean.node_mean_powers_w[i], again.node_mean_powers_w[i]);
  }
  EXPECT_FALSE(again.data_quality.faults_enabled);
  EXPECT_FALSE(again.data_quality.degraded());
}

TEST(CampaignFaults, AcceptanceTenPercentDropoutTwoDeadOfSixteen) {
  const Rig rig = make_rig(160);  // 10% rule -> 16 metered nodes
  Rng rng(2);
  const auto plan = plan16(rig, rng);
  ASSERT_EQ(plan.node_count(), 16u);

  const auto clean =
      run_campaign(*rig.cluster, *rig.electrical, plan, fast_config());

  CampaignConfig cfg = fast_config();
  cfg.faults.spec.dropout_prob = 0.10;
  cfg.faults.dead_meters = {plan.node_indices[0], plan.node_indices[1]};
  const auto degraded =
      run_campaign(*rig.cluster, *rig.electrical, plan, cfg);

  // The campaign completed and reported what it lost.
  const DataQuality& q = degraded.data_quality;
  EXPECT_TRUE(q.faults_enabled);
  EXPECT_TRUE(q.degraded());
  EXPECT_EQ(q.meters_planned, 16u);
  EXPECT_EQ(q.meters_lost, 2u);
  EXPECT_EQ(degraded.nodes_measured, 14u);
  EXPECT_TRUE(q.ci_widened);
  EXPECT_GT(q.samples_lost, 0u);
  EXPECT_GT(q.samples_repaired, 0u);
  EXPECT_NEAR(q.sample_coverage, 0.9 * 14.0 / 16.0, 0.05);
  EXPECT_NEAR(q.achieved_node_fraction, 14.0 / 160.0, 1e-9);
  EXPECT_NEAR(q.planned_node_fraction, 16.0 / 160.0, 1e-9);

  // The submitted number survived: within 2% of the fault-free run.
  const double shift =
      std::abs(degraded.submitted_power.value() -
               clean.submitted_power.value()) /
      clean.submitted_power.value();
  EXPECT_LT(shift, 0.02);
}

TEST(CampaignFaults, SpikesAreFilteredNotAbsorbed) {
  const Rig rig = make_rig(160);
  Rng rng(3);
  const auto plan = plan16(rig, rng);
  const auto clean =
      run_campaign(*rig.cluster, *rig.electrical, plan, fast_config());

  CampaignConfig cfg = fast_config();
  cfg.faults.spec.spike_prob = 0.01;
  cfg.faults.spec.spike_max_gain = 8.0;
  const auto r = run_campaign(*rig.cluster, *rig.electrical, plan, cfg);
  EXPECT_GT(r.data_quality.spikes_filtered, 0u);
  // Unfiltered, 1% spikes at ~4.75x mean gain would inflate the mean by
  // ~3-4%; the Hampel filter must hold the shift to a fraction of that.
  const double shift = std::abs(r.submitted_power.value() -
                                clean.submitted_power.value()) /
                       clean.submitted_power.value();
  EXPECT_LT(shift, 0.01);
}

TEST(CampaignFaults, StuckSensorsAreDetected) {
  const Rig rig = make_rig(160);
  Rng rng(4);
  const auto plan = plan16(rig, rng);
  CampaignConfig cfg = fast_config();
  cfg.faults.spec.stuck_prob = 1.0;  // every meter freezes once
  cfg.faults.spec.stuck_mean_s = 300.0;
  const auto r = run_campaign(*rig.cluster, *rig.electrical, plan, cfg);
  EXPECT_GT(r.data_quality.stuck_flagged, 0u);
  EXPECT_GT(r.data_quality.samples_lost, 0u);  // flagged == lost
}

TEST(CampaignFaults, AllMetersDeadThrowsCleanly) {
  const Rig rig = make_rig(64);
  Rng rng(5);
  const auto plan = plan16(rig, rng);
  CampaignConfig cfg = fast_config();
  cfg.faults.dead_meters = plan.node_indices;  // kill everything
  EXPECT_THROW(run_campaign(*rig.cluster, *rig.electrical, plan, cfg),
               std::runtime_error);
}

TEST(CampaignFaults, DegradedMeterBelowCoverageFloorIsExcluded) {
  const Rig rig = make_rig(160);
  Rng rng(6);
  const auto plan = plan16(rig, rng);
  CampaignConfig cfg = fast_config();
  // Kill meters at a certain point: death_prob 1 means every meter dies
  // at a uniform time; about half land below the 50% coverage floor.
  cfg.faults.spec.death_prob = 1.0;
  const auto r = run_campaign(*rig.cluster, *rig.electrical, plan, cfg);
  EXPECT_GT(r.data_quality.meters_lost, 0u);
  EXPECT_LT(r.data_quality.meters_lost, 16u);
  EXPECT_EQ(r.data_quality.lost_meter_ids.size(),
            r.data_quality.meters_lost);
  EXPECT_EQ(r.nodes_measured, 16u - r.data_quality.meters_lost);
}

TEST(CampaignFaults, FaultedCampaignIsDeterministic) {
  const Rig rig = make_rig(96);
  Rng rng(7);
  const auto plan = plan16(rig, rng);
  CampaignConfig cfg = fast_config();
  cfg.faults.spec = FaultSpec::harsh();
  cfg.seed = 77;
  const auto a = run_campaign(*rig.cluster, *rig.electrical, plan, cfg);
  const auto b = run_campaign(*rig.cluster, *rig.electrical, plan, cfg);
  EXPECT_EQ(a.submitted_power.value(), b.submitted_power.value());
  EXPECT_EQ(a.data_quality.samples_lost, b.data_quality.samples_lost);
  EXPECT_EQ(a.data_quality.meters_lost, b.data_quality.meters_lost);
}

TEST(CampaignFaults, RackPathLosesWholeRack) {
  const Rig rig = make_rig(128);
  const auto spec = MethodologySpec::get(Level::kL1, Revision::kV2015);
  Rng rng(8);
  auto plan = plan_measurement(spec, rig.inputs, rng);
  plan.point = MeasurementPoint::kRackPdu;
  const auto clean =
      run_campaign(*rig.cluster, *rig.electrical, plan, fast_config());
  ASSERT_GT(clean.nodes_measured, 0u);

  // Find a rack the plan actually metered and kill its PDU channel.
  const std::size_t rack =
      plan.node_indices.front() / rig.electrical->nodes_per_rack();
  CampaignConfig cfg = fast_config();
  cfg.faults.dead_meters = {rack};
  const auto r = run_campaign(*rig.cluster, *rig.electrical, plan, cfg);
  EXPECT_EQ(r.data_quality.meters_lost, 1u);
  EXPECT_LT(r.nodes_measured, clean.nodes_measured);
  // Extrapolation re-based: the submission is still in range.
  const double shift = std::abs(r.submitted_power.value() -
                                clean.submitted_power.value()) /
                       clean.submitted_power.value();
  EXPECT_LT(shift, 0.05);
}

TEST(CampaignFaults, FacilityFeedRepairsButCannotLoseItsOnlyMeter) {
  const Rig rig = make_rig(64);
  const auto spec = MethodologySpec::get(Level::kL3, Revision::kV2015);
  Rng rng(9);
  auto plan = plan_measurement(spec, rig.inputs, rng);
  plan.point = MeasurementPoint::kFacilityFeed;
  const auto clean =
      run_campaign(*rig.cluster, *rig.electrical, plan, fast_config());

  CampaignConfig cfg = fast_config();
  cfg.faults.spec.dropout_prob = 0.15;
  const auto r = run_campaign(*rig.cluster, *rig.electrical, plan, cfg);
  EXPECT_EQ(r.data_quality.meters_planned, 1u);
  EXPECT_GT(r.data_quality.samples_lost, 0u);
  const double shift = std::abs(r.submitted_power.value() -
                                clean.submitted_power.value()) /
                       clean.submitted_power.value();
  EXPECT_LT(shift, 0.02);

  // A dead facility meter has no fallback: the campaign must refuse.
  CampaignConfig dead = fast_config();
  dead.faults.dead_meters = {9'999'999};
  EXPECT_THROW(run_campaign(*rig.cluster, *rig.electrical, plan, dead),
               std::runtime_error);
}

// Rack-PDU and facility-feed taps pinned bit for bit: the FNV-1a digest of
// the rendered assessment JSON, identical on both engines and at any
// thread count.  The tolerance checks above would let a last-bit drift in
// the shared clean/faulted/finish arithmetic pass silently.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

// Returns the last run so callers can check the case degraded as meant.
CampaignResult expect_tap_digest(const Rig& rig, const MeasurementPlan& plan,
                                 CampaignConfig cfg, std::uint64_t expected,
                                 const std::string& what) {
  CampaignResult r;
  for (const CampaignEngine engine :
       {CampaignEngine::kEager, CampaignEngine::kStreaming}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      cfg.engine = engine;
      cfg.threads = threads;
      r = run_campaign(*rig.cluster, *rig.electrical, plan, cfg);
      EXPECT_EQ(fnv1a(render_json(assessment_document(plan, r))), expected)
          << what
          << (engine == CampaignEngine::kEager ? ", eager" : ", streaming")
          << ", threads=" << threads;
    }
  }
  return r;
}

MeasurementPlan tap_plan(const Rig& rig, Level level, MeasurementPoint point,
                         std::uint64_t seed) {
  Rng rng(seed);
  auto plan = plan_measurement(MethodologySpec::get(level, Revision::kV2015),
                               rig.inputs, rng);
  plan.point = point;
  return plan;
}

TEST(CampaignFaults, RackTapDigestsArePinned) {
  const Rig rig = make_rig(128);
  const auto plan = tap_plan(rig, Level::kL1, MeasurementPoint::kRackPdu, 8);
  expect_tap_digest(rig, plan, fast_config(), 0xdd651b631fc3f091ULL,
                    "rack clean");

  CampaignConfig harsh = fast_config();
  harsh.faults.spec = FaultSpec::harsh();
  harsh.seed = 21;
  EXPECT_GT(expect_tap_digest(rig, plan, harsh, 0xe4cb601fab6799f1ULL,
                              "rack harsh")
                .data_quality.samples_repaired,
            0u);

  CampaignConfig dead = fast_config();
  dead.faults.dead_meters = {plan.node_indices.front() /
                             rig.electrical->nodes_per_rack()};
  EXPECT_EQ(expect_tap_digest(rig, plan, dead, 0x08af9a4c55969026ULL,
                              "rack dead")
                .data_quality.meters_lost,
            1u);
}

TEST(CampaignFaults, FacilityTapDigestsArePinned) {
  const Rig rig = make_rig(64);
  const auto plan =
      tap_plan(rig, Level::kL3, MeasurementPoint::kFacilityFeed, 9);
  expect_tap_digest(rig, plan, fast_config(), 0x576c95d59655ca66ULL,
                    "facility clean");

  CampaignConfig dropout = fast_config();
  dropout.faults.spec.dropout_prob = 0.15;
  EXPECT_GT(expect_tap_digest(rig, plan, dropout, 0xce370c4502787de2ULL,
                              "facility dropout")
                .data_quality.samples_repaired,
            0u);
}

TEST(CampaignFaults, ReportRendersDataQualityBlock) {
  const Rig rig = make_rig(160);
  Rng rng(10);
  const auto plan = plan16(rig, rng);
  CampaignConfig cfg = fast_config();
  cfg.faults.spec.dropout_prob = 0.10;
  cfg.faults.dead_meters = {plan.node_indices[0]};
  const auto r = run_campaign(*rig.cluster, *rig.electrical, plan, cfg);
  const std::string report = accuracy_report(plan, r);
  EXPECT_NE(report.find("data quality"), std::string::npos);
  EXPECT_NE(report.find("meters lost:"), std::string::npos);
  EXPECT_NE(report.find("sample coverage:"), std::string::npos);
  EXPECT_NE(report.find("widened"), std::string::npos);
  // The clean run stays silent about data quality.
  const auto clean =
      run_campaign(*rig.cluster, *rig.electrical, plan, fast_config());
  EXPECT_EQ(accuracy_report(plan, clean).find("data quality"),
            std::string::npos);
}

}  // namespace
}  // namespace pv
