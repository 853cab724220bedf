// Differential harness for the bounded-memory (live) assessment path.
//
// The headline contract: a campaign run through the live window-major
// meter stage must produce a final assessment Document *byte-identical*
// to the batch stage's — memcmp on every reported double and verdict,
// and string equality on the rendered JSON — across seeds x L1/L2/L3 x
// thread counts x {clean, clean + reconcile, harsh faults + dead +
// byzantine + reconcile}, on both the streaming and the eager engine,
// with chunk sizes small enough to force many chunks per window.  Partial documents must parse
// as valid powervar-assessment-v1 lines, follow the pinned virtual-time
// emission schedule, and be byte-identical across thread counts and
// reruns.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/plan.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"

namespace pv {
namespace {

struct Rig {
  std::unique_ptr<ClusterPowerModel> cluster;
  std::unique_ptr<SystemPowerModel> electrical;
  MeasurementPlan plan;
};

Rig make_rig(std::size_t nodes, Level level, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "live-rig";
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
  // The cohort statistics and hierarchy residuals read every meter's
  // analysis-window series, which a clean document never renders.
  for (std::size_t i = 0; i < qa.integrity.diagnoses.size(); ++i) {
    const MeterDiagnosis& da = qa.integrity.diagnoses[i];
    const MeterDiagnosis& db = qb.integrity.diagnoses[i];
    EXPECT_EQ(da.meter_id, db.meter_id);
    EXPECT_EQ(static_cast<int>(da.verdict), static_cast<int>(db.verdict));
    EXPECT_TRUE(bits_equal(da.gain_estimate, db.gain_estimate));
    EXPECT_TRUE(bits_equal(da.robust_z, db.robust_z));
    EXPECT_TRUE(bits_equal(da.cusum_max, db.cusum_max));
    EXPECT_TRUE(bits_equal(da.drift_per_window, db.drift_per_window));
  }
  ASSERT_EQ(qa.integrity.residuals.size(), qb.integrity.residuals.size());
  for (std::size_t i = 0; i < qa.integrity.residuals.size(); ++i) {
    EXPECT_TRUE(bits_equal(qa.integrity.residuals[i].worst_before,
                           qb.integrity.residuals[i].worst_before));
    EXPECT_TRUE(bits_equal(qa.integrity.residuals[i].worst_after,
                           qb.integrity.residuals[i].worst_after));
  }
  // The whole rendered document, byte for byte.
  EXPECT_EQ(render_json(assessment_document(plan, a)),
            render_json(assessment_document(plan, b)));
}

CampaignConfig base_config(std::uint64_t seed, std::size_t threads = 1) {
  CampaignConfig cfg;
  cfg.seed = seed;
  cfg.threads = threads;
  cfg.meter_interval_override = Seconds{5.0};
  return cfg;
}

CampaignConfig live_config(std::uint64_t seed, std::size_t threads,
                           std::size_t chunk_samples,
                           std::vector<std::string>* partials = nullptr,
                           double emit_every_s = 0.0) {
  CampaignConfig cfg = base_config(seed, threads);
  cfg.live.enabled = true;
  cfg.live.chunk_samples = chunk_samples;
  cfg.live.emit_every_s = emit_every_s;
  if (partials != nullptr) {
    cfg.live_sink = [partials](const std::string& line) {
      partials->push_back(line);
    };
  }
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

class StreamingAssessment
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Level>> {};

double meter_counter(const CampaignResult& r, const std::string& name) {
  for (const StageTrace& t : r.stage_traces) {
    if (t.stage != "meter") continue;
    for (const auto& [k, v] : t.counters) {
      if (k == name) return v;
    }
  }
  return -1.0;
}

TEST_P(StreamingAssessment, CleanLiveFinalByteIdenticalToBatch) {
  const auto [seed, level] = GetParam();
  const Rig rig = make_rig(96, level, seed);
  // Reconciling runs stream every chunk through the fused level kernel
  // too, mapping reconcile buckets per chunk on the window-global sample
  // index.
  for (const bool reconcile : {false, true}) {
    CampaignConfig batch_cfg = base_config(seed);
    batch_cfg.reconcile.enabled = reconcile;
    const auto batch =
        run_campaign(*rig.cluster, *rig.electrical, rig.plan, batch_cfg);
    // Chunk sizes deliberately small and non-round so every window spans
    // many chunks and the last chunk is ragged (7 splits even L2's short
    // spot windows); partials are emitted at every window close.
    for (const std::size_t chunk :
         {std::size_t{7}, std::size_t{37}, std::size_t{64}}) {
      for (const std::size_t threads :
           {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
        std::vector<std::string> partials;
        CampaignConfig cfg = live_config(seed, threads, chunk, &partials);
        cfg.reconcile.enabled = reconcile;
        const auto live =
            run_campaign(*rig.cluster, *rig.electrical, rig.plan, cfg);
        EXPECT_FALSE(partials.empty());
        EXPECT_EQ(meter_counter(live, "fleet_fused"), 1.0);
        EXPECT_EQ(live.data_quality.reconcile_ran, reconcile);
        expect_identical(rig.plan, batch, live,
                         std::string(reconcile ? "reconciling" : "clean") +
                             ", chunk=" + std::to_string(chunk) +
                             ", threads=" + std::to_string(threads));
      }
    }
  }
}

TEST_P(StreamingAssessment, FaultedByzantineReconciledLiveMatchesBatch) {
  const auto [seed, level] = GetParam();
  const Rig rig = make_rig(96, level, seed);
  const auto batch =
      run_campaign(*rig.cluster, *rig.electrical, rig.plan,
                   with_harsh_faults(base_config(seed), rig.plan));
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const auto live = run_campaign(
        *rig.cluster, *rig.electrical, rig.plan,
        with_harsh_faults(live_config(seed, threads, 37), rig.plan));
    expect_identical(rig.plan, batch, live,
                     "faulted, threads=" + std::to_string(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndLevels, StreamingAssessment,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(Level::kL1, Level::kL2, Level::kL3)),
    [](const ::testing::TestParamInfo<StreamingAssessment::ParamType>& p) {
      return "seed" + std::to_string(std::get<0>(p.param)) + "_L" +
             std::to_string(static_cast<int>(std::get<1>(p.param)));
    });

TEST(StreamingAssessment, EagerEngineLiveMatchesEagerBatch) {
  // The live stage's whole-window driver must also reproduce the eager
  // engine (models the streaming probe rejects fall back to it).
  const Rig rig = make_rig(64, Level::kL2, 11);
  CampaignConfig batch_cfg = base_config(11);
  batch_cfg.engine = CampaignEngine::kEager;
  const auto batch =
      run_campaign(*rig.cluster, *rig.electrical, rig.plan, batch_cfg);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    CampaignConfig cfg = live_config(11, threads, 37);
    cfg.engine = CampaignEngine::kEager;
    const auto live =
        run_campaign(*rig.cluster, *rig.electrical, rig.plan, cfg);
    expect_identical(rig.plan, batch, live,
                     "eager, threads=" + std::to_string(threads));
  }
}

TEST(StreamingAssessment, PartialsParseAndFollowThePinnedSchedule) {
  const Rig rig = make_rig(48, Level::kL2, 7);
  // Timed schedule: one partial every 300 virtual seconds.
  std::vector<std::string> partials;
  const auto result =
      run_campaign(*rig.cluster, *rig.electrical, rig.plan,
                   live_config(7, 1, 37, &partials, /*emit_every_s=*/300.0));
  ASSERT_FALSE(partials.empty());
  for (std::size_t i = 0; i < partials.size(); ++i) {
    SCOPED_TRACE("partial " + std::to_string(i));
    const Json doc = parse_assessment_line(partials[i]);
    const Json* live = doc.find("live");
    ASSERT_NE(live, nullptr);
    EXPECT_EQ(static_cast<std::size_t>(live->find("seq")->number_value()), i);
    // Ring capacity is respected in the emitted document.
    EXPECT_LE(live->find("recent_windows")->size(),
              static_cast<std::size_t>(
                  live->find("window_capacity")->number_value()));
  }
  // The final document carries no live block: it parses as a plain
  // assessment line.
  const std::string final_line =
      render_json(assessment_document(rig.plan, result));
  EXPECT_EQ(parse_assessment_line(final_line).find("live"), nullptr);

  // The schedule is pinned in virtual time: reruns and different thread
  // counts produce the byte-identical partial transcript.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    std::vector<std::string> again;
    (void)run_campaign(*rig.cluster, *rig.electrical, rig.plan,
                       live_config(7, threads, 37, &again, 300.0));
    EXPECT_EQ(partials, again) << "threads=" << threads;
  }
  // A different chunking must not move the numbers, only (possibly) the
  // emission points; with the same schedule the transcript is identical.
  std::vector<std::string> other_chunk;
  (void)run_campaign(*rig.cluster, *rig.electrical, rig.plan,
                     live_config(7, 1, 64, &other_chunk, 300.0));
  ASSERT_EQ(partials.size(), other_chunk.size());
}

TEST(StreamingAssessment, WindowCloseScheduleEmitsOncePerWindow) {
  const Rig rig = make_rig(48, Level::kL2, 13);
  std::vector<std::string> partials;
  const auto result = run_campaign(*rig.cluster, *rig.electrical, rig.plan,
                                   live_config(13, 1, 4096, &partials));
  // emit_every_s == 0: one partial per closed window, counted by the
  // meter stage's own trace.
  double windows = 0.0;
  double emitted = -1.0;
  for (const StageTrace& t : result.stage_traces) {
    if (t.stage != "meter") continue;
    for (const auto& [k, v] : t.counters) {
      if (k == "windows_stored") windows = v;
      if (k == "partials_emitted") emitted = v;
    }
  }
  EXPECT_EQ(static_cast<double>(partials.size()), emitted);
  EXPECT_GT(windows, 0.0);
  for (const std::string& line : partials) {
    EXPECT_NO_THROW((void)parse_assessment_line(line));
  }
}

TEST(StreamingAssessment, NullSinkStillRunsAndMatchesBatch) {
  // live enabled with no sink: the bounded-memory engine runs, emits
  // nothing, and the final result is still byte-identical.
  const Rig rig = make_rig(48, Level::kL1, 5);
  const auto batch = run_campaign(*rig.cluster, *rig.electrical, rig.plan,
                                  base_config(5));
  const auto live = run_campaign(*rig.cluster, *rig.electrical, rig.plan,
                                 live_config(5, 2, 37, nullptr, 300.0));
  expect_identical(rig.plan, batch, live, "null sink");
}

}  // namespace
}  // namespace pv
