// Tests for the asynchronous collection pipeline: transport faults,
// retry/backoff, circuit breakers, the bounded queue, and crash-safe
// checkpoint/resume.  The load-bearing property throughout: the collected
// result is a pure function of (plan, config) — thread count, scheduling
// and crashes cannot change a bit of it.

#include "collect/collector.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "collect/queue.hpp"
#include "core/doc.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "sim/fleet.hpp"
#include "sim/streaming.hpp"
#include "util/expects.hpp"
#include "workload/profiles.hpp"

namespace pv {
namespace {

struct Rig {
  std::unique_ptr<ClusterPowerModel> cluster;
  std::unique_ptr<SystemPowerModel> electrical;
  MeasurementPlan plan;
};

Rig make_rig(std::size_t n_nodes, std::uint64_t seed = 3) {
  ScenarioSpec spec;
  spec.name = "collect-rig";
  spec.nodes = n_nodes;
  spec.fleet_seed = 99;
  Scenario built = build_scenario(spec);
  Rig rig;
  rig.cluster = std::move(built.cluster);
  rig.electrical = std::move(built.electrical);
  rig.plan = built.plan(MethodologySpec::get(Level::kL1, Revision::kV2015),
                        seed);
  return rig;
}

CollectorConfig fast_config() {
  CollectorConfig c;
  c.campaign.meter_interval_override = Seconds{10.0};
  c.threads = 4;
  // Generous deadline: with the default latency model, a healthy meter
  // essentially never times out, so fault-free runs have clean tallies.
  c.poller.timeout_s = 5.0;
  return c;
}

std::string temp_journal(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// A stable serialization of everything the user would see, for
// byte-identity comparisons between runs.
std::string result_signature(const MeasurementPlan& plan,
                             const CampaignResult& r) {
  return accuracy_report(plan, r);
}

TEST(Collector, FaultFreeCollectionTracksGroundTruth) {
  const Rig rig = make_rig(160);
  const CollectionOutcome out = collect_campaign(
      *rig.cluster, *rig.electrical, rig.plan, fast_config());
  EXPECT_EQ(out.meters_polled, rig.plan.node_count());
  EXPECT_EQ(out.meters_resumed, 0u);
  const CampaignResult& r = out.result;
  EXPECT_EQ(r.nodes_measured, rig.plan.node_count());
  EXPECT_LT(r.relative_error, 0.05);  // same structural L1 bias as sync path
  const DataQuality& dq = r.data_quality;
  EXPECT_TRUE(dq.collection.used);
  EXPECT_EQ(dq.meters_lost, 0u);
  EXPECT_EQ(dq.samples_lost, 0u);
  EXPECT_EQ(dq.collection.polls_timed_out, 0u);
  EXPECT_EQ(dq.collection.breaker_trips, 0u);
  EXPECT_GT(dq.collection.polls_attempted, 0u);
  EXPECT_GT(dq.collection.busy_total_s, 0.0);
  EXPECT_GE(dq.collection.busy_total_s, dq.collection.busy_max_meter_s);
  EXPECT_GE(dq.collection.makespan_s, dq.collection.busy_max_meter_s);
  EXPECT_LE(dq.collection.makespan_s, dq.collection.busy_total_s);
}

TEST(Collector, ResultIsIndependentOfThreadCount) {
  const Rig rig = make_rig(160);
  CollectorConfig one = fast_config();
  one.threads = 1;
  CollectorConfig eight = fast_config();
  eight.threads = 8;
  const auto a =
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, one);
  const auto b =
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, eight);
  EXPECT_EQ(a.result.submitted_power.value(),
            b.result.submitted_power.value());
  EXPECT_EQ(a.result.submitted_energy.value(),
            b.result.submitted_energy.value());
  ASSERT_EQ(a.result.node_mean_powers_w.size(),
            b.result.node_mean_powers_w.size());
  for (std::size_t i = 0; i < a.result.node_mean_powers_w.size(); ++i) {
    EXPECT_EQ(a.result.node_mean_powers_w[i],
              b.result.node_mean_powers_w[i]);
  }
}

TEST(Collector, FlakyTransportIsDeterministicAndRecovers) {
  const Rig rig = make_rig(160);
  CollectorConfig config = fast_config();
  config.transport.drop_prob = 0.2;
  config.transport.duplicate_prob = 0.05;
  config.poller.max_attempts = 4;
  const auto a =
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, config);
  const auto b =
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, config);
  EXPECT_EQ(result_signature(rig.plan, a.result),
            result_signature(rig.plan, b.result));
  // 20% drop with 4 attempts: effectively everything arrives eventually.
  const DataQuality& dq = a.result.data_quality;
  EXPECT_GT(dq.collection.polls_retried, 0u);
  EXPECT_GT(dq.collection.polls_timed_out, 0u);
  EXPECT_EQ(dq.meters_lost, 0u);
  EXPECT_LT(a.result.relative_error, 0.05);
}

TEST(Collector, BlackholeMetersAreAbandonedAndDisclosed) {
  const Rig rig = make_rig(160);
  CollectorConfig config = fast_config();
  config.campaign.faults.dead_meters = {rig.plan.node_indices[0],
                                        rig.plan.node_indices[3]};
  const auto out =
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, config);
  const DataQuality& dq = out.result.data_quality;
  EXPECT_EQ(dq.meters_lost, 2u);
  EXPECT_EQ(dq.collection.meters_abandoned, 2u);
  EXPECT_GT(dq.collection.breaker_trips, 0u);
  ASSERT_EQ(dq.lost_meter_ids.size(), 2u);
  EXPECT_EQ(dq.lost_meter_ids[0], rig.plan.node_indices[0]);
  EXPECT_EQ(dq.lost_meter_ids[1], rig.plan.node_indices[3]);
  EXPECT_EQ(out.result.nodes_measured, rig.plan.node_count() - 2);
  // The degradation path re-based the extrapolation: still near truth.
  EXPECT_LT(out.result.relative_error, 0.06);
  // And the report discloses the collection path.
  const std::string report = data_quality_report(dq);
  EXPECT_NE(report.find("collection path"), std::string::npos);
  EXPECT_NE(report.find("abandoned"), std::string::npos);
}

TEST(Collector, BreakerBoundsTheBusyTimeOfDeadMeters) {
  const Rig rig = make_rig(160);
  CollectorConfig with_breaker = fast_config();
  with_breaker.transport.blackhole_meters = {rig.plan.node_indices[1],
                                             rig.plan.node_indices[5],
                                             rig.plan.node_indices[9]};
  CollectorConfig without = with_breaker;
  without.poller.breaker.enabled = false;
  const auto guarded = collect_campaign(*rig.cluster, *rig.electrical,
                                        rig.plan, with_breaker);
  const auto unguarded =
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, without);
  // Same meters lost either way, but the breaker pays far fewer timeouts.
  EXPECT_EQ(guarded.result.data_quality.meters_lost,
            unguarded.result.data_quality.meters_lost);
  EXPECT_LT(guarded.result.data_quality.collection.polls_timed_out,
            unguarded.result.data_quality.collection.polls_timed_out);
  EXPECT_LT(guarded.result.data_quality.collection.busy_max_meter_s,
            unguarded.result.data_quality.collection.busy_max_meter_s);
}

TEST(Collector, KillAndResumeIsByteIdenticalToUninterrupted) {
  const Rig rig = make_rig(160);
  CollectorConfig config = fast_config();
  config.transport.drop_prob = 0.1;
  config.transport.blackhole_fraction = 0.1;

  CollectorConfig clean = config;
  clean.journal_path = temp_journal("collector_clean.wal");
  const auto uninterrupted =
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, clean);

  CollectorConfig crashing = config;
  crashing.journal_path = temp_journal("collector_crash.wal");
  crashing.crash_after_meters = 5;
  EXPECT_THROW(
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, crashing),
      CollectionAborted);

  CollectorConfig resuming = config;
  resuming.journal_path = crashing.journal_path;
  resuming.resume = true;
  const auto resumed =
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, resuming);
  EXPECT_EQ(resumed.meters_resumed, 5u);
  EXPECT_EQ(resumed.meters_polled, rig.plan.node_count() - 5);
  EXPECT_EQ(resumed.journal_torn_lines, 0u);

  // The headline contract: not close — byte-identical.
  EXPECT_EQ(result_signature(rig.plan, uninterrupted.result),
            result_signature(rig.plan, resumed.result));
  EXPECT_EQ(uninterrupted.result.submitted_power.value(),
            resumed.result.submitted_power.value());
  EXPECT_EQ(uninterrupted.result.submitted_energy.value(),
            resumed.result.submitted_energy.value());
  EXPECT_EQ(uninterrupted.result.data_quality.collection.busy_total_s,
            resumed.result.data_quality.collection.busy_total_s);
}

TEST(Collector, ResumingACompleteJournalRepollsNothing) {
  const Rig rig = make_rig(160);
  CollectorConfig config = fast_config();
  config.journal_path = temp_journal("collector_complete.wal");
  const auto first =
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, config);
  config.resume = true;
  const auto second =
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, config);
  EXPECT_EQ(second.meters_polled, 0u);
  EXPECT_EQ(second.meters_resumed, rig.plan.node_count());
  EXPECT_EQ(result_signature(rig.plan, first.result),
            result_signature(rig.plan, second.result));
}

TEST(Collector, ResumeRejectsAForeignJournal) {
  const Rig rig = make_rig(160);
  CollectorConfig config = fast_config();
  config.journal_path = temp_journal("collector_foreign.wal");
  (void)collect_campaign(*rig.cluster, *rig.electrical, rig.plan, config);
  config.resume = true;
  config.campaign.seed += 1;  // a different campaign identity
  EXPECT_THROW(
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, config),
      std::runtime_error);
}

TEST(Collector, FingerprintSeparatesCampaigns) {
  const Rig rig = make_rig(160);
  const CollectorConfig base = fast_config();
  CollectorConfig other = base;
  other.campaign.seed = 999;
  EXPECT_NE(collection_fingerprint(rig.plan, base),
            collection_fingerprint(rig.plan, other));
  other = base;
  other.transport.drop_prob = 0.5;
  EXPECT_NE(collection_fingerprint(rig.plan, base),
            collection_fingerprint(rig.plan, other));
  other = base;
  other.poller.timeout_s = 9.0;
  EXPECT_NE(collection_fingerprint(rig.plan, base),
            collection_fingerprint(rig.plan, other));
  // Journal bookkeeping knobs do NOT change the campaign identity.
  other = base;
  other.crash_after_meters = 3;
  other.journal_path = "somewhere.wal";
  EXPECT_EQ(collection_fingerprint(rig.plan, base),
            collection_fingerprint(rig.plan, other));
}

TEST(Collector, EveryMeterDeadThrows) {
  const Rig rig = make_rig(160);
  CollectorConfig config = fast_config();
  config.transport.blackhole_fraction = 1.0;
  EXPECT_THROW(
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, config),
      std::runtime_error);
}

TEST(Collector, RejectsDataFaultInjectionAndNonNodePlans) {
  const Rig rig = make_rig(160);
  CollectorConfig config = fast_config();
  config.campaign.faults.spec = FaultSpec::mild();
  EXPECT_THROW(
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, config),
      contract_error);
  MeasurementPlan facility = rig.plan;
  facility.point = MeasurementPoint::kFacilityFeed;
  EXPECT_THROW(collect_campaign(*rig.cluster, *rig.electrical, facility,
                                fast_config()),
               contract_error);
  config = fast_config();
  config.resume = true;  // resume without a journal path
  EXPECT_THROW(
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, config),
      contract_error);
}

// --- streaming vs eager collection -----------------------------------------
//
// The streaming engine is a pure optimization of the collector: poll
// replies from the shared per-chunk shape tables and the memoized ground
// truth must reproduce the eager truth-chain path bit for bit.  memcmp on
// the doubles, not EXPECT_DOUBLE_EQ: "close" is a regression here.

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

double stage_counter(const CampaignResult& r, const std::string& stage,
                     const std::string& counter) {
  for (const StageTrace& t : r.stage_traces) {
    if (t.stage != stage) continue;
    for (const auto& [name, value] : t.counters) {
      if (name == counter) return value;
    }
  }
  ADD_FAILURE() << "no counter " << stage << "." << counter;
  return -1.0;
}

// Every reported double (bit pattern), every verdict and tally, and the
// rendered JSON document.
void expect_identical_outcomes(const MeasurementPlan& plan,
                               const CollectionOutcome& a,
                               const CollectionOutcome& b,
                               const std::string& what) {
  SCOPED_TRACE(what);
  const CampaignResult& ra = a.result;
  const CampaignResult& rb = b.result;
  EXPECT_TRUE(bits_equal(ra.submitted_power.value(),
                         rb.submitted_power.value()));
  EXPECT_TRUE(bits_equal(ra.submitted_energy.value(),
                         rb.submitted_energy.value()));
  EXPECT_EQ(ra.nodes_measured, rb.nodes_measured);
  ASSERT_EQ(ra.node_mean_powers_w.size(), rb.node_mean_powers_w.size());
  for (std::size_t i = 0; i < ra.node_mean_powers_w.size(); ++i) {
    EXPECT_TRUE(bits_equal(ra.node_mean_powers_w[i], rb.node_mean_powers_w[i]))
        << "node mean " << i;
  }
  EXPECT_TRUE(bits_equal(ra.node_mean_ci.lo, rb.node_mean_ci.lo));
  EXPECT_TRUE(bits_equal(ra.node_mean_ci.hi, rb.node_mean_ci.hi));
  EXPECT_TRUE(bits_equal(ra.relative_halfwidth, rb.relative_halfwidth));
  EXPECT_TRUE(bits_equal(ra.true_power.value(), rb.true_power.value()));
  EXPECT_TRUE(bits_equal(ra.relative_error, rb.relative_error));

  const DataQuality& qa = ra.data_quality;
  const DataQuality& qb = rb.data_quality;
  EXPECT_EQ(qa.meters_lost, qb.meters_lost);
  EXPECT_EQ(qa.lost_meter_ids, qb.lost_meter_ids);
  EXPECT_EQ(qa.samples_expected, qb.samples_expected);
  EXPECT_EQ(qa.samples_lost, qb.samples_lost);
  EXPECT_TRUE(bits_equal(qa.sample_coverage, qb.sample_coverage));
  EXPECT_EQ(qa.ci_widened, qb.ci_widened);
  const CollectionQuality& ca = qa.collection;
  const CollectionQuality& cb = qb.collection;
  EXPECT_EQ(ca.polls_attempted, cb.polls_attempted);
  EXPECT_EQ(ca.polls_timed_out, cb.polls_timed_out);
  EXPECT_EQ(ca.polls_retried, cb.polls_retried);
  EXPECT_EQ(ca.duplicates_discarded, cb.duplicates_discarded);
  EXPECT_EQ(ca.breaker_trips, cb.breaker_trips);
  EXPECT_EQ(ca.meters_abandoned, cb.meters_abandoned);
  EXPECT_TRUE(bits_equal(ca.busy_total_s, cb.busy_total_s));
  EXPECT_TRUE(bits_equal(ca.busy_max_meter_s, cb.busy_max_meter_s));
  EXPECT_TRUE(bits_equal(ca.makespan_s, cb.makespan_s));

  EXPECT_EQ(render_json(assessment_document(plan, ra)),
            render_json(assessment_document(plan, rb)));
}

CollectorConfig engine_config(CollectorConfig c, CampaignEngine engine) {
  c.campaign.engine = engine;
  return c;
}

// Runs `plan` under both engines and compares the outcomes.
void expect_engines_agree(const Scenario& built, const MeasurementPlan& plan,
                          const CollectorConfig& config,
                          const std::string& what) {
  const CollectionOutcome eager =
      collect_campaign(*built.cluster, *built.electrical, plan,
                       engine_config(config, CampaignEngine::kEager));
  const CollectionOutcome streaming =
      collect_campaign(*built.cluster, *built.electrical, plan,
                       engine_config(config, CampaignEngine::kStreaming));
  expect_identical_outcomes(plan, eager, streaming, what);
  EXPECT_EQ(stage_counter(eager.result, "meter", "engine_streaming"), 0.0)
      << what;
  EXPECT_EQ(stage_counter(streaming.result, "meter", "engine_streaming"), 1.0)
      << what;
}

// Seeds × L1/L2/L3 × node-AC/node-DC tap × sampled/integrated meters ×
// 1/4 pollers, each on the planned window and on a ramp window.  The ramp
// window crosses the set-up -> core step (the shape changes, so the chunk
// tables differ from one another) from a fractional origin at a 1.3 s
// interval in 9 s chunks, so windows end in partial chunks.
TEST(Collector, StreamingMatchesEagerAcrossTheMatrix) {
  const Level levels[] = {Level::kL1, Level::kL2, Level::kL3};
  const MeasurementPoint taps[] = {MeasurementPoint::kNodeAc,
                                   MeasurementPoint::kNodeDc};
  const MeterMode modes[] = {MeterMode::kSampled, MeterMode::kIntegrated};
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    ScenarioSpec spec;
    spec.name = "collect-engines";
    spec.nodes = 48;
    spec.cv = 0.03;
    spec.fleet_seed = seed ^ 0x99;
    const Scenario built = build_scenario(spec);
    for (const Level level : levels) {
      for (const bool ramp : {false, true}) {
        MeasurementPlan plan =
            built.plan(MethodologySpec::get(level, Revision::kV2015), seed);
        CollectorConfig config = fast_config();
        config.campaign.seed = seed;
        config.campaign.meter_accuracy = MeterAccuracy::pdu_grade();
        config.transport.drop_prob = 0.1;
        config.transport.duplicate_prob = 0.05;
        config.transport.blackhole_fraction = 0.1;
        if (ramp) {
          plan.window = {Seconds{0.1}, Seconds{700.1}};
          config.campaign.meter_interval_override = Seconds{1.3};
          config.poller.chunk_duration = Seconds{9.0};
        }
        for (const MeasurementPoint tap : taps) {
          for (const MeterMode mode : modes) {
            for (const unsigned pollers : {1u, 4u}) {
              plan.point = tap;
              plan.meter_mode = mode;
              config.threads = pollers;
              expect_engines_agree(
                  built, plan, config,
                  "seed " + std::to_string(seed) + " L" +
                      std::to_string(static_cast<int>(level)) +
                      (ramp ? " ramp window" : " planned window") +
                      (tap == MeasurementPoint::kNodeAc ? " ac" : " dc") +
                      (mode == MeterMode::kSampled ? " sampled"
                                                   : " integrated") +
                      " pollers " + std::to_string(pollers));
            }
          }
        }
      }
    }
  }
}

TEST(Collector, LoweredStreamingRunsMemoizeTheGroundTruth) {
  const Rig rig = make_rig(64);
  const CollectorConfig config = fast_config();
  const auto streaming =
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan,
                       engine_config(config, CampaignEngine::kStreaming));
  const auto eager =
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan,
                       engine_config(config, CampaignEngine::kEager));
  EXPECT_EQ(stage_counter(streaming.result, "assess", "memoized"), 1.0);
  EXPECT_EQ(stage_counter(eager.result, "assess", "memoized"), 0.0);
  expect_identical_outcomes(rig.plan, eager, streaming, "memoized vs direct");
}

TEST(Collector, KillUnderOneEngineResumeUnderTheOther) {
  const Rig rig = make_rig(96);
  CollectorConfig config = fast_config();
  config.transport.drop_prob = 0.1;
  config.transport.blackhole_fraction = 0.1;

  CollectorConfig clean = config;
  clean.journal_path = temp_journal("collector_engines_clean.wal");
  const auto uninterrupted = collect_campaign(
      *rig.cluster, *rig.electrical, rig.plan,
      engine_config(clean, CampaignEngine::kStreaming));

  const std::pair<CampaignEngine, CampaignEngine> switches[] = {
      {CampaignEngine::kEager, CampaignEngine::kStreaming},
      {CampaignEngine::kStreaming, CampaignEngine::kEager}};
  for (const auto& [crash_engine, resume_engine] : switches) {
    const std::string what = crash_engine == CampaignEngine::kEager
                                 ? "eager crash, streaming resume"
                                 : "streaming crash, eager resume";
    CollectorConfig crashing = engine_config(config, crash_engine);
    crashing.journal_path = temp_journal("collector_engines_crash.wal");
    crashing.crash_after_meters = 7;
    EXPECT_THROW(
        collect_campaign(*rig.cluster, *rig.electrical, rig.plan, crashing),
        CollectionAborted)
        << what;

    CollectorConfig resuming = engine_config(config, resume_engine);
    resuming.journal_path = crashing.journal_path;
    resuming.resume = true;
    const auto resumed =
        collect_campaign(*rig.cluster, *rig.electrical, rig.plan, resuming);
    EXPECT_EQ(resumed.meters_resumed, 7u) << what;
    expect_identical_outcomes(rig.plan, uninterrupted, resumed, what);
    EXPECT_EQ(result_signature(rig.plan, uninterrupted.result),
              result_signature(rig.plan, resumed.result))
        << what;
  }
}

TEST(Collector, NonLoweredModelFallsBackToEager) {
  const Rig rig = make_rig(64);
  // Same PSUs, but each node's DC truth carries a 1 W offset the cluster
  // shape does not: the lowered-model probe must reject it.
  SystemPowerModel hand_built("hand-built", 16);
  for (std::size_t i = 0; i < rig.cluster->node_count(); ++i) {
    const PowerFunction f = rig.cluster->node_function(i);
    hand_built.add_node([f](double t) { return f(t) + 1.0; },
                        rig.electrical->node_psu(i));
  }
  EXPECT_FALSE(lowered_model_probe(*rig.cluster, hand_built, rig.plan));
  EXPECT_TRUE(lowered_model_probe(*rig.cluster, *rig.electrical, rig.plan));

  CollectorConfig config = fast_config();
  config.transport.drop_prob = 0.1;
  const auto streaming =
      collect_campaign(*rig.cluster, hand_built, rig.plan,
                       engine_config(config, CampaignEngine::kStreaming));
  const auto eager =
      collect_campaign(*rig.cluster, hand_built, rig.plan,
                       engine_config(config, CampaignEngine::kEager));
  expect_identical_outcomes(rig.plan, eager, streaming, "hand-built model");
  EXPECT_EQ(stage_counter(streaming.result, "meter", "engine_streaming"), 0.0);
  EXPECT_EQ(stage_counter(streaming.result, "assess", "memoized"), 0.0);
}

TEST(Collector, ChunkLayoutCoversEveryWindowSample) {
  const Seconds interval{10.0};
  Rng calibration(1, 1);
  const MeterModel meter(MeterAccuracy::perfect(), MeterMode::kSampled,
                         interval, calibration);
  // 95 s -> 9 samples (6 + a trailing partial 3); 60 s -> exactly one
  // full chunk; 125 s starting off-grid -> 12 samples (6 + 6).
  const std::vector<TimeWindow> windows = {
      {Seconds{100.0}, Seconds{195.0}},
      {Seconds{300.0}, Seconds{360.0}},
      {Seconds{412.5}, Seconds{537.5}}};
  const TimeWindow campaign{Seconds{50.0}, Seconds{600.0}};
  const std::vector<PollChunk> chunks =
      poll_chunk_layout(windows, campaign, interval, Seconds{60.0});

  std::vector<std::size_t> per_window(windows.size(), 0);
  for (std::size_t ci = 0; ci < chunks.size(); ++ci) {
    const PollChunk& c = chunks[ci];
    ASSERT_LT(c.window_index, windows.size());
    EXPECT_GE(c.samples, 1u);
    EXPECT_LE(c.samples, 6u);
    // The chunk window holds exactly its samples, as measure_into and
    // the chunk shape tables count them.
    EXPECT_EQ(meter.samples_in(c.window), c.samples) << "chunk " << ci;
    EXPECT_EQ(window_sample_count(c.window, interval), c.samples);
    EXPECT_EQ(c.avail_s, c.window.end.value() - campaign.begin.value());
    const TimeWindow& w = windows[c.window_index];
    EXPECT_EQ(c.window.begin.value(),
              w.begin.value() + 10.0 * static_cast<double>(
                                           per_window[c.window_index]));
    per_window[c.window_index] += c.samples;
  }
  for (std::size_t wi = 0; wi < windows.size(); ++wi) {
    EXPECT_EQ(per_window[wi], meter.samples_in(windows[wi])) << "window " << wi;
  }
  ASSERT_EQ(chunks.size(), 5u);
  EXPECT_EQ(chunks[1].samples, 3u);  // the trailing partial chunk

  // A chunk shorter than one reading still advances one sample at a time.
  const std::vector<PollChunk> fine =
      poll_chunk_layout(windows, campaign, interval, Seconds{4.0});
  EXPECT_EQ(fine.size(), 9u + 6u + 12u);
}

TEST(Collector, StreamingPollRejectsAMismatchedTableSet) {
  const Rig rig = make_rig(16);
  Rng calibration(1, 1);
  const MeterModel meter(MeterAccuracy::pdu_grade(), MeterMode::kSampled,
                         Seconds{10.0}, calibration);
  const SimTransport transport(TransportSpec{}, 1);
  PollJob job;
  job.meter_id = rig.plan.node_indices[0];
  job.meter = &meter;
  job.windows = {rig.plan.window};
  job.campaign_window = rig.plan.window;
  job.seed = 1;
  const PollerConfig poller;
  const std::vector<ShapeTable> too_few(1);
  StreamScratch scratch;
  job.tables = &too_few;
  job.mean_w = rig.cluster->node_means()[job.meter_id];
  job.scratch = &scratch;
  ASSERT_GT(poll_chunk_layout(job.windows, job.campaign_window,
                              meter.interval(), poller.chunk_duration)
                .size(),
            1u);
  EXPECT_THROW((void)poll_meter(job, transport, poller), contract_error);
}

TEST(BoundedQueue, BackpressureBlocksUntilConsumed) {
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    q.push(3);  // must block: capacity 2
    third_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load());  // still stuck behind the full queue
  EXPECT_EQ(q.pop().value(), 1);      // frees a slot
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
}

TEST(BoundedQueue, CloseUnblocksProducersAndDrainsConsumers) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(7));
  std::thread producer([&] {
    EXPECT_FALSE(q.push(8));  // blocked on full, woken by close -> false
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  producer.join();
  EXPECT_EQ(q.pop().value(), 7);          // close still drains queued items
  EXPECT_FALSE(q.pop().has_value());      // then reports end-of-stream
  EXPECT_FALSE(q.push(9));                // closed for good
  q.close();                              // idempotent
}

TEST(BoundedQueue, RejectsZeroCapacity) {
  EXPECT_THROW(BoundedQueue<int>{0}, contract_error);
}

}  // namespace
}  // namespace pv
