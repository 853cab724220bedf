// service_mix: a seeded stream of powervar-request-v1 lines into one
// CampaignService with nproc workers, in two phases — an open loop at a
// fixed offered rate, then a saturated backlog.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/request.hpp"
#include "service/service.hpp"
#include "workloads.hpp"

namespace pvbench {
namespace {

// The mix is generated in blocks of kBlock requests with one fixed
// composition, so every seed offers the same work in a different order
// and with different fleets: every (scenario, level) pair twice, 11 mild
// fault requests (15 %) and 7 byzantine + reconcile requests (10 %) on
// fixed cells, and a 36/22/14 tenant split.  Twelve scenarios over an
// 8-entry cache make the cache both hit and build.
constexpr std::size_t kPoolKeys = 12;
constexpr std::size_t kBlock = kPoolKeys * 3 * 2;
constexpr std::size_t kMildPerBlock = 11;
constexpr std::size_t kByzantinePerBlock = 7;
constexpr std::size_t kCacheCapacity = 8;
constexpr std::size_t kMinOpenBlocks = 14;  // 1008 requests: p99 has 10 beyond
constexpr double kOpenRate = 100.0;         // offered requests/s, open loop
constexpr int kSetupReps = 33;              // service constructions per group
constexpr double kIntervalS = 30.0;         // meter reporting interval
const char* const kTenants[] = {"alpha", "beta", "gamma"};

struct Mix {
  std::vector<pv::ServiceRequest> requests;
  std::vector<std::string> lines;
  std::vector<double> arrival_ms;  ///< open-loop due times, from phase start
  std::size_t open = 0;            ///< requests [0, open) form the open loop
};

Mix make_mix(std::uint64_t seed, std::size_t open_blocks, std::size_t sat_blocks) {
  InputRng rng(seed);
  struct Key {
    std::size_t nodes;
    double cv;
    std::uint64_t seed;
  };
  std::vector<Key> keys;
  for (std::size_t k = 0; k < kPoolKeys; ++k) {
    // Node counts on a geometric ladder from 240 to 4000, jittered.
    const double ladder =
        240.0 * std::pow(4000.0 / 240.0, static_cast<double>(k) / (kPoolKeys - 1));
    const double jittered = ladder * (0.95 + 0.05 * rng.uniform());
    const auto nodes = std::max<std::size_t>(
        240, static_cast<std::size_t>(jittered / 16.0) * 16);
    keys.push_back({nodes, 0.02 + 0.02 * rng.uniform(), rng.next() >> 12});
  }
  Mix mix;
  mix.open = open_blocks * kBlock;
  const std::size_t blocks = open_blocks + sat_blocks;
  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<std::size_t> order(kBlock);
    for (std::size_t i = 0; i < kBlock; ++i) order[i] = i;
    rng.shuffle(order);
    std::vector<int> tenant_of(kBlock);
    for (std::size_t i = 0; i < kBlock; ++i) {
      tenant_of[i] = i < kBlock / 2 ? 0 : i < kBlock * 4 / 5 ? 1 : 2;
    }
    rng.shuffle(tenant_of);
    for (std::size_t slot = 0; slot < kBlock; ++slot) {
      // Cell i of the block: scenario i % 12, level (i / 12) % 3 + 1; the
      // stride 29 (coprime to 72) spreads the faulted cells over both.
      const std::size_t i = order[slot];
      const std::size_t fault_rank = (i * 29) % kBlock;
      const Key& key = keys[i % kPoolKeys];
      pv::ServiceRequest req;
      req.id = "r" + std::to_string(mix.requests.size());
      req.nodes = key.nodes;
      req.cv = key.cv;
      req.seed = key.seed;
      req.level = static_cast<int>((i / kPoolKeys) % 3) + 1;
      req.interval_s = kIntervalS;
      req.tenant = kTenants[tenant_of[slot]];
      if (fault_rank < kMildPerBlock) {
        req.faults = "mild";
      } else if (fault_rank < kMildPerBlock + kByzantinePerBlock) {
        req.byzantine = 0.05;
        req.reconcile = true;
      }
      mix.lines.push_back(pv::render_request_json(req));
      mix.requests.push_back(std::move(req));
    }
  }
  // Independent users: Poisson arrivals at the offered rate.
  double t = 0.0;
  for (std::size_t i = 0; i < mix.open; ++i) {
    t += -std::log(1.0 - rng.uniform()) * 1e3 / kOpenRate;
    mix.arrival_ms.push_back(t);
  }
  return mix;
}

/// Completion stream consumer: records when each ticket finished.
struct Completions {
  std::mutex mu;
  std::condition_variable cv;
  std::map<std::size_t, double> done_ms;
  std::map<std::size_t, pv::ServiceResponse> responses;
  std::exception_ptr error;  ///< what ended the consumer early, if anything

  void wait_for(const std::vector<std::size_t>& tickets) {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] {
      if (error) return true;
      for (const std::size_t t : tickets) {
        if (done_ms.find(t) == done_ms.end()) return false;
      }
      return true;
    });
    if (error) std::rethrow_exception(error);
  }
};

struct PhaseRun {
  std::vector<pv::ServiceResponse> responses;  ///< by request index
  std::vector<double> latency_ms;              ///< open loop, from due time
  std::vector<double> lateness_ms;             ///< open loop
  std::size_t queue_depth_max = 0;             ///< open loop
  double sat_wall_ms = 0.0;   ///< first backlog submit to last completion
  double capacity_rps = 0.0;  ///< steady completion rate of the backlog
  std::size_t open_ok = 0;
  std::size_t sat_ok = 0;
  pv::DrainReport report;
};

/// `max_queue` is sized to the backlog: the saturated phase measures
/// throughput, so it must not shed.
pv::ServiceConfig service_config(unsigned workers, std::size_t max_queue) {
  pv::ServiceConfig cfg;
  cfg.workers = workers;
  cfg.max_queue = max_queue;
  cfg.cache_capacity = kCacheCapacity;
  return cfg;
}

/// Times `kSetupReps` constructions of an idle service, in seconds.
void time_setup(unsigned workers, std::size_t max_queue, std::vector<double>& out) {
  for (int k = 0; k < kSetupReps; ++k) {
    const double t0 = now_ms();
    const pv::CampaignService svc(service_config(workers, max_queue));
    out.push_back((now_ms() - t0) / 1e3);
  }
}

/// Runs the open loop and the backlog through one service.  With
/// `setup_s`, service set-up is also timed before, between and after the
/// phases, so its median covers the whole run.
PhaseRun run_phases(const Mix& mix, unsigned workers, SpanRecorder* rec,
                    std::vector<double>* setup_s = nullptr) {
  const std::size_t n_open = mix.open;
  const std::size_t n_all = mix.lines.size();
  PhaseRun run;
  run.responses.resize(n_all);
  std::vector<std::size_t> tickets(n_all);

  const std::size_t max_queue = n_all - n_open;
  if (setup_s != nullptr) time_setup(workers, max_queue, *setup_s);
  pv::CampaignService svc(service_config(workers, max_queue));
  Completions done;
  std::thread consumer([&] {
    try {
      while (const auto ticket = svc.next_completed()) {
        const double at = now_ms();
        pv::ServiceResponse resp;
        {
          const ScopedSpan span(rec, "svc.wait");
          resp = svc.wait(*ticket);
        }
        {
          std::lock_guard lock(done.mu);
          done.done_ms[*ticket] = at;
          done.responses[*ticket] = std::move(resp);
        }
        done.cv.notify_all();
      }
    } catch (...) {
      {
        std::lock_guard lock(done.mu);
        done.error = std::current_exception();
      }
      done.cv.notify_all();
    }
  });
  // Drains (ending the completion stream) and joins the consumer on every
  // path out of this function, exceptions included.
  struct Join {
    pv::CampaignService& svc;
    std::thread& t;
    ~Join() {
      try {
        (void)svc.drain();
      } catch (...) {
        // The report is taken below on the normal path; here only the
        // stream has to close so the consumer can end.
      }
      t.join();
    }
  } join{svc, consumer};

  auto submit = [&](std::size_t i) {
    const ScopedSpan span(rec, "svc.submit", kNoParent, mix.requests[i].id);
    const pv::AdmissionVerdict v = svc.submit_line(mix.lines[i]);
    tickets[i] = v.ticket;
    return v;
  };

  // Phase 1: open loop.  Each request is timed from when it was due, so
  // a stall also charges the requests queued behind it.
  const auto origin = std::chrono::steady_clock::now();
  const double origin_ms =
      std::chrono::duration<double, std::milli>(origin.time_since_epoch()).count();
  for (std::size_t i = 0; i < n_open; ++i) {
    const auto due = origin + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                  std::chrono::duration<double, std::milli>(mix.arrival_ms[i]));
    // Sleep to just short of the due time, then spin: a timer wake-up
    // alone can be late by more than the median request takes.
    std::this_thread::sleep_until(due - std::chrono::microseconds(300));
    while (std::chrono::steady_clock::now() < due) {
    }
    run.lateness_ms.push_back(now_ms() - origin_ms - mix.arrival_ms[i]);
    const pv::AdmissionVerdict v = submit(i);
    run.queue_depth_max = std::max(run.queue_depth_max, v.queue_depth);
  }
  done.wait_for(std::vector<std::size_t>(tickets.begin(), tickets.begin() + n_open));
  if (setup_s != nullptr) time_setup(workers, max_queue, *setup_s);

  // Phase 2: the whole backlog at once.
  const double sat_start = now_ms();
  for (std::size_t i = n_open; i < n_all; ++i) (void)submit(i);
  done.wait_for(std::vector<std::size_t>(tickets.begin() + n_open, tickets.end()));
  {
    const ScopedSpan span(rec, "svc.drain");
    run.report = svc.drain();
  }
  if (setup_s != nullptr) time_setup(workers, max_queue, *setup_s);

  std::lock_guard lock(done.mu);
  std::vector<double> sat_ok_ms;  // completion times of ok backlog requests
  for (std::size_t i = 0; i < n_all; ++i) {
    const double at = done.done_ms[tickets[i]];
    run.responses[i] = done.responses[tickets[i]];
    const bool ok = run.responses[i].code == pv::ResponseCode::kOk;
    if (i < n_open) {
      run.latency_ms.push_back(at - origin_ms - mix.arrival_ms[i]);
      run.open_ok += ok ? 1 : 0;
    } else if (ok) {
      sat_ok_ms.push_back(at);
    }
  }
  run.sat_ok = sat_ok_ms.size();
  std::sort(sat_ok_ms.begin(), sat_ok_ms.end());
  run.sat_wall_ms = sat_ok_ms.empty() ? 0.0 : sat_ok_ms.back() - sat_start;
  // Capacity is taken between the 10th and the 90th percentile completion,
  // so neither the ramp-up nor the last long requests draining onto idle
  // workers dilute the steady rate.
  if (sat_ok_ms.size() >= 10) {
    const std::size_t lo = sat_ok_ms.size() / 10;
    const std::size_t hi = sat_ok_ms.size() - 1 - sat_ok_ms.size() / 10;
    run.capacity_rps =
        static_cast<double>(hi - lo) / ((sat_ok_ms[hi] - sat_ok_ms[lo]) / 1e3);
  }
  return run;
}

/// A request replayed solo, outside the service, from the same
/// scenario_spec_of / plan_of / campaign_config_of inputs.
struct Replay {
  std::string doc;
  double plan_ms = 0.0;
  double campaign_ms = 0.0;
  pv::CampaignResult result;
};

/// `built`, when given, is the request's scenario already built (as the
/// service's cache would hold it); otherwise the replay builds its own.
Replay replay(const pv::ServiceRequest& req, SpanRecorder* rec,
              std::vector<std::size_t>* campaign_spans,
              const pv::Scenario* built = nullptr) {
  const ScopedSpan root(rec, "replay", kNoParent, req.id);
  pv::Scenario own;
  if (built == nullptr) {
    const ScopedSpan span(rec, "scenario.build", root.id(), req.id);
    own = pv::build_scenario(pv::scenario_spec_of(req));
    built = &own;
  }
  const pv::Scenario& scenario = *built;
  Replay out;
  double t0 = now_ms();
  pv::MeasurementPlan plan;
  {
    const ScopedSpan span(rec, "plan", root.id(), req.id);
    plan = pv::plan_of(req, scenario);
  }
  const pv::CampaignConfig config = pv::campaign_config_of(req, plan);
  out.plan_ms = now_ms() - t0;
  t0 = now_ms();
  out.result = run_traced_campaign(scenario, plan, config, rec, campaign_spans,
                                   root.id(), req.id);
  out.campaign_ms = now_ms() - t0;
  out.doc = assessment_json(plan, out.result);
  return out;
}

std::uint64_t digest_of(const PhaseRun& run) {
  std::uint64_t h = kFnvOffset;
  for (const pv::ServiceResponse& r : run.responses) {
    h = fnv1a(fnv1a(h, r.id), r.assessment_json);
  }
  return h;
}

void check_responses(const Mix& mix, const PhaseRun& run, Outcome& out) {
  for (std::size_t i = 0; i < run.responses.size(); ++i) {
    ++out.attempted;
    const pv::ServiceResponse& r = run.responses[i];
    if (r.code != pv::ResponseCode::kOk) {
      out.fail(mix.requests[i].id + ": " + pv::to_string(r.code) + " " + r.message);
    }
  }
}

}  // namespace

Outcome run_service_mix(const RunOptions& opt) {
  Outcome out;
  // The open loop takes about 60 % of --seconds at the offered rate; the
  // backlog, three blocks per second of --seconds, about 30 %.
  const auto open_blocks = std::max<std::size_t>(
      kMinOpenBlocks,
      static_cast<std::size_t>(0.6 * opt.seconds * kOpenRate / kBlock));
  const auto sat_blocks =
      std::max<std::size_t>(8, static_cast<std::size_t>(3.0 * opt.seconds));
  const Mix mix = make_mix(opt.seed, open_blocks, sat_blocks);
  const std::size_t n_open = mix.open;

  if (!opt.trace) {
    std::vector<double> setup_s;
    const PhaseRun run = run_phases(mix, opt.nproc, nullptr, &setup_s);
    check_responses(mix, run, out);
    out.digest = digest_of(run);
    // Whole blocks, in a seeded order, replayed outside the service with
    // the request's own (serial) config for a quarter of --seconds (at least nproc
    // blocks), on nproc threads at once as the service's workers run them:
    // one thread alone would measure whichever core it landed on.  A
    // block's composition is the same for every seed; block means, not
    // single campaigns, make the figure, because the mix's few long
    // campaigns carry most of the work, and the median over blocks keeps
    // one stalled replay from moving it.
    InputRng pick(opt.seed ^ 0x5EED);
    std::vector<std::size_t> order(mix.requests.size() / kBlock);
    for (std::size_t b = 0; b < order.size(); ++b) order[b] = b;
    pick.shuffle(order);
    // The scenarios are built once up front and shared read-only, as the
    // service's cache shares them, so the replays time campaigns only.
    std::map<std::uint64_t, pv::Scenario> scenarios;
    for (const pv::ServiceRequest& req : mix.requests) {
      const pv::ScenarioSpec spec = pv::scenario_spec_of(req);
      const std::uint64_t key = pv::ScenarioCache::fingerprint(spec);
      if (scenarios.count(key) == 0) scenarios.emplace(key, pv::build_scenario(spec));
    }
    std::mutex replay_mu;  // guards next_block, block_mean_ms and out
    std::size_t next_block = 0;
    std::vector<double> block_mean_ms;
    const double replay_deadline = now_ms() + 0.25 * opt.seconds * 1e3;
    auto replay_blocks = [&] {
      for (;;) {
        std::size_t b = 0;
        {
          std::lock_guard lock(replay_mu);
          if (next_block == order.size() ||
              (next_block >= opt.nproc && now_ms() >= replay_deadline)) {
            return;
          }
          b = order[next_block++];
        }
        double total_ms = 0.0;
        for (std::size_t i = b * kBlock; i < (b + 1) * kBlock; ++i) {
          std::string error;
          try {
            const pv::Scenario& built =
                scenarios.at(pv::ScenarioCache::fingerprint(pv::scenario_spec_of(mix.requests[i])));
            const Replay r = replay(mix.requests[i], nullptr, nullptr, &built);
            total_ms += r.campaign_ms;
            if (r.doc != run.responses[i].assessment_json) {
              error = mix.requests[i].id + ": service response differs from a solo run";
            }
          } catch (const std::exception& e) {
            error = mix.requests[i].id + ": solo replay threw: " + e.what();
          } catch (...) {
            error = mix.requests[i].id + ": solo replay threw";
          }
          std::lock_guard lock(replay_mu);
          ++out.attempted;
          if (!error.empty()) out.fail(error);
        }
        std::lock_guard lock(replay_mu);
        block_mean_ms.push_back(total_ms / kBlock);
      }
    };
    {
      std::vector<std::jthread> replayers;  // joined on every path out
      for (unsigned t = 0; t < opt.nproc; ++t) replayers.emplace_back(replay_blocks);
    }
    out.metrics["setup_s"] = median(setup_s);
    // Inside the service a campaign gets one of nproc workers: the worker
    // time it costs is nproc over the saturated completion rate.
    out.metrics["campaign_s"] = static_cast<double>(opt.nproc) / run.capacity_rps;
    out.metrics["campaign_1t_s"] = median(block_mean_ms) / 1e3;
    out.metrics["peak_rss_mb"] = peak_rss_mb();
    out.metrics["svc_p50_ms"] = median(run.latency_ms);
    out.metrics["svc_p99_ms"] = quantile(run.latency_ms, 0.99);
    out.metrics["svc_capacity_rps"] = run.capacity_rps;
    return out;
  }

  // Traced: the same two phases untraced and then traced (the saturated
  // walls give the tracing overhead), then every open-loop request
  // replayed solo through the decorated stages.
  SpanRecorder rec;
  const PhaseRun plain = run_phases(mix, opt.nproc, nullptr);
  const PhaseRun run = run_phases(mix, opt.nproc, &rec);
  check_responses(mix, plain, out);
  check_responses(mix, run, out);
  std::vector<std::size_t> campaign_spans;
  std::vector<double> queue_wait_ms;
  double solo_ms_total = 0.0;
  double meter_samples = 0.0;
  double fused = 0.0;
  double repaired = 0.0;
  double quarantined = 0.0;
  double memoized = 0.0;
  std::size_t replays = 0;
  for (std::size_t i = 0; i < n_open; ++i) {
    ++out.attempted;
    try {
      const Replay r = replay(mix.requests[i], &rec, &campaign_spans);
      if (r.doc != run.responses[i].assessment_json ||
          r.doc != plain.responses[i].assessment_json) {
        out.fail(mix.requests[i].id + ": service response differs from a solo run");
      }
      ++replays;
      solo_ms_total += r.plan_ms + r.campaign_ms;
      queue_wait_ms.push_back(
          std::max(0.0, run.latency_ms[i] - r.plan_ms - r.campaign_ms));
      if (const pv::StageTrace* meter = find_stage(r.result, "meter")) {
        meter_samples += static_cast<double>(meter->samples);
      }
      fused += stage_counter(r.result, "meter", "fleet_fused");
      repaired += stage_counter(r.result, "repair", "samples_repaired");
      quarantined += stage_counter(r.result, "reconcile", "quarantined");
      memoized += stage_counter(r.result, "assess", "memoized");
    } catch (const std::exception& e) {
      out.fail(mix.requests[i].id + ": solo replay threw: " + e.what());
    }
  }

  const std::vector<Span> spans = rec.snapshot();
  const std::vector<double> self = SpanRecorder::self_times(spans);
  double meter_self_total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "meter") meter_self_total += self[i];
  }
  const StageSummary stages = summarize_stages(spans, campaign_spans);
  const double n = static_cast<double>(std::max<std::size_t>(1, replays));
  auto& m = out.metrics;
  m["scenario.build_ms"] = median_span_ms(spans, "scenario.build");
  m["plan.ms"] = median_span_ms(spans, "plan");
  for (const std::string& stage : stage_names()) {
    const auto it = stages.self_ms.find(stage);
    m[stage + ".ms"] = it == stages.self_ms.end() ? 0.0 : it->second;
  }
  m["provision.rss_mb"] = stages.provision_heap_mb;
  m["meter.samples"] = meter_samples;
  if (meter_samples > 0.0) m["meter.ns_per_sample"] = meter_self_total * 1e6 / meter_samples;
  m["meter.fused"] = fused / n;
  m["repair.samples_repaired"] = repaired;
  m["reconcile.quarantined"] = quarantined;
  m["assess.memoized"] = memoized / n;
  // Worker efficiency: the serial work the saturated phase completed per
  // second, over the nproc workers that did it.
  m["parallel.efficiency"] = (solo_ms_total / n / 1e3) *
                             run.capacity_rps /
                             static_cast<double>(opt.nproc);
  m["campaign.ms"] = stages.campaign_ms;
  m["stages.coverage"] = stages.coverage;
  m["svc.submit_us"] = median_span_ms(spans, "svc.submit") * 1e3;
  m["svc.queue_depth_max"] = static_cast<double>(run.queue_depth_max);
  m["svc.queue_wait_ms"] = median(queue_wait_ms);
  const pv::CacheStats& cache = run.report.cache;
  const std::size_t lookups = cache.hits + cache.misses;
  m["svc.cache_hit_ratio"] =
      lookups == 0 ? 0.0 : static_cast<double>(cache.hits) / static_cast<double>(lookups);
  m["svc.cache_builds"] = static_cast<double>(cache.misses);
  for (const char* tenant : kTenants) {
    std::vector<double> lat;
    for (std::size_t i = 0; i < n_open; ++i) {
      if (mix.requests[i].tenant == tenant) lat.push_back(run.latency_ms[i]);
    }
    m[std::string("svc.tenant_p99_ms.") + tenant] = quantile(lat, 0.99);
  }
  m["svc.shed"] = static_cast<double>(run.report.shed);
  m["svc.lateness_ms"] = quantile(run.lateness_ms, 1.0);
  m["svc.open.sent"] = static_cast<double>(n_open);
  m["svc.open.ok"] = static_cast<double>(run.open_ok);
  m["svc.open.failed"] = static_cast<double>(n_open - run.open_ok);
  m["svc.sat.sent"] = static_cast<double>(mix.lines.size() - n_open);
  m["svc.sat.ok"] = static_cast<double>(run.sat_ok);
  m["svc.sat.failed"] = static_cast<double>(mix.lines.size() - n_open - run.sat_ok);
  m["trace.overhead_frac"] = run.sat_wall_ms / plain.sat_wall_ms - 1.0;
  out.digest = digest_of(run);
  if (!rec.write_json(spans_path(opt))) out.fail("could not write the span file");
  return out;
}

}  // namespace pvbench
