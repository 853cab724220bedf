// fleet_clean / fleet_degraded: one Level 3 campaign over a whole fleet,
// run back to back at 1 thread and at nproc threads.  See README.md for
// why these two workloads and which layers each one reaches.

#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace pvbench {
namespace {

constexpr std::size_t kMinPairs = 3;

pv::ServiceRequest fleet_request(const RunOptions& opt, const FleetShape& shape) {
  InputRng rng(opt.seed);
  pv::ServiceRequest req;
  req.id = opt.workload;
  req.nodes = shape.nodes;
  req.cv = 0.02 + 0.02 * rng.uniform();
  req.level = 3;
  req.seed = rng.next() >> 12;
  req.interval_s = shape.interval_s;
  if (shape.degraded) {
    req.faults = "harsh";
    req.byzantine = 0.05;
    req.reconcile = true;
  }
  return req;
}

pv::CampaignConfig at_threads(pv::CampaignConfig config, unsigned threads) {
  config.threads = threads;
  config.reconcile.threads = threads;
  return config;
}

}  // namespace

Outcome run_fleet(const RunOptions& opt, const FleetShape& shape) {
  Outcome out;
  const pv::ServiceRequest req = fleet_request(opt, shape);
  std::unique_ptr<SpanRecorder> rec;
  if (opt.trace) rec = std::make_unique<SpanRecorder>();

  // Set-up — the scenario build and the measurement plan — is repeated
  // at the top of every round, so its median covers the whole run and not
  // one moment of it.  Every rebuild yields the same scenario.
  pv::Scenario scenario;
  pv::MeasurementPlan plan;
  pv::CampaignConfig serial;
  pv::CampaignConfig wide;
  std::vector<double> setup_ms;
  auto set_up = [&] {
    setup_ms.push_back(build_and_plan(req, rec.get(), scenario, plan));
    const pv::CampaignConfig base = pv::campaign_config_of(req, plan);
    serial = at_threads(base, 1);
    wide = at_threads(base, opt.nproc);
  };

  // Every campaign of the run has the same inputs, so every assessment
  // document must equal the first one, whatever the thread count.
  std::string reference;
  pv::CampaignResult last;
  auto timed = [&](const pv::CampaignConfig& config, SpanRecorder* r,
                   std::vector<std::size_t>* spans, const char* what) {
    ++out.attempted;
    const double t0 = now_ms();
    try {
      pv::CampaignResult result =
          run_traced_campaign(scenario, plan, config, r, spans);
      const double ms = now_ms() - t0;
      const std::string doc = assessment_json(plan, result);
      if (reference.empty()) {
        reference = doc;
        out.digest = fnv1a(kFnvOffset, doc);
      } else if (doc != reference) {
        out.fail(std::string(what) + ": assessment differs from the first run");
      }
      last = std::move(result);
      return ms;
    } catch (const std::exception& e) {
      out.fail(std::string(what) + ": " + e.what());
      return now_ms() - t0;
    }
  };

  std::vector<double> serial_ms;
  std::vector<double> wide_ms;
  std::vector<double> untraced_ms;
  std::vector<std::size_t> serial_spans;
  std::vector<std::size_t> wide_spans;
  const double deadline = now_ms() + opt.seconds * 1e3;
  do {
    set_up();
    serial_ms.push_back(timed(serial, rec.get(), &serial_spans, "1 thread"));
    wide_ms.push_back(timed(wide, rec.get(), &wide_spans, "nproc threads"));
    if (rec) untraced_ms.push_back(timed(wide, nullptr, nullptr, "untraced"));
  } while (now_ms() < deadline || wide_ms.size() < kMinPairs);

  if (!opt.trace) {
    put_campaign_metrics(out, setup_ms, serial_ms, wide_ms);
    return out;
  }

  const std::vector<Span> spans = rec->snapshot();
  const StageSummary wide_stages = summarize_stages(spans, wide_spans);
  const StageSummary serial_stages = summarize_stages(spans, serial_spans);
  put_stage_metrics(out, spans, wide_stages, last);
  auto& m = out.metrics;
  m["parallel.efficiency"] =
      serial_stages.campaign_ms /
      (static_cast<double>(opt.nproc) * wide_stages.campaign_ms);
  m["trace.overhead_frac"] = median(wide_ms) / median(untraced_ms) - 1.0;
  if (!rec->write_json(spans_path(opt))) out.fail("could not write the span file");
  return out;
}

}  // namespace pvbench
