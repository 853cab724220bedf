// collect_flaky: the asynchronous collection path — a node-tap campaign
// polled over a transport that drops, duplicates and blackholes, with
// the write-ahead journal on disk — at 1 poller and at nproc pollers.

#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "collect/collector.hpp"
#include "workloads.hpp"

namespace pvbench {
namespace {

constexpr std::size_t kMinPairs = 3;
constexpr std::size_t kNodes = 8000;

/// The identity check: the collection outcome must not depend on the
/// poller count.  The modeled makespan is the one field defined by the
/// pool size (busy time spread over the pollers), so it is left out.
std::string comparable_json(const pv::MeasurementPlan& plan,
                            pv::CampaignResult result) {
  result.data_quality.collection.makespan_s = 0.0;
  return assessment_json(plan, result);
}

}  // namespace

Outcome run_collect(const RunOptions& opt) {
  Outcome out;
  InputRng rng(opt.seed);
  pv::ServiceRequest req;
  req.id = opt.workload;
  req.nodes = kNodes;
  req.cv = 0.02 + 0.02 * rng.uniform();
  req.level = 3;
  req.seed = rng.next() >> 12;
  req.interval_s = 10.0;

  std::unique_ptr<SpanRecorder> rec;
  if (opt.trace) rec = std::make_unique<SpanRecorder>();

  // Set-up is repeated at the top of every round (see fleet.cpp).
  pv::Scenario scenario;
  pv::MeasurementPlan plan;
  pv::CollectorConfig config;
  config.transport.drop_prob = 0.05;
  config.transport.duplicate_prob = 0.05;
  config.transport.blackhole_fraction = 0.05;
  config.journal_path = opt.out_dir + "/collect-" + std::to_string(opt.seed) + ".wal";
  std::vector<double> setup_ms;
  auto set_up = [&] {
    setup_ms.push_back(build_and_plan(req, rec.get(), scenario, plan));
    config.campaign = pv::campaign_config_of(req, plan);
  };

  std::string reference;
  pv::CollectionOutcome last;
  std::vector<std::size_t> wide_spans;
  auto timed = [&](unsigned pollers, SpanRecorder* r, const char* what) {
    config.threads = pollers;
    ++out.attempted;
    const double t0 = now_ms();
    try {
      const ScopedSpan span(r, "collect");
      pv::CollectionOutcome got =
          pv::collect_campaign(*scenario.cluster, *scenario.electrical, plan, config);
      const double ms = now_ms() - t0;
      if (r != nullptr && pollers == opt.nproc) {
        // collect_campaign cannot be decorated: lay the per-stage wall
        // clock its result carries under the call's span.
        wide_spans.push_back(span.id());
        double at = t0;
        for (const pv::StageTrace& t : got.result.stage_traces) {
          r->add(t.stage, at, t.wall_ms, span.id(), {});
          at += t.wall_ms;
        }
      }
      const std::string doc = comparable_json(plan, got.result);
      if (reference.empty()) {
        reference = doc;
        out.digest = fnv1a(kFnvOffset, doc);
      } else if (doc != reference) {
        out.fail(std::string(what) + ": collection result differs from the first run");
      }
      last = std::move(got);
      return ms;
    } catch (const std::exception& e) {
      out.fail(std::string(what) + ": " + e.what());
      return now_ms() - t0;
    }
  };

  std::vector<double> serial_ms;
  std::vector<double> wide_ms;
  std::vector<double> untraced_ms;
  const double deadline = now_ms() + opt.seconds * 1e3;
  do {
    set_up();
    serial_ms.push_back(timed(1, rec.get(), "1 poller"));
    wide_ms.push_back(timed(opt.nproc, rec.get(), "nproc pollers"));
    if (rec) untraced_ms.push_back(timed(opt.nproc, nullptr, "untraced"));
  } while (now_ms() < deadline || wide_ms.size() < kMinPairs);

  if (!opt.trace) {
    put_campaign_metrics(out, setup_ms, serial_ms, wide_ms);
    return out;
  }

  const std::vector<Span> spans = rec->snapshot();
  const StageSummary stages = summarize_stages(spans, wide_spans);
  const pv::CampaignResult& r = last.result;
  put_stage_metrics(out, spans, stages, r);
  auto& m = out.metrics;
  m["parallel.efficiency"] =
      median(serial_ms) / (static_cast<double>(opt.nproc) * median(wide_ms));
  const pv::CollectionQuality& cq = r.data_quality.collection;
  m["collect.polls"] = static_cast<double>(cq.polls_attempted);
  m["collect.retry_ratio"] =
      cq.polls_attempted == 0 ? 0.0
                              : static_cast<double>(cq.polls_retried) /
                                    static_cast<double>(cq.polls_attempted);
  m["collect.timeouts"] = static_cast<double>(cq.polls_timed_out);
  m["collect.breaker_trips"] = static_cast<double>(cq.breaker_trips);
  m["collect.abandoned"] = static_cast<double>(cq.meters_abandoned);
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(config.journal_path, ec);
  if (ec) {
    out.fail("journal missing after the run: " + config.journal_path);
  } else {
    m["collect.journal_bytes"] = static_cast<double>(bytes);
  }
  m["trace.overhead_frac"] = median(wide_ms) / median(untraced_ms) - 1.0;
  if (!rec->write_json(spans_path(opt))) out.fail("could not write the span file");
  return out;
}

}  // namespace pvbench
