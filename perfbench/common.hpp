#pragma once
// Shared pieces of the benchmark program: the run options, the result a
// workload hands back, order statistics, the benchmark's own input RNG,
// output digests and the stage-timing decorator.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "service/request.hpp"
#include "spans.hpp"

namespace pvbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  unsigned nproc = 1;
};

/// What one workload run reports.  `metrics` holds the end-to-end metrics
/// of an untraced run, or the per-layer metrics of a traced one; a name
/// the workload does not reach is left out and printed as 0.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions
  std::map<std::string, double> metrics;
  std::uint64_t digest = 0;  ///< FNV-1a over the workload's outputs

  void fail(std::string why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
};

/// CPUs this process may run on (what `nproc` prints), which caps every
/// thread count the benchmark uses.
inline unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

inline double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// SplitMix64: the benchmark generates its inputs with its own generator,
/// so a change to the library's RNG cannot change what the library is
/// asked to do.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

inline std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}
inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;

inline std::string assessment_json(const pv::MeasurementPlan& plan,
                                   const pv::CampaignResult& result) {
  return pv::render_json(pv::assessment_document(plan, result));
}

/// The benchmark-side stage decorator: runs the wrapped stage inside a
/// span whose parent is the campaign span, so the pipeline's own code is
/// timed from outside without changing it.
class TimedStage final : public pv::CampaignStage {
 public:
  TimedStage(pv::StagePtr inner, SpanRecorder& rec, std::size_t parent,
             std::string request)
      : inner_(std::move(inner)),
        rec_(rec),
        parent_(parent),
        request_(std::move(request)) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }

  void run(pv::CampaignContext& ctx, pv::StageTrace& trace) override {
    const ScopedSpan span(&rec_, inner_->name(), parent_, request_);
    inner_->run(ctx, trace);
  }

 private:
  pv::StagePtr inner_;
  SpanRecorder& rec_;
  std::size_t parent_;
  std::string request_;
};

/// Runs one campaign as run_campaign does; with a recorder, inside a
/// "campaign" span (its id appended to `campaign_spans`) whose children
/// are the decorated stages.
inline pv::CampaignResult run_traced_campaign(
    const pv::Scenario& scenario, const pv::MeasurementPlan& plan,
    const pv::CampaignConfig& config, SpanRecorder* rec,
    std::vector<std::size_t>* campaign_spans = nullptr,
    std::size_t parent = kNoParent, const std::string& request = {}) {
  if (rec == nullptr) {
    return pv::run_campaign(*scenario.cluster, *scenario.electrical, plan,
                            config);
  }
  const ScopedSpan span(rec, "campaign", parent, request);
  if (campaign_spans != nullptr) campaign_spans->push_back(span.id());
  std::vector<pv::StagePtr> stages = pv::make_campaign_stages(plan, config);
  for (pv::StagePtr& s : stages) {
    s = std::make_unique<TimedStage>(std::move(s), *rec, span.id(), request);
  }
  return pv::run_campaign_stages(*scenario.cluster, *scenario.electrical,
                                 plan, config, stages);
}

/// Builds the request's scenario and plans its measurement, each call in
/// a span; returns the wall time of both.  The old scenario is released
/// first, so a rebuild never holds two fleets at once.
inline double build_and_plan(const pv::ServiceRequest& req, SpanRecorder* rec,
                             pv::Scenario& scenario, pv::MeasurementPlan& plan) {
  scenario = {};
  const double t0 = now_ms();
  {
    const ScopedSpan span(rec, "scenario.build");
    scenario = pv::build_scenario(pv::scenario_spec_of(req));
  }
  {
    const ScopedSpan span(rec, "plan");
    plan = pv::plan_of(req, scenario);
  }
  return now_ms() - t0;
}

/// The pipeline stages, in the order run_campaign executes them.
inline const std::vector<std::string>& stage_names() {
  static const std::vector<std::string> names = {
      "provision", "meter", "repair", "reconcile", "aggregate", "assess"};
  return names;
}

/// A counter of a stage trace, or 0 when the stage or counter is absent.
inline double stage_counter(const pv::CampaignResult& r, const std::string& stage,
                            const std::string& counter) {
  for (const pv::StageTrace& t : r.stage_traces) {
    if (t.stage != stage) continue;
    for (const auto& [name, value] : t.counters) {
      if (name == counter) return value;
    }
  }
  return 0.0;
}

inline const pv::StageTrace* find_stage(const pv::CampaignResult& r,
                                        const std::string& stage) {
  for (const pv::StageTrace& t : r.stage_traces) {
    if (t.stage == stage) return &t;
  }
  return nullptr;
}

/// Median duration of the spans called `name`.
inline double median_span_ms(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> ms;
  for (const Span& s : spans) {
    if (s.name == name) ms.push_back(s.duration_ms());
  }
  return median(ms);
}

/// Per-stage figures over a set of traced campaign spans: the
/// median self time of each stage (over the campaigns that ran it), the
/// largest heap growth across a provision span (the fleet state it
/// leaves for Meter), and the median share of the campaign span the
/// stage self-times cover.
struct StageSummary {
  std::map<std::string, double> self_ms;
  double provision_heap_mb = 0.0;
  double campaign_ms = 0.0;
  double coverage = 0.0;
};

inline StageSummary summarize_stages(const std::vector<Span>& spans,
                                     const std::vector<std::size_t>& campaigns) {
  const std::vector<double> self = SpanRecorder::self_times(spans);
  std::map<std::size_t, std::size_t> slot;  // campaign span -> index
  for (std::size_t i = 0; i < campaigns.size(); ++i) slot[campaigns[i]] = i;
  std::map<std::string, std::vector<double>> per_stage;
  std::vector<double> covered(campaigns.size(), 0.0);
  StageSummary out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = slot.find(spans[i].parent);
    if (it == slot.end()) continue;
    per_stage[spans[i].name].push_back(self[i]);
    covered[it->second] += self[i];
    if (spans[i].name == "provision") {
      out.provision_heap_mb = std::max(out.provision_heap_mb, spans[i].heap_delta_mb);
    }
  }
  for (auto& [name, v] : per_stage) out.self_ms[name] = median(v);
  std::vector<double> durations;
  std::vector<double> shares;
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    const double d = spans[campaigns[i]].duration_ms();
    durations.push_back(d);
    shares.push_back(d > 0.0 ? covered[i] / d : 0.0);
  }
  out.campaign_ms = median(durations);
  out.coverage = median(shares);
  return out;
}

/// The end-to-end metrics of a workload whose request is one campaign (or
/// collection), timed at 1 and at nproc threads (pollers): the nproc
/// latencies double as the service view — median, slowest, and campaigns
/// completed per second.
inline void put_campaign_metrics(Outcome& out, const std::vector<double>& setup_ms,
                                 const std::vector<double>& serial_ms,
                                 const std::vector<double>& wide_ms) {
  auto& m = out.metrics;
  m["setup_s"] = median(setup_ms) / 1e3;
  m["campaign_s"] = median(wide_ms) / 1e3;
  m["campaign_1t_s"] = median(serial_ms) / 1e3;
  m["peak_rss_mb"] = peak_rss_mb();
  m["svc_p50_ms"] = median(wide_ms);
  m["svc_p99_ms"] = quantile(wide_ms, 0.99);
  m["svc_capacity_rps"] = 1e3 / mean(wide_ms);
}

/// The per-layer metrics every campaign workload shares: set-up spans,
/// stage self times, the meter's sample count and cost per sample.
inline void put_stage_metrics(Outcome& out, const std::vector<Span>& spans,
                              const StageSummary& stages,
                              const pv::CampaignResult& last) {
  auto& m = out.metrics;
  m["scenario.build_ms"] = median_span_ms(spans, "scenario.build");
  m["plan.ms"] = median_span_ms(spans, "plan");
  for (const std::string& stage : stage_names()) {
    const auto it = stages.self_ms.find(stage);
    m[stage + ".ms"] = it == stages.self_ms.end() ? 0.0 : it->second;
  }
  m["provision.rss_mb"] = stages.provision_heap_mb;
  if (const pv::StageTrace* meter = find_stage(last, "meter")) {
    m["meter.samples"] = static_cast<double>(meter->samples);
    if (meter->samples > 0) {
      m["meter.ns_per_sample"] =
          m["meter.ms"] * 1e6 / static_cast<double>(meter->samples);
    }
  }
  m["meter.fused"] = stage_counter(last, "meter", "fleet_fused");
  m["repair.samples_repaired"] = stage_counter(last, "repair", "samples_repaired");
  m["reconcile.quarantined"] = stage_counter(last, "reconcile", "quarantined");
  m["assess.memoized"] = stage_counter(last, "assess", "memoized");
  m["campaign.ms"] = stages.campaign_ms;
  m["stages.coverage"] = stages.coverage;
}

}  // namespace pvbench
