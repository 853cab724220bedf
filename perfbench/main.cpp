// pvbench — the end-to-end benchmark program.
//
//   pvbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Runs one workload (fleet_clean, fleet_degraded, service_mix,
// collect_flaky) against the library's public API with inputs generated
// from the seed, checks every output, prints a human summary on stderr
// and, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs report the end-to-end metrics; traced runs report the
// per-layer metrics and write their spans to DIR (default .bench_out).
// Exit status: 0 when every check passed, 1 when one failed, 2 on usage.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace {

using pvbench::Outcome;
using pvbench::RunOptions;

using MetricList = std::vector<std::pair<std::string, std::string>>;

const MetricList& end_to_end_metrics() {
  static const MetricList list = {
      {"setup_s", "s"},           {"campaign_s", "s"},
      {"campaign_1t_s", "s"},     {"peak_rss_mb", "MB"},
      {"svc_p50_ms", "ms"},       {"svc_p99_ms", "ms"},
      {"svc_capacity_rps", "1/s"},
  };
  return list;
}

const MetricList& per_layer_metrics() {
  static const MetricList list = {
      {"scenario.build_ms", "ms"},
      {"plan.ms", "ms"},
      {"provision.ms", "ms"},
      {"provision.rss_mb", "MB"},
      {"meter.ms", "ms"},
      {"meter.samples", "count"},
      {"meter.ns_per_sample", "ns"},
      {"meter.fused", "ratio"},
      {"repair.ms", "ms"},
      {"repair.samples_repaired", "count"},
      {"reconcile.ms", "ms"},
      {"reconcile.quarantined", "count"},
      {"aggregate.ms", "ms"},
      {"assess.ms", "ms"},
      {"assess.memoized", "ratio"},
      {"parallel.efficiency", "ratio"},
      {"campaign.ms", "ms"},
      {"stages.coverage", "ratio"},
      {"svc.submit_us", "us"},
      {"svc.queue_depth_max", "count"},
      {"svc.queue_wait_ms", "ms"},
      {"svc.cache_hit_ratio", "ratio"},
      {"svc.cache_builds", "count"},
      {"svc.tenant_p99_ms.alpha", "ms"},
      {"svc.tenant_p99_ms.beta", "ms"},
      {"svc.tenant_p99_ms.gamma", "ms"},
      {"svc.shed", "count"},
      {"svc.lateness_ms", "ms"},
      {"svc.open.sent", "count"},
      {"svc.open.ok", "count"},
      {"svc.open.failed", "count"},
      {"svc.sat.sent", "count"},
      {"svc.sat.ok", "count"},
      {"svc.sat.failed", "count"},
      {"collect.polls", "count"},
      {"collect.retry_ratio", "ratio"},
      {"collect.timeouts", "count"},
      {"collect.breaker_trips", "count"},
      {"collect.abandoned", "count"},
      {"collect.journal_bytes", "bytes"},
      {"trace.overhead_frac", "ratio"},
      {"fail_frac", "ratio"},
  };
  return list;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "pvbench: " << why << "\n"
            << "usage: pvbench --workload fleet_clean|fleet_degraded|"
               "service_mix|collect_flaky --seed N --seconds S --trace 0|1 "
               "[--out DIR]\n";
  std::exit(2);
}

RunOptions parse_args(int argc, char** argv) {
  RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opt.seconds > 0.0) ||
          opt.seconds > 600.0) {
        usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      opt.trace = value == "1";
    } else if (flag == "--out") {
      opt.out_dir = value;
    } else {
      usage("unknown option " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return opt;
}

Outcome run_workload(const RunOptions& opt) {
  if (opt.workload == "fleet_clean") {
    return pvbench::run_fleet(opt, {100000, 5.0, false});
  }
  if (opt.workload == "fleet_degraded") {
    return pvbench::run_fleet(opt, {8000, 10.0, true});
  }
  if (opt.workload == "service_mix") return pvbench::run_service_mix(opt);
  if (opt.workload == "collect_flaky") return pvbench::run_collect(opt);
  usage("unknown workload " + opt.workload);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt = parse_args(argc, argv);
  opt.nproc = pvbench::usable_cpus();
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) {
    std::cerr << "pvbench: cannot create " << opt.out_dir << ": "
              << ec.message() << "\n";
    return 1;
  }

  Outcome out;
  try {
    out = run_workload(opt);
  } catch (const std::exception& e) {
    ++out.attempted;
    out.fail(std::string("workload threw: ") + e.what());
  }
  if (out.attempted == 0) out.attempted = 1;

  const MetricList& names = opt.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const auto& [name, unit] : names) {
    const double v = out.metrics.count(name) != 0 ? out.metrics[name] : 0.0;
    if (!std::isfinite(v)) out.fail(name + " is not finite");
    // An end-to-end metric of 0 means the workload never measured it.
    if (!opt.trace && !(v > 0.0)) out.fail(name + " was not measured");
  }
  out.metrics["fail_frac"] =
      static_cast<double>(out.failed) / static_cast<double>(out.attempted);
  const bool correct = out.failed == 0;

  std::fprintf(stderr, "pvbench %s seed=%llu nproc=%u trace=%d digest=%016llx\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               opt.nproc, opt.trace ? 1 : 0,
               static_cast<unsigned long long>(out.digest));
  for (const auto& [name, unit] : names) {
    const double v = out.metrics.count(name) != 0 ? out.metrics[name] : 0.0;
    std::fprintf(stderr, "  %-26s %14.6g %s\n", name.c_str(), v, unit.c_str());
  }
  std::fprintf(stderr, "  attempted %zu, failed %zu\n", out.attempted, out.failed);
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "  FAILED: %s\n", e.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", out.attempted, out.failed);
  bool first = true;
  for (const auto& [name, unit] : names) {
    double v = out.metrics.count(name) != 0 ? out.metrics[name] : 0.0;
    if (!std::isfinite(v)) v = 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), v, unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
