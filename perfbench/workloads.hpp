#pragma once
// The four benchmark workloads.  Each runs in a process of its own and
// returns its metrics: the end-to-end set when untraced, the per-layer
// set when traced.

#include <string>

#include "common.hpp"

namespace pvbench {

struct FleetShape {
  std::size_t nodes = 0;
  double interval_s = 0.0;  ///< meter reporting interval
  bool degraded = false;    ///< harsh faults, 5 % byzantine, reconcile on
};

[[nodiscard]] Outcome run_fleet(const RunOptions& opt, const FleetShape& shape);
[[nodiscard]] Outcome run_service_mix(const RunOptions& opt);
[[nodiscard]] Outcome run_collect(const RunOptions& opt);

/// Where a traced run writes its spans.
[[nodiscard]] inline std::string spans_path(const RunOptions& opt) {
  return opt.out_dir + "/spans-" + opt.workload + "-" +
         std::to_string(opt.seed) + ".json";
}

}  // namespace pvbench
