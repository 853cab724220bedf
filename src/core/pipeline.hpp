#pragma once
// The staged campaign pipeline.  run_campaign historically was one long
// function; this module breaks it into explicit stages —
//
//   Provision -> Meter -> Repair -> [Reconcile] -> Aggregate -> Assess
//
// — connected by a typed CampaignContext that carries each stage's
// artifacts to the next.  The decomposition is behavior-preserving by
// construction: stage boundaries fall on points where the historical code
// already handed one representation to the next (windows -> traces ->
// readings -> extrapolation), so RNG consumption order and every
// arithmetic expression are unchanged and results stay bit-identical at
// any thread count.
//
// Why stages?  The Meter slot is the only part that differs between
// execution modes.  In-process metering is one window-major lane driver
// for every tap — node lanes over the provisioned FleetState (fused
// shape-level kernel, per-node streaming kernel or eager truth source),
// rack-PDU and facility-feed lanes on the eager source, batch or live —
// and src/collect's asynchronous transport is the other way to fill
// `devices`/`readings`.  Making that slot explicit lets the async
// collector reuse the exact Repair/Aggregate/Assess tail
// (finalize_node_campaign is now a thin wrapper over those stages), and
// gives every mode the same per-stage
// observability: each stage records a StageTrace (items, samples,
// virtual time, deterministic counters, wall clock) surfaced through
// `powervar campaign --trace-stages` and the JSON assessment document.
//
// One deliberate asymmetry: sample-level repair (gap fill, despiking,
// stuck-run flagging) runs *inside* the Meter stage, per lane and window,
// because hoisting it out would require materializing every raw trace at
// once — the Repair stage consolidates the per-device tallies into the
// campaign's DataQuality and owns the repair accounting.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/campaign.hpp"
#include "core/plan.hpp"
#include "sim/fleet_state.hpp"
#include "util/cancel.hpp"

namespace pv {

/// One device's metered series after optional fault injection and repair —
/// the Meter stage's per-meter artifact, consolidated by Repair and (for
/// reconciling campaigns) cross-validated by Reconcile.
struct DeviceReading {
  bool lost = false;      ///< dead or below the coverage floor
  double mean_w = 0.0;    ///< per-window-averaged mean power
  double energy_j = 0.0;  ///< summed over metered windows
  // Per-device quality tallies (zero on the fault-free path).
  std::size_t samples_expected = 0;
  std::size_t samples_lost = 0;
  std::size_t samples_repaired = 0;
  std::size_t spikes_filtered = 0;
  std::size_t stuck_flagged = 0;
  /// Per-analysis-window means for cross-validation (empty unless the
  /// campaign reconciles); windows with no valid sample are NaN.
  std::vector<double> analysis_means_w;
};

/// Everything the stages share.  Inputs are non-owning (the caller keeps
/// them alive across run_pipeline); artifacts are owned and filled as the
/// pipeline advances.
struct CampaignContext {
  // --- inputs (set by the caller, never mutated by stages) --------------
  const ClusterPowerModel* cluster = nullptr;
  const SystemPowerModel* electrical = nullptr;
  const MeasurementPlan* plan = nullptr;
  /// Null for the tail-only path (finalize_node_campaign): Aggregate and
  /// Assess are pure functions of readings + dq and never look at it.
  const CampaignConfig* config = nullptr;
  /// Optional cooperative cancellation: run_pipeline consults it at
  /// every stage boundary (null = never cancelled).  Checking only at
  /// boundaries is what makes unwinding safe — between stages the
  /// context is consistent by construction, so a fired token throws out
  /// of run_pipeline without ever exposing a torn artifact.
  const CancelToken* cancel = nullptr;

  // --- Provision artifacts ----------------------------------------------
  Seconds interval{0.0};              ///< effective meter reporting interval
  std::vector<TimeWindow> windows;    ///< the windows the plan meters
  std::vector<TimeWindow> analysis;   ///< cross-validation grid (reconcile)
  bool faulty = false;                ///< fault injection enabled
  bool reconciling = false;           ///< byzantine defense enabled
  bool streaming = false;             ///< streaming probe accepted the model
  std::size_t samples_per_meter = 0;  ///< expected samples, any one meter
  std::vector<std::size_t> racks;     ///< racks metered (rack-PDU tap only)
  /// The node-tap cohort transposed to structure-of-arrays (null for the
  /// rack/facility taps, whose few lanes the Meter stage provisions
  /// itself): meter models + calibration columns, per-node noise streams,
  /// PSU curve lanes and fault flags, all in plan order.  Provision
  /// builds it (sharded over the fan-out pool); the Meter stage's lane
  /// driver keeps its per-lane state in columns beside it.  unique_ptr so
  /// the context stays cheap to default-construct for tail-only
  /// snapshots.
  std::unique_ptr<FleetState> fleet;

  // --- Meter artifacts ---------------------------------------------------
  /// One per meter, in plan order (nodes), rack order, or the single
  /// facility meter.  Tallies feed Repair; series feed Reconcile.
  std::vector<DeviceReading> devices;
  /// Collection-layer view of the same meters (node id, or rack id for
  /// the rack tap), already DC->AC corrected where the plan requires it.
  std::vector<NodeReading> readings;
  /// Nodes attributed to each rack reading (rack-PDU tap only).
  std::vector<std::size_t> rack_nodes_in;

  // --- output ------------------------------------------------------------
  CampaignResult result;

  [[nodiscard]] DataQuality& dq() { return result.data_quality; }
};

/// One pipeline stage.  run() reads/writes the context and fills its
/// trace's deterministic fields (items, samples, virtual_s, counters);
/// run_pipeline stamps the wall clock around it.
class CampaignStage {
 public:
  virtual ~CampaignStage() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  virtual void run(CampaignContext& ctx, StageTrace& trace) = 0;
};

using StagePtr = std::unique_ptr<CampaignStage>;

/// Derives the campaign's execution parameters: effective interval,
/// metered windows, the analysis grid, the streaming probe and the fleet
/// table (node taps), the rack list (rack tap) and meters_planned.
[[nodiscard]] StagePtr make_provision_stage();

/// The Meter stage of every tap: one window-major lane driver.  It walks
/// the metered windows in chunks (whole windows when faults are on or
/// the lanes are eager, config.live.chunk_samples samples otherwise),
/// fans each chunk out over lane ranges (bit-identical at any thread
/// count) and keeps per-lane state in columns, so memory is O(lanes +
/// chunk) at any campaign length.  Node taps meter the provisioned fleet
/// through the streaming kernels or, when the probe failed, the eager
/// truth; with config.live it also emits partial assessment Documents to
/// config.live_sink on the pinned virtual-time schedule, and the final
/// result is byte-identical to the batch run's.  The rack-PDU tap meters
/// one eager lane per rack containing a selected node (the reading is
/// later attributed evenly to the rack's nodes); the facility-feed tap
/// its single whole-feed meter, throwing NoUsableDataError when that
/// meter is forced dead — there is no fallback instrumentation at Level 3.
[[nodiscard]] StagePtr make_meter_stage();

/// Consolidates the per-device repair/quality tallies into DataQuality.
/// (Sample-level gap fill runs inside Meter, per lane — see the header
/// comment; this stage owns the accounting.)
[[nodiscard]] StagePtr make_repair_stage();

/// Byzantine defense: builds per-meter analysis series, cross-validates
/// them against the cohort and the meter hierarchy, quarantines convicted
/// meters and undoes exactly invertible unit errors.
[[nodiscard]] StagePtr make_reconcile_stage();

/// Excludes lost meters, extrapolates the survivors to the machine,
/// re-bases energy to the planned scope and computes the Eq. 1 CI
/// (dispatching on the plan's tap point).  Throws NoUsableDataError when
/// every meter was lost.
[[nodiscard]] StagePtr make_aggregate_stage();

/// Ground truth and relative error — the simulation-only assessment.
/// Uses the memoized integrand when the streaming probe held.
[[nodiscard]] StagePtr make_assess_stage();

/// The streaming engine's exact lowered-model probe: true when the first
/// planned node's DC truth bit-equals mean × shape_factor(t) at the
/// quarter points of the metered window and of the core window — i.e.
/// `electrical` is `cluster` lowered through make_system_power_model, so
/// the streaming kernels and the memoized ground truth return the eager
/// path's exact doubles.  A hand-built model fails it and stays eager.
/// ProvisionStage and the async collector both gate streaming on it.
[[nodiscard]] bool lowered_model_probe(const ClusterPowerModel& cluster,
                                       const SystemPowerModel& electrical,
                                       const MeasurementPlan& plan);

/// Assembles the full stage list run_campaign executes for `plan`:
/// Provision, Meter, Repair, Reconcile (node taps
/// with the defense enabled), Aggregate, Assess.  Exposed so callers —
/// the campaign service's chaos harness foremost — can decorate or
/// replace individual stages before running them.
[[nodiscard]] std::vector<StagePtr> make_campaign_stages(
    const MeasurementPlan& plan, const CampaignConfig& config);

/// Runs a caller-assembled stage list as run_campaign would: validates
/// the rig, wires the context and returns the result.  `cancel` (may be
/// null) is checked at every stage boundary; a fired token throws
/// CancelledError / DeadlineExceededError with no result produced.
[[nodiscard]] CampaignResult run_campaign_stages(
    const ClusterPowerModel& cluster, const SystemPowerModel& electrical,
    const MeasurementPlan& plan, const CampaignConfig& config,
    const std::vector<StagePtr>& stages, const CancelToken* cancel = nullptr);

/// Runs the stages in order, appending one StageTrace per stage (with
/// wall clock) to ctx.result.stage_traces.  Exceptions propagate.
/// Consults ctx.cancel (when set) before every stage and once after the
/// last — so a deadline spent *inside* a stage is still detected at the
/// next boundary, wherever that stage sits in the list.
void run_pipeline(const std::vector<StagePtr>& stages, CampaignContext& ctx);

}  // namespace pv
