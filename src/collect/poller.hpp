#pragma once
// Per-meter poller: drives one meter through the simulated transport with
// deadlines, capped exponential backoff and a circuit breaker, on a
// virtual clock.
//
// The poller fetches a meter's windows in *chunks* (a bounded span of
// trace per request — what a buffered PDU logger or PMDB-style collector
// actually returns per query).  A chunk becomes available once the data
// it covers has been produced, so virtual time also models the live poll
// schedule.  Failed chunks are retried with backoff until the chunk's
// attempt budget runs out; persistent failure trips the breaker, after
// which further chunks fast-fail for the cooldown — costing zero poll
// time — and the meter is probed again (half-open) when its cooldown
// passes.
//
// Chunk sample values come from an RNG stream keyed by (seed, meter,
// chunk), never from a sequential stream, so a retried or re-polled chunk
// yields bit-identical readings — duplicates deduplicate trivially and a
// resumed campaign reproduces an uninterrupted one exactly.

#include <cstdint>
#include <vector>

#include "collect/journal.hpp"
#include "collect/retry.hpp"
#include "collect/transport.hpp"
#include "meter/meter.hpp"
#include "meter/psu.hpp"
#include "sim/streaming.hpp"
#include "trace/time_series.hpp"

namespace pv {

/// Poll-loop tuning shared by every meter of a campaign.
struct PollerConfig {
  double timeout_s = 1.0;        ///< per-request deadline
  std::size_t max_attempts = 3;  ///< attempts per chunk, first included
  BackoffPolicy backoff;         ///< delay between a chunk's attempts
  BreakerConfig breaker;         ///< per-meter circuit breaker
  Seconds chunk_duration{60.0};  ///< trace seconds fetched per request
  /// Meters delivering less than this fraction of expected samples are
  /// declared lost and handed to the dead-meter degradation path.
  double min_coverage = 0.5;
};

/// One request's worth of trace.
struct PollChunk {
  TimeWindow window;             ///< the chunk's samples, [begin, end)
  std::size_t window_index = 0;  ///< which plan window it belongs to
  std::size_t samples = 0;       ///< readings the chunk covers
  double avail_s = 0.0;  ///< virtual time the data exists (chunk end)
};

/// The chunk layout every meter of a campaign is polled in: each plan
/// window's samples (the MeterModel::samples_in count at `interval`) cut
/// into runs of floor(chunk_duration / interval) readings, at least one,
/// the last run of a window possibly partial.  Chunk i of a window starts
/// at w.begin + interval * first, with `first` the window-local index of
/// its first sample.  poll_meter and the collector's per-chunk shape
/// tables both derive their layout here, so table ci describes chunk ci.
[[nodiscard]] std::vector<PollChunk> poll_chunk_layout(
    const std::vector<TimeWindow>& windows, TimeWindow campaign_window,
    Seconds interval, Seconds chunk_duration);

/// One meter's polling assignment.
struct PollJob {
  std::size_t meter_id = 0;  ///< node id; also the RNG stream key
  const MeterModel* meter = nullptr;
  PowerFunction truth;                ///< ground truth behind the meter
  std::vector<TimeWindow> windows;    ///< the plan's metered windows
  TimeWindow campaign_window;         ///< full plan window (clock origin)
  std::uint64_t seed = 0;             ///< campaign seed

  // --- streaming replies (optional) --------------------------------------
  /// One shape table per poll_chunk_layout chunk, each built over the
  /// chunk window as a window of its own (sample i at chunk.begin + dt·i,
  /// as measure_into computes it) and shared by every meter.  Set, chunk
  /// replies come from stream_node_window instead of walking `truth` —
  /// bit-identical readings and noise draws (sim/streaming.hpp).
  const std::vector<ShapeTable>* tables = nullptr;
  double mean_w = 0.0;  ///< the node's mean DC draw
  const CompiledPsuCurve* curve = nullptr;  ///< node PSU; null = DC tap
  StreamScratch* scratch = nullptr;  ///< the polling worker's buffers
};

/// Runs the full poll loop for one meter.  Deterministic per (seed,
/// meter): thread interleaving, prior crashes and resume cannot change
/// the outcome.  The returned record's reading carries continuous-timing
/// energy; the collector applies spot-timing and DC-conversion policy.
[[nodiscard]] MeterRecord poll_meter(const PollJob& job,
                                     const SimTransport& transport,
                                     const PollerConfig& config);

}  // namespace pv
