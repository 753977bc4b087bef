// Time-resolved serving telemetry (DESIGN.md §12): a simulated-clock timeline
// recorder that the request-level serving simulator drives, turning one run's
// end-of-run aggregates into periodic snapshots of queue depth, drops,
// in-flight batches, utilization, arrival/completion rates, a rolling p99
// from a deterministic quantile sketch (obs/sketch.h), and SLO burn-rate /
// error-budget tracking with threshold-crossing alert events.
//
// Knobs, gated like VLACNN_METRICS (lazy parse, then one relaxed load):
//   VLACNN_TIMELINE=<file.jsonl>     enable and name the output file
//   VLACNN_TIMELINE_INTERVAL=<cyc>   snapshot cadence in cycles (default 1e6;
//                                    a malformed or non-positive value throws)
//
// Units: everything is simulated **cycles** — the recorder never reads a wall
// clock, so a timeline is byte-identical across runs and VLACNN_THREADS. The
// process-wide timeline_sink() (obs/jsonl_sink.h) buffers one JSONL block per
// labeled simulation in a sorted map and writes them in label order at exit,
// mirroring report::Collector's determinism strategy: a parallel
// capacity-planner run emits the same bytes as a serial one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/jsonl_sink.h"
#include "obs/sketch.h"

namespace vlacnn::obs {

// -- env knobs ----------------------------------------------------------------

/// The timeline sink. VLACNN_TIMELINE names its output file; set_path() is
/// the programmatic override (tests, --timeline CLI flag).
LabeledJsonlSink& timeline_sink();

/// The snapshot cadence, VLACNN_TIMELINE_INTERVAL (default 1e6 cycles;
/// malformed values throw — a typo must not silently distort the timeline a
/// run was meant to collect). When not overridden(), drivers with long
/// simulated horizons are free to coarsen the default cadence so a low-rate
/// run cannot buffer millions of snapshot lines (the capacity planner
/// targets a bounded snapshot count per grid point).
IntervalKnob& timeline_interval();

// -- recorder -----------------------------------------------------------------

struct TimelineConfig {
  double interval_cycles = 1e6;     ///< snapshot cadence
  std::size_t rolling_window = 8;   ///< intervals merged for rolling p99 / burn
  double sketch_relative_error = 0.01;
  double slo_cycles = 0;            ///< 0 disables burn-rate tracking
  double attainment_target = 0.99;  ///< error budget = 1 - target
  double alert_threshold = 1.0;     ///< long-window burn rate that trips alerts
  int instances = 1;                ///< for utilization normalization
};

/// One interval's snapshot. Counts are per interval; *_rate fields are
/// count / (t_end - t_start); depth/in_flight are instantaneous at t_end;
/// mean_queue and utilization are time-weighted over the interval.
struct TimelineSnapshot {
  double t_start = 0, t_end = 0;  ///< cycles; the last interval may be partial
  std::uint64_t arrivals = 0;     ///< accepted into the queue
  std::uint64_t drops = 0;        ///< rejected at the queue bound
  std::uint64_t dispatches = 0;   ///< batches started
  std::uint64_t completions = 0;  ///< requests finished
  std::uint64_t queue_depth = 0;  ///< at t_end
  int in_flight = 0;              ///< busy instances at t_end
  double mean_queue = 0;          ///< time-weighted depth over the interval
  double utilization = 0;         ///< busy instance-cycles / (instances * dt)
  double arrival_rate = 0;        ///< accepted arrivals per cycle
  double completion_rate = 0;     ///< completions per cycle
  double rolling_p99 = 0;         ///< sketch bound over the rolling window
  std::uint64_t rolling_count = 0;  ///< latencies inside that window
  double burn_short = 0;          ///< this interval's burn rate
  double burn_long = 0;           ///< rolling-window burn rate
  bool alert = false;             ///< alert state after this interval
  std::uint64_t cum_offered = 0, cum_completed = 0, cum_dropped = 0;

  std::string to_json() const;  ///< one JSONL line, fixed key order
};

/// A burn-rate threshold crossing. kind is "alert" (long-window burn rate
/// reached the threshold) or "clear" (it fell back below).
struct TimelineAlert {
  double t = 0;           ///< the interval boundary that crossed
  bool raised = false;    ///< true = alert, false = clear
  double burn_rate = 0;   ///< the long-window burn rate at the crossing

  std::string to_json() const;
};

/// Single-simulation recorder. The event loop calls the on_*() hooks in
/// simulated-time order; each hook first advances interval boundaries up to
/// its timestamp (emitting snapshots) and then applies the event, so an event
/// exactly on a boundary lands in the *next* interval. Not thread-safe: one
/// recorder per simulation, like the arrival process.
///
/// Burn-rate semantics: both offered and missed are counted when a request
/// *resolves* (completes or is dropped), so an interval's burn rate is
/// missed-over-resolved within that interval —
///   burn = (missed / resolved) / (1 - attainment_target),
/// 0 when nothing resolved. burn == 1 means the error budget is being spent
/// exactly at the sustainable rate; alert events fire when the rolling-window
/// burn crosses cfg.alert_threshold (drops always count as missed).
class TimelineRecorder {
 public:
  explicit TimelineRecorder(const TimelineConfig& cfg);

  void on_arrival(double t);                 ///< request accepted into queue
  void on_drop(double t);                    ///< request rejected (queue full)
  void on_dispatch(double t, int batch);     ///< batch started on an instance
  void on_completion(double t, double latency_cycles, bool within_slo);
  void on_batch_done(double t);              ///< the dispatching instance freed

  /// Flush the trailing (possibly partial) interval. Idempotent; must be the
  /// last call. `t` is the simulation's final timestamp (stats makespan).
  /// When `t` lands exactly on a boundary the zero-width trailing interval is
  /// skipped unless events landed exactly at `t` (those are applied after the
  /// boundary closes, so they flush as a zero-width snapshot).
  void finish(double t);

  const TimelineConfig& config() const { return cfg_; }
  const std::vector<TimelineSnapshot>& snapshots() const { return snapshots_; }
  const std::vector<TimelineAlert>& alerts() const { return alerts_; }

  /// The full JSONL block: one header line, then snapshot and alert lines
  /// merged in time order (alerts directly after the snapshot that tripped
  /// them). Byte-stable: fixed key order, %.17g numbers.
  std::string to_jsonl() const;

 private:
  void integrate_to(double t);
  void advance(double t);
  void close_interval(double boundary, bool final_flush);

  TimelineConfig cfg_;
  double now_ = 0;
  double interval_start_ = 0;
  bool finished_ = false;

  // live state
  std::uint64_t queue_depth_ = 0;
  int in_flight_ = 0;

  // current-interval accumulators
  std::uint64_t iv_arrivals_ = 0, iv_drops_ = 0, iv_dispatches_ = 0,
                iv_completions_ = 0;
  std::uint64_t iv_resolved_ = 0, iv_missed_ = 0;
  double iv_queue_area_ = 0, iv_busy_area_ = 0;

  // cumulative
  std::uint64_t cum_offered_ = 0, cum_completed_ = 0, cum_dropped_ = 0;

  SlidingQuantile rolling_;
  /// (resolved, missed) per closed interval, newest at back; bounded by the
  /// rolling window.
  std::deque<std::pair<std::uint64_t, std::uint64_t>> burn_window_;
  bool alerting_ = false;

  std::vector<TimelineSnapshot> snapshots_;
  std::vector<TimelineAlert> alerts_;
};

/// Build the default recorder config for a simulation: interval from the env
/// knob, SLO/attainment from the caller. instances normalizes utilization.
TimelineConfig default_timeline_config(int instances, double slo_cycles);

// -- steady-state analysis ----------------------------------------------------

/// Warm-up detection + steady-state windowing + burn summary over one
/// recorded timeline — shared by the planner's report cell and the
/// `vlacnn-report timeline` renderer.
struct TimelineAnalysis {
  std::size_t warmup_snapshots = 0;  ///< snapshots before steady state
  double warmup_end_cycles = 0;      ///< t_end of the last warm-up snapshot
  double steady_arrival_rate = 0;    ///< means over the steady-state window
  double steady_completion_rate = 0;
  double steady_utilization = 0;
  double steady_mean_queue = 0;
  double final_rolling_p99 = 0;
  double max_burn_rate = 0;          ///< max long-window burn anywhere
  std::uint64_t alert_count = 0;     ///< raised alerts (clears not counted)
  double time_in_alert_cycles = 0;
};

/// Steady state starts at the first snapshot whose rolling p99 is within
/// `tolerance` (relative) of the final snapshot's rolling p99 — before that
/// the latency distribution is still filling in. An empty timeline yields a
/// default-constructed analysis.
TimelineAnalysis analyze_timeline(const std::vector<TimelineSnapshot>& snaps,
                                  const std::vector<TimelineAlert>& alerts,
                                  double tolerance = 0.10);

}  // namespace vlacnn::obs
