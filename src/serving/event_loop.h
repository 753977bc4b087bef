// Internal to src/serving: the one discrete-event serving loop (DESIGN.md
// §10, §15). simulate_requests, simulate_requests_no_obs and simulate_fleet
// validate their configs, build the inputs below, call run_event_loop, and
// sink any recorders they own afterwards; simulate_requests is the one-chip,
// one-model, zero-hop case.
#pragma once

#include <vector>

#include "serving/fleet.h"

namespace vlacnn::obs {
class TimelineRecorder;
class RequestTraceRecorder;
}  // namespace vlacnn::obs

namespace vlacnn::serving::detail {

/// One (chip, model) queue's batching policy and service model (not owned).
/// Both null when the chip does not host the model; both set otherwise.
struct LoopQueue {
  BatchingPolicy* policy = nullptr;
  ServiceModel* service = nullptr;
};

struct LoopChip {
  int instances = 1;
  std::vector<LoopQueue> queues;  ///< indexed by model id
  obs::TimelineRecorder* timeline = nullptr;  ///< caller-owned; null = off
};

/// Everything the loop reads. The caller has validated it: every chip has
/// >= 1 instance and one queue per model, every model has a host, the mix
/// passes FleetTrafficMix::pick's rule, and the hop is finite and >= 0.
struct LoopInputs {
  std::vector<LoopChip> chips;
  /// Ascending hosting chips per model id; consulted only with > 1 chip.
  std::vector<std::vector<int>> hosts;
  const FleetTrafficMix* mix = nullptr;  ///< consulted only with > 1 model
  FleetRouter* router = nullptr;         ///< consulted only with > 1 chip
  std::size_t queue_capacity = 0;        ///< per-chip waiting room; 0 = none
  double slo_cycles = 0;
  double hop = 0;
  obs::RequestTraceRecorder* reqtrace = nullptr;  ///< caller-owned; null = off
  /// True for simulate_fleet. Fleet traces carry the serving chip and the
  /// hop span, and the on-chip wait is split into queue and formation
  /// around its exact-split value. Single-chip runs (false) stamp chip -1 and
  /// split around the raw dispatch - arrival difference. The two splits can
  /// differ in the last bits when the wait is under half the latency; each
  /// entry point keeps its historical bytes.
  bool fleet = false;
  std::vector<RequestRecord>* request_log = nullptr;
  std::vector<FleetRequestRecord>* fleet_log = nullptr;
};

/// Run the loop to exhaustion (see fleet.h for the determinism contract).
/// kObs = false compiles out every observability hook — recorders, metrics,
/// trace events — so the no-obs twin is a real baseline; the stats and the
/// request logs are product output and identical in both. Returns the fleet,
/// per-chip and per-model stats; names, chip labels and areas are the
/// caller's to fill. Recorders are finished; sinking them is the caller's.
template <bool kObs>
FleetStats run_event_loop(const LoopInputs& in, ArrivalProcess& arrivals);

}  // namespace vlacnn::serving::detail
