// Kernel-profile (simulated PMU) emission for the timing model (DESIGN.md
// §14): when VLACNN_KERNPROF names an output file, every simulated
// convolution point attaches a Pmu (vpu/pmu.h) and records one JSONL block
// here — a "kernel" header with the grid-point identity and aggregate cycle
// split, one "phase" line per annotated algorithm phase (exact Sterbenz cycle
// partition + raw counter deltas), and one "window" line per PMU counter
// window (occupancy split, avg VL, lane utilization, L1/L2 miss rates, DRAM
// bytes/cycle — the miss-rate *trajectory* over the kernel's lifetime).
//
// Knobs, gated like VLACNN_TIMELINE (lazy parse, then one relaxed load):
//   VLACNN_KERNPROF=<file.jsonl>      enable and name the output file
//   VLACNN_KERNPROF_INTERVAL=<cycles> window cadence (default 1e6; > 0;
//                                     malformed values throw). Pinning the
//                                     interval also disables the PMU's
//                                     window auto-coarsening.
//
// This header is deliberately vpu-agnostic (plain strings and doubles): the
// obs layer sits at the bottom of the include order, so the simulation driver
// (algos/registry) converts Pmu state into these records. The process-wide
// kernprof_sink() (obs/jsonl_sink.h) buffers one block per labeled grid point
// in a sorted map and writes them in label order at exit, so a parallel sweep
// emits the same bytes as a serial one at any VLACNN_THREADS.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/jsonl_sink.h"

namespace vlacnn::obs {

// -- env knobs ----------------------------------------------------------------

/// The kernel-profile sink. VLACNN_KERNPROF names its output file;
/// set_path() is the programmatic override (tests).
LabeledJsonlSink& kernprof_sink();

/// The PMU window cadence, VLACNN_KERNPROF_INTERVAL (default 1e6 simulated
/// cycles; malformed values throw — a typo must not silently change a run's
/// trajectory resolution). When overridden(), the PMU keeps the cadence
/// pinned instead of auto-coarsening.
IntervalKnob& kernprof_interval();

// -- profile records ----------------------------------------------------------

/// One annotated phase of one kernel run. `cycles` is the phase's share of
/// the exact Sterbenz partition (the per-run phase cycles fold right-to-left
/// to the kernel's aggregate cycles bit for bit); the remaining fields are
/// raw counter deltas accumulated over the phase's visits.
struct KernProfPhase {
  std::string name;
  double cycles = 0;
  double raw_cycles = 0;
  double compute_cycles = 0;
  double mem_issue_cycles = 0;
  double mem_stall_cycles = 0;
  double scalar_cycles = 0;
  double vec_instructions = 0;
  double vec_elems = 0;
  double avg_vl = 0;
  double flops = 0;
  double l1_accesses = 0;
  double l1_misses = 0;
  double l2_accesses = 0;
  double l2_misses = 0;
  double mem_bytes = 0;
};

/// One counter window [t_start, t_end) of one kernel run. Derived rates are
/// precomputed by the driver so the record is renderer-ready.
struct KernProfWindow {
  double t_start = 0;
  double t_end = 0;
  double compute_cycles = 0;
  double mem_issue_cycles = 0;
  double mem_stall_cycles = 0;
  double scalar_cycles = 0;
  double avg_vl = 0;
  double lane_utilization = 0;
  double l1_miss_rate = 0;
  double l2_miss_rate = 0;
  double dram_bytes_per_cycle = 0;
  double mem_bytes = 0;
};

/// One simulated grid point's complete kernel profile.
struct KernProfRun {
  std::string label;   ///< sink key; the sweep's entry-key grid-point label
  std::string net;     ///< "" when the point was simulated outside a network
  int layer = -1;
  std::string algo;
  std::uint32_t vlen_bits = 0;
  std::uint64_t l2_bytes = 0;
  std::uint32_t lanes = 0;
  std::string attach;  ///< "int" or "dec"
  double interval_cycles = 0;  ///< effective window cadence (post-coarsening)
  double cycles = 0;
  double compute_cycles = 0;
  double mem_issue_cycles = 0;
  double mem_stall_cycles = 0;
  double scalar_cycles = 0;
  std::vector<KernProfPhase> phases;
  std::vector<KernProfWindow> windows;

  /// The JSONL block: one "kernel" line, then "phase" and "window" lines.
  /// Byte-stable: fixed key order, %.17g numbers.
  std::string to_jsonl() const;
};

}  // namespace vlacnn::obs
