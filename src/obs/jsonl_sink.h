// The one sink behind every labeled JSONL output (timeline, reqtrace,
// kernprof — DESIGN.md §12–14): a process-wide, sorted-by-label map of
// finished JSONL blocks plus the env knob that names its output file; and
// the one cadence knob type the timeline and kernprof outputs share.
//
// Determinism: each simulation (grid point, fleet, kernel run) records its
// block under a deterministic label; write_file() emits the blocks in sorted
// label order, each behind a {"type":"run","label":...} line. Pool workers
// finishing points in any order therefore produce the same bytes at every
// VLACNN_THREADS — the property the ci.sh `cmp` gates check.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace vlacnn::obs {

class LabeledJsonlSink {
 public:
  /// `kind` names the output in messages ("timeline"); `knob` is the env var
  /// that names its file; `env_path` is that variable's value at first use
  /// (nullptr = unset). The per-kind accessors (timeline_sink() etc.) build
  /// their instance on first call, so the knob is parsed lazily, once, and
  /// never destroy it: record() registers the sink for the exit write, so a
  /// sink that records must live until the process exits.
  LabeledJsonlSink(std::string kind, std::string knob, const char* env_path);

  /// True when an output path is set (by the knob or set_path()). Hot-path
  /// gate: one relaxed load.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// The JSONL output path ("" when disabled).
  std::string path() const;

  /// Programmatic override of the knob (tests, CLI flags). "" disables.
  void set_path(const std::string& path);

  /// Buffer one simulation's JSONL block under `label` (last write wins — by
  /// the determinism guarantee concurrent writers for a label carry identical
  /// bytes). Arms the exit write on first use.
  void record(const std::string& label, std::string jsonl);

  /// "run000001", "run000002", ... for callers without a natural label.
  /// Deterministic only for serial callers; parallel drivers must label.
  std::string next_auto_label();

  /// Write every block to path() in sorted label order; returns the path.
  /// Throws std::runtime_error when disabled or on I/O failure.
  std::string write_file();

  std::size_t block_count() const;
  void reset();  ///< drop all blocks and the auto-label counter (tests)

 private:
  const std::string kind_;
  const std::string knob_;
  mutable std::mutex mu_;
  std::string path_;
  std::atomic<bool> enabled_{false};
  std::map<std::string, std::string> blocks_;
  std::uint64_t auto_seq_ = 0;
  std::once_flag exit_armed_;
};

/// A cadence in simulated cycles read from an env knob
/// (VLACNN_TIMELINE_INTERVAL, VLACNN_KERNPROF_INTERVAL). Default 1e6. The
/// knob is read on first use and again on each use until it parses, strictly:
/// a malformed, non-finite or non-positive value throws std::runtime_error —
/// a typo must not silently change what a run was meant to collect.
class IntervalKnob {
 public:
  /// `read_env` returns the knob's current value (nullptr = unset).
  IntervalKnob(const char* knob, const char* (*read_env)());

  double cycles();
  /// True when the cadence was chosen explicitly (the knob or set()).
  bool overridden();
  /// Programmatic override (tests). Throws std::invalid_argument unless
  /// `cycles` is positive and finite.
  void set(double cycles);

 private:
  void parse_locked();

  const char* const knob_;
  const char* (*const read_env_)();
  std::mutex mu_;
  bool parsed_ = false;
  double cycles_ = 1e6;
  bool overridden_ = false;
};

}  // namespace vlacnn::obs
