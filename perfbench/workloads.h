// The benchmark's three workloads and its traced pass.
//
// Every workload drives the library only through public calls and checks the
// outputs it gets back. Timings are collected raw; run.py reduces them to the
// reported medians and percentiles (perfbench/stats.py).
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

/// What one invocation measured: raw samples keyed by metric name, exact
/// values, and the correctness tally.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;

  /// Count one checked operation; a false `ok` is a failure named `what`.
  void check(bool ok, const std::string& what);
  void sample(const std::string& name, double v) { samples[name].push_back(v); }
};

struct Context {
  std::filesystem::path cache;    ///< committed results/sweep_cache.csv
  std::filesystem::path scratch;  ///< private temp dir, removed at exit
  std::uint64_t seed = 1;
  double seconds = 10;
  unsigned threads = 4;
};

/// Timed (untraced) runs. Each appends setup_s, round_wall_s and round_cpu_s
/// samples plus its workload-specific samples to `out`.
void run_sweep_cold(const Context& ctx, Report& out);
void run_serve_loop(const Context& ctx, Report& out);
void run_plan_warm(const Context& ctx, Report& out);

/// The traced run: a fixed-size traced pass over all three workloads, with a
/// span around every library call, producing every per-layer metric. Then one
/// untraced round of `workload` for the tracing-overhead comparison.
void run_traced(const Context& ctx, const std::string& workload,
                SpanLog& spans, Report& out);

/// Host clocks.
double wall_s();
double cpu_s();  ///< process CPU time, all threads

}  // namespace perfbench
