// vlacnn benchmark driver. Normally launched by run.py, which builds it and
// reduces its raw output to the reported metrics:
//
//   perfbench --workload <sweep_cold|serve_loop|plan_warm> --seed <n>
//             --seconds <s> --trace <0|1> --cache <results/sweep_cache.csv>
//             --out <dir for scratch files and spans>
//
// Stdout is one JSON object with the raw samples, exact values, correctness
// tally and provenance. Exit status: 0 when every check passed, 1 when a
// check failed, 2 on a usage error, when an output knob is set or when
// REPRO_EXACT is on.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "spans.h"
#include "sweep/sweep.h"
#include "workloads.h"

namespace {

using perfbench::Report;

/// Library knobs that arm extra outputs; the benchmark must measure the
/// library with all of them off, so it refuses to run when any is set.
const char* kOutputKnobs[] = {"VLACNN_METRICS",  "VLACNN_TRACE",
                              "VLACNN_REPORT",   "VLACNN_TIMELINE",
                              "VLACNN_REQTRACE", "VLACNN_KERNPROF"};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string to_json(const Report& r, const std::string& provenance) {
  std::string out = "{\"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    out += (i ? ", " : "") + json_string(r.failures[i]);
  }
  out += "], \"samples\": {";
  bool first = true;
  for (const auto& [name, v] : r.samples) {
    out += (first ? "" : ", ") + json_string(name) + ": [";
    for (std::size_t i = 0; i < v.size(); ++i) {
      out += (i ? ", " : "") + json_number(v[i]);
    }
    out += "]";
    first = false;
  }
  out += "}, \"values\": {";
  first = true;
  for (const auto& [name, v] : r.values) {
    out += (first ? "" : ", ") + json_string(name) + ": " + json_number(v);
    first = false;
  }
  return out + "}, \"provenance\": " + provenance + "}";
}

int usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload sweep_cold|serve_loop|plan_warm "
               "--seed N --seconds S --trace 0|1 --cache FILE --out DIR\n",
               argv0, why.c_str(), argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string cache;
  std::string out_dir;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) return usage(argv[0], "missing value for " + a);
      const std::string v = argv[++i];
      if (a == "--workload") {
        workload = v;
      } else if (a == "--seed") {
        seed = std::stoll(v);
      } else if (a == "--seconds") {
        seconds = std::stod(v);
      } else if (a == "--trace") {
        trace = std::stoi(v);
      } else if (a == "--cache") {
        cache = v;
      } else if (a == "--out") {
        out_dir = v;
      } else {
        return usage(argv[0], "unknown argument " + a);
      }
    }
  } catch (const std::exception&) {
    return usage(argv[0], "malformed number");
  }
  if (workload != "sweep_cold" && workload != "serve_loop" &&
      workload != "plan_warm") {
    return usage(argv[0], "unknown workload '" + workload + "'");
  }
  if (seed < 0 || !(seconds > 0) || (trace != 0 && trace != 1) ||
      out_dir.empty()) {
    return usage(argv[0], "--seed, --seconds, --trace and --out are required");
  }
  for (const char* knob : kOutputKnobs) {
    if (std::getenv(knob) != nullptr) {
      return usage(argv[0], std::string(knob) + " is set; unset every " +
                                "output knob to benchmark");
    }
  }
  if (!std::filesystem::is_regular_file(cache)) {
    std::fprintf(stderr, "%s: committed cache %s not found\n", argv[0],
                 cache.c_str());
    return 2;
  }

  // At most four threads, whatever the host has: the shared pool reads
  // VLACNN_THREADS on first use, which is below. The timed plan_warm run is
  // one client on one thread: its queries fan out only short simulations
  // and warm lookups, and on a shared host a fanned-out query's wall time
  // is set by whichever helper was descheduled last.
  const unsigned nproc = std::thread::hardware_concurrency();
  const unsigned cap = trace == 0 && workload == "plan_warm" ? 1u : 4u;
  const unsigned threads = nproc == 0 ? 1 : std::min(cap, nproc);
  setenv("VLACNN_THREADS", std::to_string(threads).c_str(), 1);
  // The committed cache holds sampled-mode results, so an exact-mode run
  // could never reproduce it (and would run far longer).
  const char* exact = std::getenv("REPRO_EXACT");
  try {
    if (vlacnn::repro_exact_mode()) {
      return usage(argv[0],
                   "REPRO_EXACT is on; the committed cache is sampled");
    }
  } catch (const std::exception& e) {
    return usage(argv[0], e.what());
  }

  perfbench::Context ctx;
  ctx.cache = cache;
  ctx.scratch = std::filesystem::path(out_dir) /
                ("scratch-" + std::to_string(getpid()));
  ctx.seed = static_cast<std::uint64_t>(seed);
  ctx.seconds = seconds;
  ctx.threads = threads;

  Report report;
  perfbench::SpanLog spans;
  const std::string spans_path =
      (std::filesystem::path(out_dir) /
       ("spans-" + workload + "-seed" + std::to_string(seed) + ".jsonl"))
          .string();
  int status = 0;
  try {
    std::filesystem::remove_all(ctx.scratch);
    std::filesystem::create_directories(ctx.scratch);
    if (trace == 1) {
      perfbench::run_traced(ctx, workload, spans, report);
      std::ofstream(spans_path) << spans.to_jsonl();
    } else if (workload == "sweep_cold") {
      perfbench::run_sweep_cold(ctx, report);
    } else if (workload == "serve_loop") {
      perfbench::run_serve_loop(ctx, report);
    } else {
      perfbench::run_plan_warm(ctx, report);
    }
  } catch (const std::exception& e) {
    report.check(false, std::string("exception: ") + e.what());
    status = 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(ctx.scratch, ec);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  report.values["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;

  const std::string provenance =
      "{\"compiler\": " + json_string(PERFBENCH_COMPILER) +
      ", \"flags\": " + json_string(PERFBENCH_FLAGS) +
      ", \"nproc\": " + std::to_string(nproc) +
      ", \"threads\": " + std::to_string(threads) +
      ", \"repro_exact\": " + json_string(exact ? exact : "(unset)") +
      ", \"seed\": " + std::to_string(seed) +
      ", \"spans\": " + json_string(trace == 1 ? spans_path : "") + "}";
  std::printf("%s\n", to_json(report, provenance).c_str());
  if (report.failed > 0) status = 1;
  return status;
}
