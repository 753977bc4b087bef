// vlacnn-capacity: SLO capacity planner over the Fig-12 co-location grid.
//
//   vlacnn-capacity --net vgg16 --load 2000rps --slo 50ms
//
// Simulates every feasible (cores x vlen x shared-L2 x instances)
// configuration under seeded Poisson traffic with the request-level
// discrete-event simulator (DESIGN.md §10) and reports the cheapest chip
// (7 nm area) that meets the latency SLO at the offered load.
//
// Flags:
//   --net vgg16|yolo20        network (default vgg16)
//   --load N[rps]             offered Poisson load, requests/s (default 1000)
//   --slo N[ms]               latency deadline, milliseconds (default 50)
//   --attainment F            required fraction inside the SLO (default 0.99)
//   --requests N              simulated requests per grid point (default 2000)
//   --seed N                  arrival-process seed (default 42)
//   --policy nobatch|maxbatch|adaptive   batching policy (default adaptive)
//   --max-batch N             policy batch bound (default 8)
//   --flush-ms F              adaptive flush timeout, ms (default 1)
//   --queue N                 queue bound, 0 = unbounded (default 0)
//   --area-budget F           max chip area mm2, 0 = unbounded (default 0)
//   --dispatch MODE           per-layer algorithm selection: oracle (default,
//                             per-layer-optimal sweep rows), learned (train
//                             the paper's random forest on this net and run
//                             it in the request loop with its inference cost
//                             charged), or fixed:<algo> (one algorithm
//                             everywhere, gemm6 fallback)
//   --dispatch-cycles N       learned mode: selector cycles charged per image
//                             per layer (default from bench_dispatch_overhead
//                             calibration; env override VLACNN_DISPATCH_CYCLES)
//   --json FILE               also write the full candidate list as JSON;
//                             byte-stable across runs and VLACNN_THREADS
//   --timeline FILE           record a per-grid-point serving timeline to
//                             FILE as JSONL (same as VLACNN_TIMELINE=FILE;
//                             cadence via VLACNN_TIMELINE_INTERVAL). Inspect
//                             with `vlacnn-report timeline FILE`. Byte-stable
//                             across runs and VLACNN_THREADS.
//   --reqtrace FILE           record per-request traces (tail-sampled; see
//                             VLACNN_REQTRACE_TOPK / VLACNN_REQTRACE_HEAD)
//                             per grid point to FILE as JSONL (same as
//                             VLACNN_REQTRACE=FILE). Inspect with
//                             `vlacnn-report requests FILE`. Byte-stable
//                             across runs and VLACNN_THREADS.
//
// Fleet mode (DESIGN.md §15):
//
//   vlacnn-capacity fleet --mix vgg16=0.7,yolo20=0.3 --load 3000 --slo 60ms
//
// Searches multi-chip fleet compositions (chip types drawn from the
// area/throughput Pareto frontier, up to --max-chips chips) for the cheapest
// total silicon that carries the mixed Poisson load inside the SLO, routed by
// a pluggable front-end policy. Fleet-only flags:
//   --mix NAME=W[,NAME=W...]  traffic mix over vgg16/yolo20 with positive
//                             weights (default vgg16=0.7,yolo20=0.3)
//   --router rr|jsq|p2c       routing policy (default jsq)
//   --fleet-seed N            router seed (default VLACNN_FLEET_SEED, else 1)
//   --hop N                   constant front-end hop, cycles (default 0)
//   --max-chips N             largest fleet size searched (default 4)
//   --chip-types N            Pareto menu size (default 5)
// Shared flags (--load/--slo/--attainment/--requests/--seed/--policy/
// --max-batch/--flush-ms/--queue/--area-budget/--json/--timeline/--reqtrace)
// keep their single-chip meaning; --json emits a vlacnn.fleet.v1 document,
// byte-identical across runs and VLACNN_THREADS.
//
// Exit codes: 0 = a configuration meets the SLO, 1 = infeasible (or another
// runtime failure), 2 = usage error (bad flag/value; usage goes to stderr).
//
// The sweep cache (results/sweep_cache.csv, override REPRO_RESULTS_DIR) makes
// warm runs fast; a cold run simulates the grid points it needs first.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "dispatch/learned_dispatcher.h"
#include "ml/dataset.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "obs/timeline.h"
#include "ml/random_forest.h"
#include "net/models.h"
#include "report/collector.h"
#include "report/json.h"
#include "serving/fleet_planner.h"
#include "serving/request_sim.h"
#include "sweep/results_db.h"
#include "sweep/sweep.h"

using namespace vlacnn;
using namespace vlacnn::serving;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--net vgg16|yolo20] [--load N[rps]] [--slo N[ms]]\n"
               "          [--attainment F] [--requests N] [--seed N]\n"
               "          [--policy nobatch|maxbatch|adaptive] [--max-batch N]\n"
               "          [--flush-ms F] [--queue N] [--area-budget F]\n"
               "          [--dispatch oracle|learned|fixed:<algo>]\n"
               "          [--dispatch-cycles N] [--json FILE] "
               "[--timeline FILE]\n"
               "          [--reqtrace FILE]\n",
               argv0);
  return 2;
}

/// Parse "2000rps" / "2000" / "50ms" / "50": a positive number with an
/// optional unit suffix that must match `unit` exactly when present.
double suffixed(const char* flag, const char* value, const char* unit) {
  std::size_t pos = 0;
  double v = 0;
  try {
    v = std::stod(value, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  const std::string rest = std::string(value).substr(pos);
  if (pos == 0 || (!rest.empty() && rest != unit) || !(v > 0)) {
    throw std::runtime_error(std::string(flag) + " expects a positive number" +
                             " (optionally suffixed '" + unit + "'), got '" +
                             value + "'");
  }
  return v;
}

std::string point_json(const ServingPoint& p) {
  std::string out = "{";
  out += "\"cores\": " + std::to_string(p.cores);
  out += ", \"vlen_bits\": " + std::to_string(p.vlen_bits);
  out += ", \"l2_total_bytes\": " + std::to_string(p.l2_total_bytes);
  out += ", \"instances\": " + std::to_string(p.instances);
  out += "}";
  return out;
}

std::string candidate_json(const CapacityCandidate& c) {
  using report::json_number;
  std::string out = "{";
  out += "\"point\": " + point_json(c.eval.point);
  out += ", \"area_mm2\": " + json_number(c.eval.area_mm2);
  out += ", \"cycles_per_image\": " + json_number(c.eval.cycles_per_image);
  out += ", \"meets_slo\": " + std::string(c.meets_slo ? "true" : "false");
  out += ", \"stats\": " + c.stats.to_json();
  out += "}";
  return out;
}

int fleet_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s fleet [--mix NAME=W[,NAME=W...]] [--load N[rps]]\n"
               "          [--slo N[ms]] [--attainment F] [--requests N]\n"
               "          [--seed N] [--router rr|jsq|p2c] [--fleet-seed N]\n"
               "          [--hop N] [--max-chips N] [--chip-types N]\n"
               "          [--policy nobatch|maxbatch|adaptive] [--max-batch N]\n"
               "          [--flush-ms F] [--queue N] [--area-budget F]\n"
               "          [--json FILE] [--timeline FILE] [--reqtrace FILE]\n",
               argv0);
  return 2;
}

/// Parse "vgg16=0.7,yolo20=0.3" into a FleetTrafficMix (names + weights;
/// normalization happens in the mix itself). Throws on anything malformed.
serving::FleetTrafficMix parse_mix(const std::string& text) {
  serving::FleetTrafficMix mix;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string term = text.substr(pos, comma - pos);
    const std::size_t eq = term.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= term.size()) {
      throw std::runtime_error("--mix expects NAME=WEIGHT terms, got '" +
                               term + "'");
    }
    const std::string name = term.substr(0, eq);
    double w = 0;
    try {
      w = std::stod(term.substr(eq + 1));
    } catch (const std::exception&) {
      w = 0;
    }
    if (!(w > 0)) {
      throw std::runtime_error("--mix weight for '" + name +
                               "' must be positive");
    }
    mix.names.push_back(name);
    mix.shares.push_back(w);
    pos = comma + 1;
  }
  if (mix.names.empty()) throw std::runtime_error("--mix is empty");
  return mix;
}

std::string fleet_candidate_json(const serving::FleetCandidate& c) {
  using report::json_number;
  using report::json_quote;
  std::string out = "{";
  out += "\"label\": " + json_quote(c.label);
  out += ", \"counts\": [";
  for (std::size_t i = 0; i < c.counts.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(c.counts[i]);
  }
  out += "]";
  out += ", \"total_area_mm2\": " + json_number(c.total_area_mm2);
  out += ", \"simulated\": " + std::string(c.simulated ? "true" : "false");
  out += ", \"meets_slo\": " + std::string(c.meets_slo ? "true" : "false");
  out += ", \"stats\": ";
  out += c.simulated ? c.stats.to_json() : "null";
  out += "}";
  return out;
}

/// The `fleet` subcommand: search fleet compositions for the cheapest total
/// silicon meeting the mixed-traffic SLO. argv[1] == "fleet" already checked.
int run_fleet(int argc, char** argv) {
  std::string mix_text = "vgg16=0.7,yolo20=0.3";
  std::string json_path;
  serving::FleetQuery q;
  q.policy = {BatchPolicySpec::Kind::kAdaptive, 8, 2e6};  // 1 ms at 2 GHz
  std::string policy_name = "adaptive";
  std::string router_name = "jsq";
  double flush_ms = 1.0;
  bool fleet_seed_set = false;
  serving::FleetTrafficMix mix;

  try {
    for (int i = 2; i < argc; ++i) {
      const std::string flag = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          throw std::runtime_error(flag + " expects a value");
        }
        return argv[++i];
      };
      if (flag == "--mix") {
        mix_text = next();
      } else if (flag == "--load") {
        q.load_rps = suffixed("--load", next(), "rps");
      } else if (flag == "--slo") {
        q.slo_ms = suffixed("--slo", next(), "ms");
      } else if (flag == "--attainment") {
        q.attainment_target = std::atof(next());
      } else if (flag == "--requests") {
        q.requests = std::strtoull(next(), nullptr, 10);
      } else if (flag == "--seed") {
        q.seed = std::strtoull(next(), nullptr, 10);
      } else if (flag == "--router") {
        router_name = next();
      } else if (flag == "--fleet-seed") {
        q.router.seed = std::strtoull(next(), nullptr, 10);
        fleet_seed_set = true;
      } else if (flag == "--hop") {
        q.router_hop_cycles = std::atof(next());
      } else if (flag == "--max-chips") {
        q.max_chips = std::atoi(next());
      } else if (flag == "--chip-types") {
        q.max_chip_types = std::atoi(next());
      } else if (flag == "--policy") {
        policy_name = next();
      } else if (flag == "--max-batch") {
        q.policy.max_batch = std::atoi(next());
      } else if (flag == "--flush-ms") {
        flush_ms = suffixed("--flush-ms", next(), "ms");
      } else if (flag == "--queue") {
        q.queue_capacity = std::strtoull(next(), nullptr, 10);
      } else if (flag == "--area-budget") {
        q.area_budget_mm2 = std::atof(next());
      } else if (flag == "--json") {
        json_path = next();
      } else if (flag == "--timeline") {
        vlacnn::obs::timeline_sink().set_path(next());
      } else if (flag == "--reqtrace") {
        vlacnn::obs::reqtrace_sink().set_path(next());
      } else {
        std::fprintf(stderr, "vlacnn-capacity: unknown fleet flag '%s'\n",
                     flag.c_str());
        return fleet_usage(argv[0]);
      }
    }
    if (policy_name == "nobatch") {
      q.policy.kind = BatchPolicySpec::Kind::kNoBatch;
    } else if (policy_name == "maxbatch") {
      q.policy.kind = BatchPolicySpec::Kind::kMaxBatch;
    } else if (policy_name == "adaptive") {
      q.policy.kind = BatchPolicySpec::Kind::kAdaptive;
    } else {
      throw std::runtime_error("unknown --policy '" + policy_name + "'");
    }
    q.policy.timeout_cycles = flush_ms * 1e-3 * q.clock_hz;
    q.router.kind = serving::router_kind_from_string(router_name);
    if (!fleet_seed_set) q.router.seed = serving::default_fleet_seed();
    if (!(q.attainment_target > 0) || q.attainment_target > 1 ||
        q.requests == 0 || q.policy.max_batch < 1 || q.max_chips < 1 ||
        q.max_chip_types < 1 || !(q.router_hop_cycles >= 0)) {
      throw std::runtime_error("invalid query parameters");
    }
    // Mix syntax and model names are part of the command line: a typo is a
    // usage error (exit 2), same as --net on the single-chip path.
    mix = parse_mix(mix_text);
    mix.seed = q.seed;
    for (const std::string& name : mix.names) {
      if (name != "vgg16" && name != "yolo20") {
        throw std::runtime_error("unknown mix model '" + name +
                                 "' (vgg16 or yolo20)");
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vlacnn-capacity: %s\n", e.what());
    return fleet_usage(argv[0]);
  }

  try {
    std::vector<Network> nets;
    for (const std::string& name : mix.names) {
      nets.push_back(name == "vgg16" ? make_vgg16(224)
                                     : make_yolov3(20, 608));
    }

    report::arm_exit_report("fleet plan");

    ResultsDb db(default_results_path());
    SweepDriver driver(&db);
    serving::FleetPlanner planner(&driver);

    std::printf("fleet plan: mix %s, %.0f req/s Poisson, %.0f ms SLO at "
                "p%.4g, router %s (seed %llu), <= %d chips over %d types\n",
                mix.to_string().c_str(), q.load_rps, q.slo_ms,
                q.attainment_target * 100.0, router_name.c_str(),
                static_cast<unsigned long long>(q.router.seed), q.max_chips,
                q.max_chip_types);

    const serving::FleetPlan plan = planner.plan(nets, mix, q);

    std::size_t simulated = 0, feasible = 0;
    for (const auto& c : plan.candidates) {
      simulated += c.simulated ? 1 : 0;
      feasible += c.meets_slo ? 1 : 0;
    }
    std::printf("%zu compositions enumerated over %zu chip types "
                "(%zu simulated, %zu pruned); %zu meet the SLO%s\n",
                plan.candidates.size(), plan.chip_types.size(), simulated,
                plan.candidates.size() - simulated, feasible,
                q.area_budget_mm2 > 0 ? " inside the area budget" : "");

    auto print_best = [&](const char* tag,
                          const std::optional<serving::FleetCandidate>& b) {
      if (!b.has_value()) {
        std::printf("%s: none meets the SLO at this load\n", tag);
        return;
      }
      const ServingStats& s = b->stats.fleet;
      std::printf("%s: %s = %.2f mm2 (7nm)\n", tag, b->label.c_str(),
                  b->total_area_mm2);
      std::printf("  p50 %.2f ms, p99 %.2f ms, p99.9 %.2f ms @ 2GHz, "
                  "attainment %.2f%%, utilization %.1f%%, mean hop %.4g cyc\n",
                  ServingStats::ms(s.p50, q.clock_hz),
                  ServingStats::ms(s.p99, q.clock_hz),
                  ServingStats::ms(s.p999, q.clock_hz),
                  s.slo_attainment * 100.0, s.utilization * 100.0,
                  b->stats.mean_router_hop);
    };
    print_best("cheapest fleet", plan.best);
    print_best("cheapest homogeneous", plan.best_homogeneous);
    if (plan.best.has_value() && plan.best_homogeneous.has_value() &&
        plan.best_homogeneous->total_area_mm2 > plan.best->total_area_mm2) {
      std::printf("heterogeneity saves %.2f mm2 (%.1f%%)\n",
                  plan.best_homogeneous->total_area_mm2 -
                      plan.best->total_area_mm2,
                  100.0 * (1.0 - plan.best->total_area_mm2 /
                                     plan.best_homogeneous->total_area_mm2));
    }

    if (!json_path.empty()) {
      using report::json_number;
      using report::json_quote;
      std::string out = "{\n  \"schema\": \"vlacnn.fleet.v1\",\n";
      out += "  \"mix\": " + json_quote(mix.to_string()) + ",\n";
      out += "  \"query\": {\"load_rps\": " + json_number(q.load_rps);
      out += ", \"slo_ms\": " + json_number(q.slo_ms);
      out += ", \"attainment_target\": " + json_number(q.attainment_target);
      out += ", \"requests\": " + std::to_string(q.requests);
      out += ", \"seed\": " + std::to_string(q.seed);
      out += ", \"router\": " + json_quote(router_name);
      out += ", \"fleet_seed\": " + std::to_string(q.router.seed);
      out += ", \"router_hop_cycles\": " + json_number(q.router_hop_cycles);
      out += ", \"max_chips\": " + std::to_string(q.max_chips);
      out += ", \"chip_types\": " + std::to_string(q.max_chip_types);
      out += ", \"policy\": " + json_quote(policy_name);
      out += ", \"max_batch\": " + std::to_string(q.policy.max_batch);
      out += ", \"flush_ms\": " + json_number(flush_ms);
      out += ", \"queue_capacity\": " + std::to_string(q.queue_capacity);
      out += ", \"area_budget_mm2\": " + json_number(q.area_budget_mm2);
      out += "},\n  \"chip_types\": [\n";
      for (std::size_t i = 0; i < plan.chip_types.size(); ++i) {
        out += "    " + point_json(plan.chip_types[i]);
        if (i + 1 < plan.chip_types.size()) out += ",";
        out += "\n";
      }
      out += "  ],\n  \"candidates\": [\n";
      for (std::size_t i = 0; i < plan.candidates.size(); ++i) {
        out += "    " + fleet_candidate_json(plan.candidates[i]);
        if (i + 1 < plan.candidates.size()) out += ",";
        out += "\n";
      }
      out += "  ],\n  \"best\": ";
      out += plan.best.has_value() ? fleet_candidate_json(*plan.best) : "null";
      out += ",\n  \"best_homogeneous\": ";
      out += plan.best_homogeneous.has_value()
                 ? fleet_candidate_json(*plan.best_homogeneous)
                 : "null";
      out += "\n}\n";
      std::ofstream f(json_path, std::ios::trunc);
      if (!f) throw std::runtime_error("cannot write " + json_path);
      f << out;
      std::printf("wrote %s (%zu candidates)\n", json_path.c_str(),
                  plan.candidates.size());
    }
    if (vlacnn::obs::timeline_sink().enabled()) {
      std::printf("timeline: %zu run blocks -> %s (written at exit)\n",
                  vlacnn::obs::timeline_sink().block_count(),
                  vlacnn::obs::timeline_sink().path().c_str());
    }
    if (vlacnn::obs::reqtrace_sink().enabled()) {
      std::printf("reqtrace: %zu run blocks -> %s (written at exit)\n",
                  vlacnn::obs::reqtrace_sink().block_count(),
                  vlacnn::obs::reqtrace_sink().path().c_str());
    }
    return plan.best.has_value() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vlacnn-capacity: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Arm the obs exit hooks before any flag parsing can throw: a run that dies
  // on a bad CLI value still flushes its VLACNN_TRACE/VLACNN_METRICS output
  // (the tracer only writes if its singleton was constructed before exit).
  vlacnn::obs::install_exit_report();
  if (argc > 1 && std::strcmp(argv[1], "fleet") == 0) {
    return run_fleet(argc, argv);
  }
  std::string net_name = "vgg16";
  std::string json_path;
  CapacityQuery q;
  q.policy = {BatchPolicySpec::Kind::kAdaptive, 8, 2e6};  // 1 ms at 2 GHz
  std::string policy_name = "adaptive";
  double flush_ms = 1.0;
  std::string dispatch_mode = "oracle";
  double dispatch_cycles = 0;  // 0 = default_dispatch_cycles()

  // Parse phase: any failure here is a usage error — message plus usage to
  // stderr, exit 2. Runtime failures below exit 1 instead (the contract
  // scripts/test_cli_exit_codes.sh asserts).
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          throw std::runtime_error(flag + " expects a value");
        }
        return argv[++i];
      };
      if (flag == "--net") {
        net_name = next();
      } else if (flag == "--load") {
        q.load_rps = suffixed("--load", next(), "rps");
      } else if (flag == "--slo") {
        q.slo_ms = suffixed("--slo", next(), "ms");
      } else if (flag == "--attainment") {
        q.attainment_target = std::atof(next());
      } else if (flag == "--requests") {
        q.requests = std::strtoull(next(), nullptr, 10);
      } else if (flag == "--seed") {
        q.seed = std::strtoull(next(), nullptr, 10);
      } else if (flag == "--policy") {
        policy_name = next();
      } else if (flag == "--max-batch") {
        q.policy.max_batch = std::atoi(next());
      } else if (flag == "--flush-ms") {
        flush_ms = suffixed("--flush-ms", next(), "ms");
      } else if (flag == "--queue") {
        q.queue_capacity = std::strtoull(next(), nullptr, 10);
      } else if (flag == "--area-budget") {
        q.area_budget_mm2 = std::atof(next());
      } else if (flag == "--dispatch") {
        dispatch_mode = next();
      } else if (flag == "--dispatch-cycles") {
        dispatch_cycles = suffixed("--dispatch-cycles", next(), "");
      } else if (flag == "--json") {
        json_path = next();
      } else if (flag == "--timeline") {
        vlacnn::obs::timeline_sink().set_path(next());
      } else if (flag == "--reqtrace") {
        vlacnn::obs::reqtrace_sink().set_path(next());
      } else {
        std::fprintf(stderr, "vlacnn-capacity: unknown flag '%s'\n",
                     flag.c_str());
        return usage(argv[0]);
      }
    }
    if (policy_name == "nobatch") {
      q.policy.kind = BatchPolicySpec::Kind::kNoBatch;
    } else if (policy_name == "maxbatch") {
      q.policy.kind = BatchPolicySpec::Kind::kMaxBatch;
    } else if (policy_name == "adaptive") {
      q.policy.kind = BatchPolicySpec::Kind::kAdaptive;
    } else {
      throw std::runtime_error("unknown --policy '" + policy_name + "'");
    }
    q.policy.timeout_cycles = flush_ms * 1e-3 * q.clock_hz;
    if (!(q.attainment_target > 0) || q.attainment_target > 1 ||
        q.requests == 0 || q.policy.max_batch < 1) {
      throw std::runtime_error("invalid query parameters");
    }
    if (net_name != "vgg16" && net_name != "yolo20") {
      throw std::runtime_error("unknown --net '" + net_name +
                               "' (vgg16 or yolo20)");
    }
    if (dispatch_mode.rfind("fixed:", 0) == 0) {
      algo_from_string(dispatch_mode.substr(6));  // throws on an unknown algo
    } else if (dispatch_mode != "oracle" && dispatch_mode != "learned") {
      throw std::runtime_error("unknown --dispatch '" + dispatch_mode +
                               "' (oracle, learned, or fixed:<algo>)");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vlacnn-capacity: %s\n", e.what());
    return usage(argv[0]);
  }

  try {
    Network net = net_name == "vgg16" ? make_vgg16(224) : make_yolov3(20, 608);

    // When VLACNN_REPORT is set, write <dir>/capacity_plan_<net>.report.json
    // at exit — with --dispatch learned it carries the per-point DispatchCells
    // (oracle gap, explorations) that vlacnn-report summarize tabulates.
    report::arm_exit_report("capacity plan " + net.name());

    ResultsDb db(default_results_path());
    SweepDriver driver(&db);
    CapacityPlanner planner(&driver);

    std::printf("capacity plan: %s, %.0f req/s Poisson, %.0f ms SLO at "
                "p%.4g, policy %s, dispatch %s\n",
                net.name().c_str(), q.load_rps, q.slo_ms,
                q.attainment_target * 100.0, policy_name.c_str(),
                dispatch_mode.c_str());

    // Resolved (flag, then env knob, then calibrated default) only on the
    // learned path; 0 in the JSON marks the selector as not in the loop.
    double effective_dispatch_cycles = 0;
    const auto candidates = [&] {
      if (dispatch_mode == "oracle") {
        return planner.evaluate_grid(net, q, std::nullopt);
      }
      if (dispatch_mode.rfind("fixed:", 0) == 0) {
        return planner.evaluate_grid(
            net, q, algo_from_string(dispatch_mode.substr(6)));
      }
      if (dispatch_mode == "learned") {
        dispatch::DispatchConfig dc;
        dc.dispatch_cycles_per_layer =
            dispatch_cycles > 0 ? dispatch_cycles
                                : dispatch::default_dispatch_cycles();
        effective_dispatch_cycles = dc.dispatch_cycles_per_layer;
        // Train the paper's selector on this network over the Paper II
        // hardware grid — the same sweep keys the figures use, so a warm
        // cache answers every label without new simulation.
        const Dataset ds = build_selection_dataset(
            driver, {&net}, paper2_vlens(), paper2_l2_sizes());
        std::vector<std::size_t> all(ds.size());
        for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
        RandomForest forest;
        forest.fit(ds, all, ForestParams{});
        auto flat = std::make_shared<const dispatch::FlatForest>(
            forest, ds.num_classes());
        std::printf("learned dispatch: %zu-sample forest compiled to %zu "
                    "nodes, %.4g cycles/layer selector charge\n",
                    ds.size(), flat->node_count(),
                    dc.dispatch_cycles_per_layer);
        return planner.evaluate_grid(
            net, q, dispatch::learned_service_factory(flat, &driver, net, dc));
      }
      throw std::runtime_error("unknown --dispatch '" + dispatch_mode +
                               "' (oracle, learned, or fixed:<algo>)");
    }();
    std::size_t feasible = 0;
    for (const auto& c : candidates) feasible += c.meets_slo ? 1 : 0;
    std::printf("%zu/%zu grid configurations meet the SLO%s\n", feasible,
                candidates.size(),
                q.area_budget_mm2 > 0 ? " inside the area budget" : "");

    const auto best = CapacityPlanner::cheapest(candidates);
    if (best.has_value()) {
      const ServingEval& e = best->eval;
      const ServingStats& s = best->stats;
      std::printf("cheapest: %d cores x %u-bit vectors, %lluMB shared L2, "
                  "%d instances = %.2f mm2 (7nm)\n",
                  e.point.cores, e.point.vlen_bits,
                  static_cast<unsigned long long>(e.point.l2_total_bytes >>
                                                  20),
                  e.point.instances, e.area_mm2);
      std::printf("  p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, p99.9 %.2f ms "
                  "@ 2GHz\n",
                  ServingStats::ms(s.p50, q.clock_hz),
                  ServingStats::ms(s.p95, q.clock_hz),
                  ServingStats::ms(s.p99, q.clock_hz),
                  ServingStats::ms(s.p999, q.clock_hz));
      std::printf("  attainment %.2f%%, utilization %.1f%%, mean batch "
                  "%.2f, mean queue %.2f\n",
                  s.slo_attainment * 100.0, s.utilization * 100.0,
                  s.mean_batch, s.mean_queue);
      std::printf("  latency split: queue-wait %.2f ms + formation-wait "
                  "%.2f ms + service %.2f ms\n",
                  ServingStats::ms(s.mean_queue_wait, q.clock_hz),
                  ServingStats::ms(s.mean_formation_wait, q.clock_hz),
                  ServingStats::ms(s.mean_service, q.clock_hz));
    } else {
      std::printf("no configuration meets the SLO at this load\n");
    }

    if (!json_path.empty()) {
      using report::json_number;
      using report::json_quote;
      std::string out = "{\n  \"schema\": \"vlacnn.capacity.v1\",\n";
      out += "  \"net\": " + json_quote(net.name()) + ",\n";
      out += "  \"query\": {\"load_rps\": " + json_number(q.load_rps);
      out += ", \"slo_ms\": " + json_number(q.slo_ms);
      out += ", \"attainment_target\": " + json_number(q.attainment_target);
      out += ", \"requests\": " + std::to_string(q.requests);
      out += ", \"seed\": " + std::to_string(q.seed);
      out += ", \"policy\": " + json_quote(policy_name);
      out += ", \"max_batch\": " + std::to_string(q.policy.max_batch);
      out += ", \"flush_ms\": " + json_number(flush_ms);
      out += ", \"queue_capacity\": " + std::to_string(q.queue_capacity);
      out += ", \"area_budget_mm2\": " + json_number(q.area_budget_mm2);
      out += ", \"dispatch\": " + json_quote(dispatch_mode);
      out += ", \"dispatch_cycles_per_layer\": " +
             json_number(effective_dispatch_cycles);
      out += "},\n  \"candidates\": [\n";
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        out += "    " + candidate_json(candidates[i]);
        if (i + 1 < candidates.size()) out += ",";
        out += "\n";
      }
      out += "  ],\n  \"cheapest\": ";
      out += best.has_value() ? candidate_json(*best) : "null";
      out += "\n}\n";
      std::ofstream f(json_path, std::ios::trunc);
      if (!f) throw std::runtime_error("cannot write " + json_path);
      f << out;
      std::printf("wrote %s (%zu candidates)\n", json_path.c_str(),
                  candidates.size());
    }
    if (vlacnn::obs::timeline_sink().enabled()) {
      std::printf("timeline: %zu run blocks -> %s (written at exit)\n",
                  vlacnn::obs::timeline_sink().block_count(),
                  vlacnn::obs::timeline_sink().path().c_str());
    }
    if (vlacnn::obs::reqtrace_sink().enabled()) {
      std::printf("reqtrace: %zu run blocks -> %s (written at exit)\n",
                  vlacnn::obs::reqtrace_sink().block_count(),
                  vlacnn::obs::reqtrace_sink().path().c_str());
    }
    return best.has_value() ? 0 : 1;
  } catch (const std::exception& e) {
    // Runtime failure (sweep/simulation/IO): exit 1, same as "no feasible
    // configuration" — distinct from the usage-error exit 2 above.
    std::fprintf(stderr, "vlacnn-capacity: %s\n", e.what());
    return 1;
  }
}
