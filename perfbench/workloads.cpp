#include "workloads.h"

#include <time.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <optional>
#include <utility>

#include "algos/registry.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "dispatch/flat_forest.h"
#include "dispatch/learned_dispatcher.h"
#include "memsim/memory_system.h"
#include "ml/dataset.h"
#include "ml/random_forest.h"
#include "net/models.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "obs/timeline.h"
#include "serving/fleet.h"
#include "serving/fleet_planner.h"
#include "serving/request_sim.h"
#include "sweep/sweep.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace vlacnn;
using namespace vlacnn::serving;

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

namespace {

constexpr int kSetupReps = 7;  ///< set-ups per run; setup_s is their median
constexpr std::uint64_t kServeRequests = 2'000'000;  ///< phases 1 and 2
constexpr std::uint64_t kFleetRequests = 1'000'000;  ///< phase 3
constexpr std::uint64_t kPrefixRequests = 20'000;    ///< fleet-vs-single check
constexpr int kTracedServeRounds = 3;
constexpr int kTracedQueries = 30;  ///< ten rotations of the three kinds
constexpr int kMinRotations = 70;   ///< 210 queries: p95 has 10 beyond it

/// Independent stream `k` of the run's seed.
std::uint64_t stream(std::uint64_t seed, std::uint64_t k) {
  Rng r(seed * 0x9e3779b97f4a7c15ull + k);
  return r.next_u64();
}

double ms_since(double t0) { return (wall_s() - t0) * 1e3; }

// -- shared set-up ------------------------------------------------------------

struct Nets {
  Network vgg16 = make_vgg16(224);
  Network yolo20 = make_yolov3(20, 608);
  const Network& at(int i) const { return i == 0 ? vgg16 : yolo20; }
};

/// A private copy of the committed cache, opened warm. The committed file
/// itself is never opened by ResultsDb, which may rewrite what it loads.
struct WarmCache {
  std::unique_ptr<ResultsDb> db;
  std::unique_ptr<SweepDriver> driver;
  std::size_t rows = 0;
};

WarmCache open_warm(const Context& ctx, const std::string& tag, SpanLog* spans,
                    Report& out) {
  const fs::path dir = ctx.scratch / tag;
  fs::create_directories(dir);
  const fs::path path = dir / "sweep_cache.csv";
  fs::copy_file(ctx.cache, path, fs::copy_options::overwrite_existing);
  WarmCache w;
  const double t0 = wall_s();
  {
    Span s(spans, "sweep.ResultsDb::load", "sweep");
    w.db = std::make_unique<ResultsDb>(path.string());
  }
  out.sample("db.load_ms", ms_since(t0));
  w.driver = std::make_unique<SweepDriver>(w.db.get());
  w.rows = w.db->size();
  return w;
}

/// A warm run must answer every lookup from the cache: a new row means a
/// simulation ran, which would both distort the timing and fall outside the
/// committed data the checks rely on.
void check_still_warm(const WarmCache& w, Report& out, const char* what) {
  out.check(w.db->size() == w.rows,
            std::string(what) + ": warm cache grew from " +
                std::to_string(w.rows) + " to " + std::to_string(w.db->size()) +
                " rows (a point was simulated)");
}

// -- sweep_cold ---------------------------------------------------------------

struct SweepSetup {
  Nets nets;
  WarmCache ref;  ///< committed rows, the bit-identity reference
  std::vector<SweepRequest> reqs;
};

void add_grid(std::vector<SweepRequest>& reqs, const Network& net,
              std::uint32_t vlen, std::uint64_t l2) {
  const auto descs = net.conv_descs();
  for (std::size_t i = 0; i < descs.size(); ++i) {
    for (Algo a : kAllAlgos) {
      if (algo_applicable(a, descs[i])) {
        reqs.push_back(
            {net.name(), static_cast<int>(i), descs[i], a, vlen, l2});
      }
    }
  }
}

std::unique_ptr<SweepSetup> setup_sweep(const Context& ctx, SpanLog* spans,
                                        Report& out) {
  auto s = std::make_unique<SweepSetup>();
  s->ref = open_warm(ctx, "committed", spans, out);
  // The two corners: short vectors with a working set far beyond a 1 MB L2,
  // and long vectors with a 64 MB L2 the layers mostly fit in.
  add_grid(s->reqs, s->nets.vgg16, 512, 1ull << 20);
  add_grid(s->reqs, s->nets.yolo20, 4096, 64ull << 20);
  return s;
}

SweepKey key_of(const SweepRequest& q) {
  return {q.net, q.layer, q.algo, q.vlen_bits, q.l2_bytes, q.lanes, q.attach};
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Name of the first field where `got` differs in any bit from the committed
/// row, or "" when all fifteen stored results are bit-identical.
std::string row_mismatch(const SweepRow& got,
                         const std::optional<SweepRow>& ref) {
  if (!ref) return "missing from committed cache";
  if (!ref->has_breakdown) return "committed row has no breakdown";
  const std::pair<const char*, std::pair<double, double>> fields[] = {
      {"cycles", {got.cycles, ref->cycles}},
      {"avg_vl", {got.avg_vl, ref->avg_vl}},
      {"l2_miss_rate", {got.l2_miss_rate, ref->l2_miss_rate}},
      {"mem_bytes", {got.mem_bytes, ref->mem_bytes}},
      {"flops", {got.flops, ref->flops}},
      {"compute_cycles", {got.bd.compute_cycles, ref->bd.compute_cycles}},
      {"mem_issue_cycles", {got.bd.mem_issue_cycles, ref->bd.mem_issue_cycles}},
      {"mem_stall_cycles", {got.bd.mem_stall_cycles, ref->bd.mem_stall_cycles}},
      {"scalar_cycles", {got.bd.scalar_cycles, ref->bd.scalar_cycles}},
      {"vec_instructions", {got.bd.vec_instructions, ref->bd.vec_instructions}},
      {"vec_elems", {got.bd.vec_elems, ref->bd.vec_elems}},
      {"l1_accesses", {got.bd.l1_accesses, ref->bd.l1_accesses}},
      {"l1_misses", {got.bd.l1_misses, ref->bd.l1_misses}},
      {"l2_accesses", {got.bd.l2_accesses, ref->bd.l2_accesses}},
      {"l2_misses", {got.bd.l2_misses, ref->bd.l2_misses}},
  };
  for (const auto& [name, v] : fields) {
    if (!same_bits(v.first, v.second)) return name;
  }
  return "";
}

/// The seed's submission order for round `round`: perm[i] is the index into
/// reqs of the i-th submitted point.
std::vector<std::size_t> submission_order(std::size_t n, std::uint64_t seed,
                                          int round) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  Rng rng(stream(seed, 100 + static_cast<std::uint64_t>(round)));
  rng.shuffle(perm);
  return perm;
}

/// Check every cold row against the committed cache, and record the grid's
/// simulated cycles summed in the canonical (unpermuted) order so the value
/// repeats exactly whatever the submission order.
void check_grid(const SweepSetup& s, const std::vector<std::size_t>& perm,
                const std::vector<SweepRow>& rows, Report& out) {
  std::vector<double> cycles(s.reqs.size(), 0.0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRequest& q = s.reqs[perm[i]];
    const std::string bad = row_mismatch(rows[i], s.ref.db->find(key_of(q)));
    out.check(bad.empty(), "sweep point " + q.net + " layer " +
                               std::to_string(q.layer) + " " +
                               to_string(q.algo) + ": " + bad);
    cycles[perm[i]] = rows[i].cycles;
  }
  double total = 0;
  for (double c : cycles) total += c;
  out.values["sim.grid_cycles"] = total;
  out.values["sim.grid_points"] = static_cast<double>(rows.size());
}

/// A fresh, empty ResultsDb in its own directory, removed with the object.
struct ColdDb {
  fs::path dir;
  std::unique_ptr<ResultsDb> db;
  std::unique_ptr<SweepDriver> driver;

  ColdDb(const Context& ctx, int round)
      : dir(ctx.scratch / ("cold" + std::to_string(round))) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    db = std::make_unique<ResultsDb>((dir / "sweep_cache.csv").string());
    driver = std::make_unique<SweepDriver>(db.get());
  }
  ~ColdDb() {
    driver.reset();
    db.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

struct Timed {
  double wall = 0;
  double cpu = 0;
};

/// One cold grid through get_many, in the seed's submission order.
Timed cold_grid(const Context& ctx, const SweepSetup& s, int round,
                Report& out) {
  const auto perm = submission_order(s.reqs.size(), ctx.seed, round);
  std::vector<SweepRequest> order;
  order.reserve(perm.size());
  for (std::size_t i : perm) order.push_back(s.reqs[i]);
  ColdDb cold(ctx, round);
  const double w0 = wall_s(), c0 = cpu_s();
  const std::vector<SweepRow> rows = cold.driver->get_many(order);
  const Timed t{wall_s() - w0, cpu_s() - c0};
  check_grid(s, perm, rows, out);
  return t;
}

/// Set up `reps` times (the last set-up is kept) and record each duration.
template <typename Setup>
auto repeated_setup(int reps, Report& out, Setup&& setup) {
  decltype(setup()) kept;
  for (int r = 0; r < reps; ++r) {
    kept.reset();
    const double t0 = wall_s();
    kept = setup();
    out.sample("setup_s", wall_s() - t0);
  }
  return kept;
}

/// Run `round(r)` for r = 0, 1, ... while another round is expected to end
/// inside the run's measuring window, and at least `min_rounds` times.
template <typename Round>
void timed_rounds(const Context& ctx, int min_rounds, Report& out,
                  Round&& round) {
  const double start = wall_s();
  double last = 0;
  for (int r = 0; r < min_rounds || (wall_s() - start) + last <= ctx.seconds;
       ++r) {
    const double t0 = wall_s();
    const Timed t = round(r);
    out.sample("round_wall_s", t.wall);
    out.sample("round_cpu_s", t.cpu);
    last = wall_s() - t0;
  }
}

// -- serve_loop ---------------------------------------------------------------

struct ServeSetup {
  Nets nets;
  WarmCache warm;
  ServingPoint point{4, 2048, 16ull << 20, 4};  ///< 4 instances, 4 MB slices
  BatchCostModel vgg_cost;
  BatchCostModel yolo_cost;
  double mean_ia = 0;   ///< phases 1-2 Poisson mean gap, cycles
  double timeout = 0;   ///< adaptive flush timeout, cycles
  double slo = 0;       ///< latency deadline, cycles
  FleetConfig fleet;
  double fleet_mean_ia = 0;
};

std::unique_ptr<ServeSetup> setup_serve(const Context& ctx, SpanLog* spans,
                                        Report& out) {
  auto s = std::make_unique<ServeSetup>();
  s->warm = open_warm(ctx, "serve", spans, out);
  SweepDriver& d = *s->warm.driver;
  const std::uint64_t slice = s->point.l2_slice_bytes();
  s->vgg_cost = batch_cost_model(d, s->nets.vgg16, s->point.vlen_bits, slice,
                                 std::nullopt);
  s->yolo_cost = batch_cost_model(d, s->nets.yolo20, s->point.vlen_bits, slice,
                                  std::nullopt);
  // ~85% of the instances' no-batching capacity; adaptive(8) batching with a
  // quarter-image flush timeout, and an SLO of ten single-image services.
  const double first = s->vgg_cost.first_image_cycles;
  s->mean_ia = first / (0.85 * s->point.instances);
  s->timeout = 0.25 * first;
  s->slo = 10.0 * first;

  // Phase 3: two small chips and one large one (the fleet planner's output
  // shape), jsq routing, 70/30 vgg16/yolo20 traffic, 1 ms router hop.
  const AreaModel area;
  const ServingPoint small{2, 2048, 8ull << 20, 2};
  const ServingPoint big{16, 2048, 64ull << 20, 16};
  for (const ServingPoint& p : {small, small, big}) {
    FleetChip chip;
    chip.spec.point = p;
    chip.costs = {s->vgg_cost, s->yolo_cost};
    chip.area_mm2 = area.chip_mm2(p.vlen_bits, p.l2_total_bytes, p.cores);
    s->fleet.chips.push_back(chip);
  }
  s->fleet.mix.names = {"vgg16", "yolo20"};
  s->fleet.mix.shares = {0.7, 0.3};
  s->fleet.mix.seed = stream(ctx.seed, 7);
  s->fleet.router = {RouterSpec::Kind::kJoinShortestQueue, 1};
  s->fleet.policy = {BatchPolicySpec::Kind::kAdaptive, 8, s->timeout};
  s->fleet.slo_cycles = s->slo;
  s->fleet.router_hop_cycles = 2e6;
  const double weighted_first = 0.7 * s->vgg_cost.first_image_cycles +
                                0.3 * s->yolo_cost.first_image_cycles;
  const int instances = 2 * small.instances + big.instances;
  s->fleet_mean_ia = weighted_first / (0.85 * instances);
  check_still_warm(s->warm, out, "serve_loop set-up");
  return s;
}

RequestSimConfig single_chip(const ServeSetup& s) {
  RequestSimConfig rc;
  rc.instances = s.point.instances;
  rc.cost = s.vgg_cost;
  rc.slo_cycles = s.slo;
  return rc;
}

ServingStats serve_plain(const ServeSetup& s, std::uint64_t seed,
                         std::uint64_t n) {
  const RequestSimConfig rc = single_chip(s);
  PoissonArrivals arrivals(s.mean_ia, n, seed);
  AdaptiveBatchPolicy policy(8, s.timeout);
  return simulate_requests(rc, arrivals, policy);
}

/// Phase 2: the same loop driving caller-owned timeline and request-trace
/// recorders. `recorded` receives the trace recorder's offered count.
ServingStats serve_recorded(const ServeSetup& s, std::uint64_t seed,
                            std::uint64_t n, std::uint64_t* recorded) {
  RequestSimConfig rc = single_chip(s);
  obs::TimelineConfig tc;
  tc.interval_cycles = s.mean_ia * static_cast<double>(n) / 512.0;
  tc.slo_cycles = s.slo;
  tc.instances = s.point.instances;
  obs::TimelineRecorder timeline(tc);
  obs::ReqTraceConfig rt;
  rt.top_k = 8;
  rt.slo_cycles = s.slo;
  obs::RequestTraceRecorder reqtrace(rt);
  rc.timeline = &timeline;
  rc.reqtrace = &reqtrace;
  PoissonArrivals arrivals(s.mean_ia, n, seed);
  AdaptiveBatchPolicy policy(8, s.timeout);
  const ServingStats st = simulate_requests(rc, arrivals, policy);
  *recorded = reqtrace.offered();
  return st;
}

FleetStats serve_fleet(const ServeSetup& s, std::uint64_t seed,
                       std::uint64_t n) {
  PoissonArrivals arrivals(s.fleet_mean_ia, n, seed);
  return simulate_fleet(s.fleet, arrivals);
}

void check_drained(const ServingStats& st, std::uint64_t n, Report& out,
                   const char* phase) {
  out.check(st.offered == n && st.offered == st.completed + st.dropped,
            std::string(phase) + ": offered " + std::to_string(st.offered) +
                " != completed " + std::to_string(st.completed) +
                " + dropped " + std::to_string(st.dropped) + " (expected " +
                std::to_string(n) + " offered)");
}

/// A one-chip, one-model, zero-hop fleet is the single-chip loop; on a short
/// prefix of the phase-1 traffic both must render byte-identical stats.
void check_fleet_prefix(const ServeSetup& s, std::uint64_t seed,
                        SpanLog* spans, Report& out) {
  ServingStats single;
  {
    Span sp(spans, "serving.simulate_requests", "serving");
    single = serve_plain(s, seed, kPrefixRequests);
  }
  FleetConfig fc;
  FleetChip chip;
  chip.spec.point = s.point;
  chip.costs = {s.vgg_cost};
  fc.chips.push_back(chip);
  fc.mix.names = {"vgg16"};
  fc.mix.shares = {1.0};
  fc.policy = {BatchPolicySpec::Kind::kAdaptive, 8, s.timeout};
  fc.slo_cycles = s.slo;
  PoissonArrivals arrivals(s.mean_ia, kPrefixRequests, seed);
  FleetStats fleet;
  {
    Span sp(spans, "serving.simulate_fleet", "serving");
    fleet = simulate_fleet(fc, arrivals);
  }
  out.check(fleet.fleet.to_json() == single.to_json(),
            "single-chip hop-0 simulate_fleet differs from simulate_requests");
}

/// One serve_loop round: the three phases, each checked, each on the
/// round's own arrival seed.
Timed serve_round(const ServeSetup& s, std::uint64_t seed, SpanLog* spans,
                  int round, Report& out) {
  const double c0 = cpu_s();
  double t0 = wall_s();
  ServingStats p1;
  {
    Span sp(spans, "serving.simulate_requests", "serving", 1);
    p1 = serve_plain(s, seed, kServeRequests);
  }
  const double w1 = wall_s() - t0;
  check_drained(p1, kServeRequests, out, "phase 1");

  std::uint64_t recorded = 0;
  t0 = wall_s();
  ServingStats p2;
  {
    Span sp(spans, "serving.simulate_requests+recorders", "serving", 2);
    p2 = serve_recorded(s, seed, kServeRequests, &recorded);
  }
  const double w2 = wall_s() - t0;
  check_drained(p2, kServeRequests, out, "phase 2");
  out.check(p2.to_json() == p1.to_json() && recorded == p2.offered,
            "phase 2: recorders changed the simulation");

  t0 = wall_s();
  FleetStats p3;
  {
    Span sp(spans, "serving.simulate_fleet", "serving", 3);
    p3 = serve_fleet(s, stream(seed, 3), kFleetRequests);
  }
  const double w3 = wall_s() - t0;
  check_drained(p3.fleet, kFleetRequests, out, "phase 3");
  const double cpu = cpu_s() - c0;

  const double n = static_cast<double>(kServeRequests);
  out.sample("serve.mreq_per_s", n / w1 * 1e-6);
  out.sample("serve.traced_mreq_per_s", n / w2 * 1e-6);
  out.sample("fleet.mreq_per_s",
             static_cast<double>(kFleetRequests) / w3 * 1e-6);
  out.sample("serve.obs_ns_per_req", (w2 - w1) / n * 1e9);
  if (round == 0) {
    out.values["serve.batches"] = static_cast<double>(p1.batches);
    out.values["serve.mean_batch"] = p1.mean_batch;
    out.values["serve.utilization"] = p1.utilization;
    out.values["serve.slo_attainment"] = p1.slo_attainment;
    out.values["fleet.utilization"] = p3.fleet.utilization;
  }
  return {w1 + w2 + w3, cpu};
}

// -- plan_warm ----------------------------------------------------------------

struct PlanSetup {
  Nets nets;
  std::vector<Network> both;  ///< {vgg16, yolo20}, the fleet planner's input
  WarmCache warm;
  std::shared_ptr<const dispatch::FlatForest> forest[2];
  ServiceModelFactory factory[2];
  std::unique_ptr<CapacityPlanner> capacity;
  std::unique_ptr<FleetPlanner> fleet;
};

std::unique_ptr<PlanSetup> setup_plan(const Context& ctx, SpanLog* spans,
                                      Report& out) {
  auto s = std::make_unique<PlanSetup>();
  s->both = {s->nets.vgg16, s->nets.yolo20};
  s->warm = open_warm(ctx, "plan", spans, out);
  SweepDriver& d = *s->warm.driver;
  // The paper's selector, trained per network over the Paper II grid (as
  // vlacnn-capacity --dispatch learned does), then compiled for dispatch.
  const double t0 = wall_s();
  for (int i = 0; i < 2; ++i) {
    Span sp(spans, "ml.RandomForest::fit", "ml");
    const Network& net = s->nets.at(i);
    const Dataset ds =
        build_selection_dataset(d, {&net}, paper2_vlens(), paper2_l2_sizes());
    std::vector<std::size_t> all(ds.size());
    for (std::size_t k = 0; k < all.size(); ++k) all[k] = k;
    RandomForest forest;
    forest.fit(ds, all, ForestParams{});
    s->forest[i] =
        std::make_shared<const dispatch::FlatForest>(forest, ds.num_classes());
  }
  out.sample("ml.forest_fit_ms", ms_since(t0));
  dispatch::DispatchConfig dc;
  dc.dispatch_cycles_per_layer = dispatch::kDefaultDispatchCyclesPerLayer;
  for (int i = 0; i < 2; ++i) {
    Span sp(spans, "dispatch.learned_service_factory", "dispatch");
    s->factory[i] =
        dispatch::learned_service_factory(s->forest[i], &d, s->nets.at(i), dc);
  }
  s->capacity = std::make_unique<CapacityPlanner>(&d);
  s->fleet = std::make_unique<FleetPlanner>(&d);
  check_still_warm(s->warm, out, "plan_warm set-up");
  return s;
}

enum class QueryKind { kOracle = 0, kLearned = 1, kFleet = 2 };
const char* kQueryNames[] = {"capacity_oracle", "capacity_learned", "fleet"};

/// One planning query. The kinds rotate in fixed order; the seed draws only
/// the network (for a fleet query: which model dominates the mix), the load
/// and the SLO, from ranges where a feasible plan exists.
struct Query {
  QueryKind kind;
  int net;
  double load_rps;
  double slo_ms;
};

Query draw_query(std::uint64_t seed, int i) {
  Rng rng(stream(seed, 1000 + static_cast<std::uint64_t>(i)));
  Query q;
  q.kind = static_cast<QueryKind>(i % 3);
  q.net = static_cast<int>(rng.next_below(2));
  if (q.kind == QueryKind::kFleet) {
    q.load_rps = 20.0 + 30.0 * rng.next_float();
    q.slo_ms = 8000.0 + 8000.0 * rng.next_float();
  } else {
    q.load_rps = 5.0 + 20.0 * rng.next_float();
    q.slo_ms = 2000.0 + 4000.0 * rng.next_float();
  }
  return q;
}

CapacityQuery capacity_query(const Query& q) {
  CapacityQuery cq;
  cq.load_rps = q.load_rps;
  cq.slo_ms = q.slo_ms;
  return cq;
}

FleetQuery fleet_query(const Query& q) {
  FleetQuery fq;
  fq.load_rps = q.load_rps;
  fq.slo_ms = q.slo_ms;
  return fq;
}

FleetTrafficMix fleet_mix(const Query& q) {
  FleetTrafficMix mix;
  mix.names = {"vgg16", "yolo20"};
  mix.shares = q.net == 0 ? std::vector<double>{0.7, 0.3}
                          : std::vector<double>{0.3, 0.7};
  return mix;
}

/// Answer one query (timed by the caller), then re-evaluate the chosen
/// configuration through the single-point API and require byte-identical
/// stats. Returns the query's host wall and CPU time.
Timed plan_query(PlanSetup& s, const Query& q, int id, SpanLog* spans,
                 Report& out) {
  const Network& net = s.nets.at(q.net);
  const std::string tag = std::string(kQueryNames[static_cast<int>(q.kind)]) +
                          " query " + std::to_string(id);
  const double w0 = wall_s(), c0 = cpu_s();
  if (q.kind == QueryKind::kFleet) {
    const FleetTrafficMix mix = fleet_mix(q);
    const FleetQuery fq = fleet_query(q);
    FleetPlan plan;
    {
      Span sp(spans, "serving.FleetPlanner::plan", "serving", id);
      plan = s.fleet->plan(s.both, mix, fq);
    }
    const Timed t{wall_s() - w0, cpu_s() - c0};
    std::size_t simulated = 0;
    for (const FleetCandidate& c : plan.candidates) simulated += c.simulated;
    out.sample("fleet.plan_ms", t.wall * 1e3);
    out.values["fleet.candidates"] +=
        static_cast<double>(plan.candidates.size());
    out.values["fleet.simulated"] += static_cast<double>(simulated);
    if (plan.best) {
      const double e0 = wall_s();
      FleetCandidate again;
      {
        Span sp(spans, "serving.FleetPlanner::evaluate_composition",
                "serving", id);
        again = s.fleet->evaluate_composition(s.both, mix, fq, plan.chip_types,
                                              plan.best->counts);
      }
      out.sample("plan.fleet_point_us", (wall_s() - e0) * 1e6);
      out.check(again.stats.to_json() == plan.best->stats.to_json(),
                tag + ": re-evaluated fleet differs");
    } else {
      out.values["plan.unanswered"] += 1;
      out.check(true, tag);
    }
    return t;
  }

  const CapacityQuery cq = capacity_query(q);
  const bool learned = q.kind == QueryKind::kLearned;
  std::vector<CapacityCandidate> grid;
  {
    Span sp(spans, "serving.CapacityPlanner::evaluate_grid", "serving", id);
    grid = learned ? s.capacity->evaluate_grid(net, cq, s.factory[q.net])
                   : s.capacity->evaluate_grid(net, cq, std::nullopt);
  }
  const Timed t{wall_s() - w0, cpu_s() - c0};
  const auto best = CapacityPlanner::cheapest(grid);
  if (best) {
    const double e0 = wall_s();
    CapacityCandidate again;
    {
      Span sp(spans, "serving.CapacityPlanner::evaluate", "serving", id);
      const ServingPoint& point = best->eval.point;
      again = learned
                  ? s.capacity->evaluate(net, point, cq, s.factory[q.net])
                  : s.capacity->evaluate(net, point, cq, std::nullopt);
    }
    out.sample("plan.point_us", (wall_s() - e0) * 1e6);
    out.check(again.stats.to_json() == best->stats.to_json(),
              tag + ": re-evaluated point differs");
  } else {
    out.values["plan.unanswered"] += 1;
    out.check(true, tag);
  }
  return t;
}

/// Queries [first, first + count) back to back: one closed-loop client.
Timed plan_queries(PlanSetup& s, std::uint64_t seed, int first, int count,
                   SpanLog* spans, Report& out) {
  Timed total;
  for (int i = first; i < first + count; ++i) {
    const Query q = draw_query(seed, i);
    const Timed t = plan_query(s, q, i, spans, out);
    out.sample("plan.query_ms", t.wall * 1e3);
    const char* kind = kQueryNames[static_cast<int>(q.kind)];
    out.sample(std::string("plan.query_ms.") + kind, t.wall * 1e3);
    total.wall += t.wall;
    total.cpu += t.cpu;
  }
  return total;
}

// -- traced-only measurements -------------------------------------------------

/// Host time to construct the memory hierarchy of one grid corner.
void measure_memsim_build(SpanLog& spans, std::uint32_t vlen, std::uint64_t l2,
                          const std::string& metric, Report& out) {
  const MemConfig mc = make_sim_config(vlen, l2).mem;
  for (int r = 0; r < 7; ++r) {
    const double t0 = wall_s();
    {
      Span sp(&spans, "memsim.MemorySystem", "memsim");
      MemorySystem m(mc);
    }
    out.sample(metric, ms_since(t0));
  }
}

/// The traced cold grid: every point through SweepDriver::get on the shared
/// pool, one span each, with the library's memsim probe counters switched on
/// for the duration through the public obs API.
Timed traced_grid(const Context& ctx, const SweepSetup& s, SpanLog& spans,
                  Report& out) {
  const auto perm = submission_order(s.reqs.size(), ctx.seed, 0);
  ColdDb cold(ctx, 0);
  std::vector<SweepRow> rows(perm.size());
  std::vector<double> point_ms(perm.size());
  obs::Registry::global().reset();
  obs::set_metrics_mode(obs::ReportMode::kText);
  const double w0 = wall_s(), c0 = cpu_s();
  {
    Span root(&spans, "common.ThreadPool::parallel_for", "common");
    const int parent = root.id();
    ThreadPool::shared().parallel_for(perm.size(), [&](std::size_t i) {
      const SweepRequest& q = s.reqs[perm[i]];
      const double t0 = wall_s();
      {
        Span sp(&spans, "sweep.SweepDriver::get.cold", "sim",
                static_cast<std::int64_t>(perm[i]), parent);
        rows[i] = cold.driver->get(q.net, q.layer, q.desc, q.algo, q.vlen_bits,
                                   q.l2_bytes, q.lanes, q.attach);
      }
      point_ms[i] = ms_since(t0);
    });
  }
  const Timed t{wall_s() - w0, cpu_s() - c0};
  obs::set_metrics_mode(obs::ReportMode::kOff);
  obs::Registry& reg = obs::Registry::global();
  const double l1 =
      static_cast<double>(reg.counter("memsim.l1_accesses").value());
  const double l2 =
      static_cast<double>(reg.counter("memsim.l2_accesses").value());
  out.values["sim.l1_probes"] = l1;
  out.values["sim.l2_probes"] = l2;
  out.values["sim.probes_per_cpu_s"] = (l1 + l2) / t.cpu;
  out.values["pool.busy_frac"] = t.cpu / (ctx.threads * t.wall);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    out.sample(std::string("sim.point_ms.") + to_string(s.reqs[perm[i]].algo),
               point_ms[i]);
  }
  check_grid(s, perm, rows, out);
  return t;
}

/// Warm single-point lookups and whole-network plans on the planning cache.
void measure_warm_sweep(PlanSetup& s, SpanLog& spans, Report& out) {
  SweepDriver& d = *s.warm.driver;
  const auto descs = s.nets.vgg16.conv_descs();
  const auto vlens = paper2_vlens();
  const auto l2s = paper2_l2_sizes();
  Rng rng(7);
  constexpr int kGets = 200;
  for (int b = 0; b < 20; ++b) {
    const double t0 = wall_s();
    {
      Span sp(&spans, "sweep.SweepDriver::get", "sweep", b);
      for (int k = 0; k < kGets; ++k) {
        const std::size_t l = rng.next_below(descs.size());
        const Algo a = kAllAlgos[rng.next_below(kAllAlgos.size())];
        const std::uint32_t v = vlens[rng.next_below(vlens.size())];
        const std::uint64_t l2 = l2s[rng.next_below(l2s.size())];
        d.get(s.nets.vgg16.name(), static_cast<int>(l), descs[l], a, v, l2);
      }
    }
    out.sample("sweep.hit_us", (wall_s() - t0) * 1e6 / kGets);
  }
  for (int r = 0; r < 30; ++r) {
    const Network& net = s.nets.at(r % 2);
    const double t0 = wall_s();
    {
      Span sp(&spans, "sweep.SweepDriver::network_optimal", "sweep", r);
      d.network_optimal(net, vlens[r % vlens.size()],
                        l2s[(r / 4) % l2s.size()]);
    }
    out.sample("sweep.network_optimal_us", (wall_s() - t0) * 1e6);
  }
  check_still_warm(s.warm, out, "warm sweep lookups");
}

/// The learned dispatcher's two hot calls: one forest prediction, and one
/// batch's service-time decision.
void measure_dispatch(PlanSetup& s, SpanLog& spans, Report& out) {
  const auto descs = s.nets.vgg16.conv_descs();
  std::vector<std::vector<float>> xs;
  for (std::uint32_t v : paper2_vlens()) {
    for (std::uint64_t l2 : paper2_l2_sizes()) {
      for (const ConvLayerDesc& d : descs) {
        xs.push_back(selection_features(v, l2, d));
      }
    }
  }
  constexpr int kPredicts = 2000;
  int sink = 0;
  for (int b = 0; b < 20; ++b) {
    const double t0 = wall_s();
    {
      Span sp(&spans, "dispatch.FlatForest::predict", "dispatch", b);
      for (int k = 0; k < kPredicts; ++k) {
        sink += s.forest[0]->predict(xs[static_cast<std::size_t>(k) %
                                        xs.size()]);
      }
    }
    out.sample("dispatch.predict_ns", (wall_s() - t0) * 1e9 / kPredicts);
  }
  const ServingPoint point{4, 2048, 16ull << 20, 4};
  auto model = s.factory[0](point);
  constexpr int kCalls = 200;
  double cycles = 0;
  for (int b = 0; b < 20; ++b) {
    const double t0 = wall_s();
    {
      Span sp(&spans, "dispatch.LearnedDispatcher::service_cycles",
              "dispatch", b);
      for (int k = 0; k < kCalls; ++k) {
        cycles += model->service_cycles(1 + k % 8);
      }
    }
    out.sample("dispatch.service_cycles_us", (wall_s() - t0) * 1e6 / kCalls);
  }
  out.check(sink >= 0 && cycles > 0,
            "dispatch micro-measurement produced no work");
}

}  // namespace

// -- entry points -------------------------------------------------------------

void run_sweep_cold(const Context& ctx, Report& out) {
  auto s = repeated_setup(kSetupReps, out,
                          [&] { return setup_sweep(ctx, nullptr, out); });
  timed_rounds(ctx, 1, out, [&](int r) {
    const Timed t = cold_grid(ctx, *s, r, out);
    out.sample("sweep.grid_s", t.wall);
    out.sample("sweep.cpu_s", t.cpu);
    return t;
  });
}

void run_serve_loop(const Context& ctx, Report& out) {
  auto s = repeated_setup(kSetupReps, out,
                          [&] { return setup_serve(ctx, nullptr, out); });
  check_fleet_prefix(*s, stream(ctx.seed, 1), nullptr, out);
  timed_rounds(ctx, 1, out, [&](int r) {
    const std::uint64_t seed = stream(ctx.seed, 200 + r);
    return serve_round(*s, seed, nullptr, r, out);
  });
  check_still_warm(s->warm, out, "serve_loop");
}

void run_plan_warm(const Context& ctx, Report& out) {
  auto s = repeated_setup(kSetupReps, out,
                          [&] { return setup_plan(ctx, nullptr, out); });
  // A round is one rotation of the three query kinds; enough rotations that
  // at least ten queries lie beyond the p95 of their latencies.
  timed_rounds(ctx, kMinRotations, out, [&](int r) {
    return plan_queries(*s, ctx.seed, 3 * r, 3, nullptr, out);
  });
  check_still_warm(s->warm, out, "plan_warm");
}

void run_traced(const Context& ctx, const std::string& workload,
                SpanLog& spans, Report& out) {
  double traced_wall = 0;    // the named workload's traced pass
  double untraced_wall = 0;  // the same work without spans
  Report scratch;            // timings of the untraced comparison round

  measure_memsim_build(spans, 512, 1ull << 20, "memsim.build_ms.l2_1mb", out);
  measure_memsim_build(spans, 4096, 64ull << 20, "memsim.build_ms.l2_64mb",
                       out);
  {
    auto s = setup_sweep(ctx, &spans, out);
    const Timed t = traced_grid(ctx, *s, spans, out);
    if (workload == "sweep_cold") {
      traced_wall = t.wall;
      untraced_wall = cold_grid(ctx, *s, 0, out).wall;
    }
  }
  {
    auto s = setup_serve(ctx, &spans, out);
    check_fleet_prefix(*s, stream(ctx.seed, 1), &spans, out);
    std::vector<double> walls;
    for (int r = 0; r < kTracedServeRounds; ++r) {
      const std::uint64_t seed = stream(ctx.seed, 200 + r);
      walls.push_back(serve_round(*s, seed, &spans, r, out).wall);
    }
    if (workload == "serve_loop") {
      std::sort(walls.begin(), walls.end());
      traced_wall = walls[walls.size() / 2];
      untraced_wall =
          serve_round(*s, stream(ctx.seed, 200), nullptr, 1, scratch).wall;
    }
    check_still_warm(s->warm, out, "traced serve_loop");
  }
  {
    // Three set-ups, so the load and fit timings have a median.
    std::unique_ptr<PlanSetup> s;
    for (int r = 0; r < 3; ++r) {
      s.reset();
      s = setup_plan(ctx, &spans, out);
    }
    const Timed t = plan_queries(*s, ctx.seed, 0, kTracedQueries, &spans, out);
    const double cand = out.values["fleet.candidates"];
    out.values["fleet.simulated_frac"] =
        cand > 0 ? out.values["fleet.simulated"] / cand : 0.0;
    measure_warm_sweep(*s, spans, out);
    measure_dispatch(*s, spans, out);
    if (workload == "plan_warm") {
      traced_wall = t.wall;
      untraced_wall =
          plan_queries(*s, ctx.seed, 0, kTracedQueries, nullptr, scratch).wall;
    }
    check_still_warm(s->warm, out, "traced plan_warm");
  }
  out.attempted += scratch.attempted;
  out.failed += scratch.failed;
  for (const std::string& f : scratch.failures) out.failures.push_back(f);
  out.values["trace.traced_wall_s"] = traced_wall;
  out.values["trace.untraced_wall_s"] = untraced_wall;
}

}  // namespace perfbench
