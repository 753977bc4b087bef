#include "serving/fleet.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>
#include <queue>
#include <set>
#include <stdexcept>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "report/json.h"
#include "serving/event_loop.h"

namespace vlacnn::serving {

bool ChipSpec::hosts(int model) const {
  if (hosted_models.empty()) return true;
  return std::find(hosted_models.begin(), hosted_models.end(), model) !=
         hosted_models.end();
}

std::string ChipSpec::short_label() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "c%dv%ul%llui%d", point.cores,
                point.vlen_bits,
                static_cast<unsigned long long>(point.l2_total_bytes >> 20),
                point.instances);
  return buf;
}

int FleetTrafficMix::pick(std::uint64_t seq) const {
  if (names.empty() || names.size() != shares.size()) {
    throw std::invalid_argument(
        "FleetTrafficMix: names and shares must be non-empty and same-sized");
  }
  double total = 0;
  for (double s : shares) {
    if (!(s > 0) || !std::isfinite(s)) {
      throw std::invalid_argument(
          "FleetTrafficMix: shares must be positive and finite");
    }
    total += s;
  }
  // Pure function of (seed, seq): one splitmix64 stream keyed by the request
  // id, so the model of request k never depends on how many requests came
  // before it — recomposing the fleet cannot reshuffle the traffic.
  Rng rng(seed ^ (seq * 0x9e3779b97f4a7c15ull));
  const double u = static_cast<double>(rng.next_float()) * total;
  double acc = 0;
  for (std::size_t m = 0; m + 1 < shares.size(); ++m) {
    acc += shares[m];
    if (u < acc) return static_cast<int>(m);
  }
  return static_cast<int>(shares.size()) - 1;
}

std::string FleetTrafficMix::to_string() const {
  double total = 0;
  for (double s : shares) total += s;
  std::string out;
  for (std::size_t m = 0; m < names.size(); ++m) {
    if (!out.empty()) out += ',';
    char buf[32];
    std::snprintf(buf, sizeof buf, "=%.2f",
                  total > 0 ? shares[m] / total : 0.0);
    out += names[m];
    out += buf;
  }
  return out;
}

std::string FleetStats::to_json() const {
  using report::json_number;
  std::string out = "{\"fleet\": ";
  out += fleet.to_json();
  out += ", \"mean_router_hop\": " + json_number(mean_router_hop);
  out += ", \"total_area_mm2\": " + json_number(total_area_mm2);
  out += ", \"per_chip\": [";
  for (std::size_t c = 0; c < per_chip.size(); ++c) {
    if (c > 0) out += ", ";
    out += "{\"chip\": " + std::to_string(c);
    out += ", \"label\": \"";
    out += c < chip_labels.size() ? chip_labels[c] : "";
    out += "\", \"stats\": " + per_chip[c].to_json() + "}";
  }
  out += "], \"per_model\": [";
  for (std::size_t m = 0; m < per_model.size(); ++m) {
    const FleetModelStats& ms = per_model[m];
    if (m > 0) out += ", ";
    out += "{\"name\": \"" + ms.name + "\"";
    out += ", \"offered\": " + std::to_string(ms.offered);
    out += ", \"completed\": " + std::to_string(ms.completed);
    out += ", \"dropped\": " + std::to_string(ms.dropped);
    out += ", \"p50\": " + json_number(ms.p50);
    out += ", \"p99\": " + json_number(ms.p99);
    out += ", \"p999\": " + json_number(ms.p999);
    out += ", \"mean_latency\": " + json_number(ms.mean_latency);
    out += ", \"slo_attainment\": " + json_number(ms.slo_attainment);
    out += "}";
  }
  out += "]}";
  return out;
}

namespace detail {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Trace events per simulation are capped so a planner run over hundreds of
/// grid points cannot balloon the in-memory trace buffer; the cap is logged
/// when hit.
constexpr std::uint64_t kMaxBatchTraceEvents = 4096;

/// Simulated cycles -> trace microseconds at the repo's 2 GHz presentation
/// clock, so a Perfetto timeline of batches reads in real service time.
constexpr double kTraceCyclesPerUs = 2000.0;

/// One stats scope: the fleet, a chip, or a model (models keep only counts
/// and the latency sum). Sums run in the order the means are defined in —
/// waits at dispatch, everything else at completion.
struct Scope {
  ServingStats s;
  double latency_sum = 0, wait_sum = 0, queue_wait_sum = 0, formation_sum = 0;
  double service_sum = 0, batch_images = 0;
};

/// Fill a scope's per-request fields from its sums and its latencies (any
/// order; reordered here). Percentiles are nearest-rank by selection: each
/// nth_element puts in place the exact sample a full sort would, and the
/// ranks ascend, so each selection only scans what lies above the last one.
void finish_scope(Scope& sc, std::vector<double>& lat, double slo_cycles) {
  ServingStats& s = sc.s;
  s.completed = lat.size();
  s.slo = slo_cycles;
  if (s.batches > 0) {
    s.mean_batch = sc.batch_images / static_cast<double>(s.batches);
  }
  if (!lat.empty()) {
    const double n = static_cast<double>(lat.size());
    s.mean_latency = sc.latency_sum / n;
    s.mean_wait = sc.wait_sum / n;
    s.mean_queue_wait = sc.queue_wait_sum / n;
    s.mean_formation_wait = sc.formation_sum / n;
    s.mean_service = sc.service_sum / n;
    auto from = lat.begin();
    const auto rank = [&](double q) {
      const auto k = lat.begin() + static_cast<std::ptrdiff_t>(
                                       nearest_rank_index(lat.size(), q));
      std::nth_element(from, k, lat.end());
      from = k;
      return *k;
    };
    s.p50 = rank(0.50);
    s.p95 = rank(0.95);
    s.p99 = rank(0.99);
    s.p999 = rank(0.999);
    s.max_latency = *std::max_element(from, lat.end());
  }
  if (slo_cycles > 0 && s.offered > 0) {
    const auto within = std::count_if(
        lat.begin(), lat.end(), [&](double l) { return l <= slo_cycles; });
    s.slo_attainment =
        static_cast<double>(within) / static_cast<double>(s.offered);
  }
}

/// Fill the time-weighted fields of a fleet or chip scope.
void finish_occupancy(ServingStats& s, double makespan, double queue_area,
                      double busy_cycles, int instances) {
  s.makespan = makespan;
  if (makespan > 0) {
    s.mean_queue = queue_area / makespan;
    s.utilization = busy_cycles / (static_cast<double>(instances) * makespan);
  }
}

/// Per-chip mutable simulation state.
struct ChipState {
  struct Queued {
    double arrival;       ///< fleet arrival, cycles
    double idle_at_join;  ///< chip idle-time integral when it joined
    std::uint64_t seq;    ///< 1-based offered-arrival order = trace id
  };
  struct Member {
    double arrival;
    double formation_wait;  ///< measured at dispatch, clamped
    std::uint64_t seq;
  };
  struct ModelQueue {
    std::deque<Queued> fifo;
    BatchingPolicy* policy;
    ServiceModel* service;
  };
  std::vector<ModelQueue> queues;                  ///< per model
  std::set<int> idle;                              ///< idle instance ids
  std::vector<std::vector<Member>> batch_members;  ///< per instance
  std::vector<double> batch_dispatch;              ///< per instance
  std::vector<int> batch_model;  ///< per instance: one batch, one model
  /// Dispatch annotations per instance, attached to every member of the
  /// batch at completion. Sized only when tracing.
  std::vector<std::vector<obs::TraceNote>> batch_notes;
  obs::TimelineRecorder* timeline = nullptr;
  std::size_t queued_total = 0;
  double idle_time = 0;   ///< integral of [some instance idle]
  double queue_area = 0;  ///< integral of queued_total
  double busy_cycles = 0;
  Scope stats;
};

}  // namespace

/// The loop body. kOneQueue folds in one chip, one model and no hop as
/// constants; run_event_loop picks it from the inputs.
template <bool kObs, bool kOneQueue>
FleetStats event_loop(const LoopInputs& in, ArrivalProcess& arrivals) {
  const int C = kOneQueue ? 1 : static_cast<int>(in.chips.size());
  const int M =
      kOneQueue ? 1 : static_cast<int>(in.chips.front().queues.size());
  const double hop = kOneQueue ? 0.0 : in.hop;

  obs::RequestTraceRecorder* rrec = nullptr;
  if constexpr (kObs) rrec = in.reqtrace;
  std::vector<ChipState> chips(in.chips.size());
  for (std::size_t c = 0; c < chips.size(); ++c) {
    const LoopChip& lc = in.chips[c];
    ChipState& cs = chips[c];
    for (const LoopQueue& q : lc.queues) {
      cs.queues.push_back({{}, q.policy, q.service});
    }
    for (int i = 0; i < lc.instances; ++i) cs.idle.insert(i);
    const auto instances = static_cast<std::size_t>(lc.instances);
    cs.batch_members.resize(instances);
    cs.batch_dispatch.resize(instances, 0.0);
    cs.batch_model.resize(instances, 0);
    if constexpr (kObs) {
      cs.timeline = lc.timeline;
      if (rrec != nullptr) cs.batch_notes.resize(instances);
    }
  }
  std::vector<std::uint64_t> outstanding(static_cast<std::size_t>(C), 0);

  // One in-flight batch per busy (chip, instance), ordered by completion;
  // ties pop the lowest (chip, instance) first.
  struct InFlight {
    double completion;
    int chip;
    int instance;
    bool operator>(const InFlight& o) const {
      if (completion != o.completion) return completion > o.completion;
      if (chip != o.chip) return chip > o.chip;
      return instance > o.instance;
    }
  };
  std::priority_queue<InFlight, std::vector<InFlight>, std::greater<InFlight>>
      busy;

  // Routed-but-not-yet-delivered requests. The hop is one constant, so
  // delivery times are nondecreasing in routing order — a FIFO deque, no
  // priority queue needed.
  struct Transit {
    double deliver;  ///< arrival + hop
    double arrival;  ///< fleet arrival
    std::uint64_t seq;
    int model;
    int chip;
  };
  std::deque<Transit> transit;

  Scope fleet;
  std::vector<Scope> models(static_cast<std::size_t>(M));
  double hop_sum = 0;
  std::size_t total_queued = 0;
  // Each latency is stored once, in completion order. With more than one
  // chip or model, `owner` tags it chip * M + model, so the per-chip and
  // per-model percentiles are cut from the same vector at the end.
  std::vector<double> latencies;
  std::vector<std::uint32_t> owner;
  const bool tagged = C > 1 || M > 1;
  double now = 0;
  double pending = 0;  ///< the next arrival, valid when has_pending
  bool has_pending = false;
  if (in.request_log != nullptr) in.request_log->clear();
  if (in.fleet_log != nullptr) in.fleet_log->clear();

  obs::Histogram* lat_hist = nullptr;  ///< non-null when metrics are on
  obs::Tracer* tracer = nullptr;
  std::uint64_t traced_batches = 0;
  if constexpr (kObs) {
    if (obs::metrics_enabled()) {
      lat_hist =
          &obs::Registry::global().histogram("serving.request_latency_cycles");
    }
    tracer = &obs::Tracer::global();
  }

  auto poll = [&] {
    if (has_pending) return;
    if (const std::optional<double> a = arrivals.next_arrival()) {
      pending = *a;
      has_pending = true;
    }
  };
  auto advance = [&](double t_new) {
    const double dt = t_new - now;
    for (int c = 0; c < C; ++c) {
      ChipState& cs = chips[static_cast<std::size_t>(c)];
      cs.queue_area += static_cast<double>(cs.queued_total) * dt;
      if (!cs.idle.empty()) cs.idle_time += dt;
    }
    now = t_new;
  };

  // A routed request reaches its chip's queue (the hop elapsed — or was zero).
  auto enqueue = [&](double arrival, std::uint64_t seq, int model, int chip) {
    ChipState& cs = chips[static_cast<std::size_t>(chip)];
    ++cs.stats.s.offered;
    if (in.queue_capacity > 0 && cs.queued_total >= in.queue_capacity) {
      ++fleet.s.dropped;
      ++cs.stats.s.dropped;
      ++models[static_cast<std::size_t>(model)].s.dropped;
      --outstanding[static_cast<std::size_t>(chip)];
      if constexpr (kObs) {
        if (cs.timeline != nullptr) cs.timeline->on_drop(now);
        if (rrec != nullptr) rrec->on_drop(seq, now);
      }
      arrivals.on_completion(now);  // a rejection is still a response
      return;
    }
    cs.queues[static_cast<std::size_t>(model)].fifo.push_back(
        {arrival, cs.idle_time, seq});
    ++cs.queued_total;
    ++total_queued;
    if constexpr (kObs) {
      if (cs.timeline != nullptr) cs.timeline->on_arrival(now);
    }
    if (static_cast<double>(cs.queued_total) > cs.stats.s.max_queue) {
      cs.stats.s.max_queue = static_cast<double>(cs.queued_total);
    }
    if (static_cast<double>(total_queued) > fleet.s.max_queue) {
      fleet.s.max_queue = static_cast<double>(total_queued);
    }
  };

  auto try_dispatch = [&]() -> bool {
    bool dispatched = false;
    while (true) {
      // Among all (chip, model) queues the policy would dispatch from right
      // now, serve the one whose head joined earliest; ties go to the lowest
      // (chip, model) — the scan order below — so the pick is deterministic.
      int bc = -1, bm = -1, bn = 0;
      double best_join = kInf;
      for (int c = 0; c < C; ++c) {
        ChipState& cs = chips[static_cast<std::size_t>(c)];
        if (cs.idle.empty()) continue;
        for (int m = 0; m < M; ++m) {
          const ChipState::ModelQueue& q =
              cs.queues[static_cast<std::size_t>(m)];
          if (q.fifo.empty()) continue;
          const double join = q.fifo.front().arrival + hop;
          const int n = q.policy->dispatch_size(q.fifo.size(), join, now);
          if (n <= 0) continue;
          if (join < best_join) {
            best_join = join;
            bc = c;
            bm = m;
            bn = n;
          }
        }
      }
      if (bc < 0) break;
      ChipState& cs = chips[static_cast<std::size_t>(bc)];
      ChipState::ModelQueue& q = cs.queues[static_cast<std::size_t>(bm)];
      const int n = std::min<int>(bn, static_cast<int>(q.fifo.size()));
      const int inst = *cs.idle.begin();
      cs.idle.erase(cs.idle.begin());
      auto& members = cs.batch_members[static_cast<std::size_t>(inst)];
      members.clear();
      for (int i = 0; i < n; ++i) {
        const ChipState::Queued& qr = q.fifo.front();
        const double wait = now - qr.arrival;  // fleet wait, hop included
        fleet.wait_sum += wait;
        cs.stats.wait_sum += wait;
        // The formation share is measured on chip: clamp it to the wait
        // since the request joined the queue.
        const double chip_wait = now - (qr.arrival + hop);
        double fw = cs.idle_time - qr.idle_at_join;
        if (fw < 0) fw = 0;
        if (fw > chip_wait) fw = chip_wait > 0 ? chip_wait : 0;
        members.push_back({qr.arrival, fw, qr.seq});
        q.fifo.pop_front();
        --cs.queued_total;
        --total_queued;
      }
      cs.batch_dispatch[static_cast<std::size_t>(inst)] = now;
      cs.batch_model[static_cast<std::size_t>(inst)] = bm;
      const double service = q.service->service_cycles(n);
      if (!(service > 0) || !std::isfinite(service)) {
        throw std::logic_error(
            "serving event loop: service model returned a non-positive or "
            "non-finite batch time");
      }
      busy.push({now + service, bc, inst});
      cs.busy_cycles += service;
      ++cs.stats.s.batches;
      ++fleet.s.batches;
      cs.stats.batch_images += n;
      fleet.batch_images += n;
      dispatched = true;
      if constexpr (kObs) {
        if (cs.timeline != nullptr) cs.timeline->on_dispatch(now, n);
        if (rrec != nullptr) {
          // Ask the service model for this batch's decision notes now, while
          // its "most recent call" state is this dispatch.
          auto& notes = cs.batch_notes[static_cast<std::size_t>(inst)];
          notes.clear();
          q.service->trace_annotations(notes);
        }
        if (tracer->enabled() && traced_batches < kMaxBatchTraceEvents) {
          // Trace timestamps are *simulated* time, so the file renders the
          // serving schedule itself, not the wall clock of the simulator.
          obs::Tracer::Args args = {
              {"instance", std::to_string(inst)},
              {"batch", std::to_string(n)},
              {"service_cycles", std::to_string(service)}};
          if (in.fleet) args.push_back({"chip", std::to_string(bc)});
          tracer->emit("serving.batch", now / kTraceCyclesPerUs,
                       service / kTraceCyclesPerUs, args);
          if (++traced_batches == kMaxBatchTraceEvents) {
            obs::log(obs::LogLevel::kInfo, "serving", "batch_trace_capped",
                     {{"cap", std::to_string(kMaxBatchTraceEvents)}});
          }
        }
      }
    }
    return dispatched;
  };

  poll();
  while (true) {
    const double tc = busy.empty() ? kInf : busy.top().completion;
    const double tq = transit.empty() ? kInf : transit.front().deliver;
    const double ta = has_pending ? pending : kInf;
    double td = kInf;
    for (int c = 0; c < C; ++c) {
      const ChipState& cs = chips[static_cast<std::size_t>(c)];
      if (cs.idle.empty()) continue;
      for (int m = 0; m < M; ++m) {
        const ChipState::ModelQueue& q =
            cs.queues[static_cast<std::size_t>(m)];
        if (q.fifo.empty()) continue;
        const double d = q.policy->flush_deadline(
            q.fifo.size(), q.fifo.front().arrival + hop);
        td = std::min(td, std::max(d, now));
      }
    }
    const double t_next = std::min({tc, tq, ta, td});
    if (t_next == kInf) break;
    advance(t_next);

    // Tie order at equal timestamps: completions free instances first,
    // router-hop deliveries join queues second, new arrivals are routed
    // third, policy flushes run last — fixed, so the event sequence (and
    // every stat) is reproducible.
    if (tc <= t_next) {
      const InFlight f = busy.top();
      busy.pop();
      ChipState& cs = chips[static_cast<std::size_t>(f.chip)];
      const std::size_t fi = static_cast<std::size_t>(f.instance);
      const double dispatched_at = cs.batch_dispatch[fi];
      const int model = cs.batch_model[fi];
      const auto& members = cs.batch_members[fi];
      for (const ChipState::Member& m : members) {
        const double lat = now - m.arrival;
        // Exact four-span attribution, a chain of Sterbenz splits: latency
        // into pre-dispatch vs service, pre-dispatch into hop vs on-chip
        // wait, the wait into queue vs formation. Left-to-right,
        //   (hop + (qw + fw)) + service == lat bit-exactly.
        const auto [pre, service_c] =
            exact_split(lat, dispatched_at - m.arrival);
        // exact_split(pre, 0.0) is {0.0, pre}: skip the call off-fleet.
        const auto [hop_c, wait_c] =
            hop == 0 ? std::pair<double, double>{0.0, pre}
                     : exact_split(pre, hop);
        const double wait_head = in.fleet ? wait_c : dispatched_at - m.arrival;
        const auto [qw, fw] =
            exact_split(wait_c, wait_head - m.formation_wait);
        latencies.push_back(lat);
        if (tagged) {
          owner.push_back(static_cast<std::uint32_t>(f.chip * M + model));
        }
        hop_sum += hop_c;
        for (Scope* sc : {&fleet, &cs.stats}) {
          sc->latency_sum += lat;
          sc->queue_wait_sum += qw;
          sc->formation_sum += fw;
          sc->service_sum += service_c;
        }
        models[static_cast<std::size_t>(model)].latency_sum += lat;
        const bool within = in.slo_cycles <= 0 || lat <= in.slo_cycles;
        const RequestRecord rec{m.arrival, dispatched_at, now, qw,
                                fw,        service_c,     within};
        if (in.request_log != nullptr) in.request_log->push_back(rec);
        if (in.fleet_log != nullptr) {
          in.fleet_log->push_back({model, f.chip, hop_c, rec});
        }
        if constexpr (kObs) {
          if (cs.timeline != nullptr) {
            cs.timeline->on_completion(now, lat, within);
          }
          if (rrec != nullptr) {
            rrec->on_completion(
                m.seq, m.arrival, dispatched_at, now, hop_c, qw, fw, service_c,
                within, static_cast<int>(members.size()),
                in.fleet ? f.chip : -1, f.instance,
                cs.batch_notes[fi]);
          }
          if (lat_hist != nullptr) {
            lat_hist->observe(
                static_cast<std::uint64_t>(std::llround(std::max(lat, 0.0))));
          }
        }
        arrivals.on_completion(now);
      }
      outstanding[static_cast<std::size_t>(f.chip)] -= members.size();
      cs.idle.insert(f.instance);
      if constexpr (kObs) {
        if (cs.timeline != nullptr) cs.timeline->on_batch_done(now);
      }
      try_dispatch();
      poll();
      continue;
    }
    if (tq <= t_next) {
      const Transit tr = transit.front();
      transit.pop_front();
      enqueue(tr.arrival, tr.seq, tr.model, tr.chip);
      try_dispatch();
      poll();
      continue;
    }
    if (ta <= t_next) {
      ++fleet.s.offered;
      const std::uint64_t seq = fleet.s.offered;
      const int model = M > 1 ? in.mix->pick(seq) : 0;
      ++models[static_cast<std::size_t>(model)].s.offered;
      const int chip =
          C > 1 ? in.router->route(model,
                                   in.hosts[static_cast<std::size_t>(model)],
                                   outstanding)
                : 0;
      ++outstanding[static_cast<std::size_t>(chip)];
      has_pending = false;
      if (hop == 0) {
        // Join (or be rejected) before the next arrival is drawn, so a
        // closed-loop client whose request was dropped can issue it.
        enqueue(now, seq, model, chip);
        poll();
        try_dispatch();
      } else {
        transit.push_back({now + hop, now, seq, model, chip});
        poll();
      }
      continue;
    }
    // Flush deadline: some policy named this cycle, so it must dispatch now.
    if (!try_dispatch()) {
      throw std::logic_error(
          "serving event loop: batching policy refused to dispatch at its own "
          "flush deadline");
    }
  }
  for (const ChipState& cs : chips) {
    if (cs.queued_total != 0) {
      throw std::logic_error(
          "serving event loop: batching policy left requests queued forever "
          "(flush_deadline returned +inf with idle instances)");
    }
  }

  // Finalize. Occupancy: the fleet over every instance, each chip over its
  // own, all at the fleet makespan so chip utilizations compare.
  double queue_area = 0, busy_cycles = 0;
  int instances = 0;
  for (int c = 0; c < C; ++c) {
    const ChipState& cs = chips[static_cast<std::size_t>(c)];
    const int inst = in.chips[static_cast<std::size_t>(c)].instances;
    queue_area += cs.queue_area;
    busy_cycles += cs.busy_cycles;
    instances += inst;
    finish_occupancy(chips[static_cast<std::size_t>(c)].stats.s, now,
                     cs.queue_area, cs.busy_cycles, inst);
  }
  finish_occupancy(fleet.s, now, queue_area, busy_cycles, instances);

  // Latencies: cut each chip's and model's share out before the fleet's own
  // selection reorders the vector. A lone chip or model saw exactly what the
  // fleet saw, so it reports the fleet's stats.
  FleetStats out;
  if (!latencies.empty()) {
    out.mean_router_hop = hop_sum / static_cast<double>(latencies.size());
  }
  std::vector<double> subset;
  auto finish_where = [&](Scope& sc, auto in_scope) {
    subset.clear();
    for (std::size_t i = 0; i < latencies.size(); ++i) {
      if (in_scope(owner[i])) subset.push_back(latencies[i]);
    }
    finish_scope(sc, subset, in.slo_cycles);
  };
  const auto uM = static_cast<std::uint32_t>(M);
  if (C > 1) {
    for (std::uint32_t c = 0; c < static_cast<std::uint32_t>(C); ++c) {
      finish_where(chips[c].stats,
                   [&](std::uint32_t o) { return o / uM == c; });
    }
  }
  if (M > 1) {
    for (std::uint32_t m = 0; m < uM; ++m) {
      finish_where(models[m], [&](std::uint32_t o) { return o % uM == m; });
    }
  }
  finish_scope(fleet, latencies, in.slo_cycles);

  out.fleet = fleet.s;
  for (const ChipState& cs : chips) {
    out.per_chip.push_back(C == 1 ? fleet.s : cs.stats.s);
  }
  for (const Scope& sc : models) {
    const ServingStats& ms = M == 1 ? fleet.s : sc.s;
    out.per_model.push_back({"", ms.offered, ms.completed, ms.dropped, ms.p50,
                             ms.p99, ms.p999, ms.mean_latency,
                             ms.slo_attainment});
  }

  if constexpr (kObs) {
    if (lat_hist != nullptr) {
      obs::Registry& reg = obs::Registry::global();
      reg.counter("serving.requests_completed").add(out.fleet.completed);
      reg.counter("serving.requests_dropped").add(out.fleet.dropped);
      reg.counter("serving.batches_dispatched").add(out.fleet.batches);
    }
    for (ChipState& cs : chips) {
      if (cs.timeline != nullptr) cs.timeline->finish(now);
    }
    if (rrec != nullptr) rrec->finish();
  }
  return out;
}

template <bool kObs>
FleetStats run_event_loop(const LoopInputs& in, ArrivalProcess& arrivals) {
  // Every simulate_requests call is this case; the constants let the
  // compiler drop the (chip, model) scans from its hot path.
  if (in.chips.size() == 1 && in.chips.front().queues.size() == 1 &&
      in.hop == 0) {
    return event_loop<kObs, true>(in, arrivals);
  }
  return event_loop<kObs, false>(in, arrivals);
}

template FleetStats run_event_loop<true>(const LoopInputs&, ArrivalProcess&);
template FleetStats run_event_loop<false>(const LoopInputs&, ArrivalProcess&);

}  // namespace detail

FleetStats simulate_fleet(const FleetConfig& cfg, ArrivalProcess& arrivals) {
  const int C = static_cast<int>(cfg.chips.size());
  const int M = static_cast<int>(cfg.mix.names.size());
  if (C == 0) {
    throw std::invalid_argument("simulate_fleet: need at least one chip");
  }
  // pick() validates the mix; draw once up front so a run with no arrivals
  // rejects a bad mix too.
  cfg.mix.pick(1);
  if (!(cfg.router_hop_cycles >= 0) ||
      !std::isfinite(cfg.router_hop_cycles)) {
    throw std::invalid_argument(
        "simulate_fleet: router hop must be finite and >= 0");
  }

  // Placement: the ascending host list per model, validated up front so the
  // router never sees an empty candidate set. Each hosted (chip, model) queue
  // gets a fresh policy — policies may keep state (batching.h's
  // one-per-simulation contract, applied per queue) — and its cost model.
  std::vector<std::unique_ptr<BatchingPolicy>> policies;
  std::vector<std::unique_ptr<FixedServiceModel>> services;
  detail::LoopInputs in;
  in.hosts.resize(static_cast<std::size_t>(M));
  for (int c = 0; c < C; ++c) {
    const FleetChip& chip = cfg.chips[static_cast<std::size_t>(c)];
    if (chip.spec.point.instances < 1) {
      throw std::invalid_argument("simulate_fleet: chip needs >= 1 instance");
    }
    if (chip.costs.size() != static_cast<std::size_t>(M)) {
      throw std::invalid_argument(
          "simulate_fleet: chip needs one cost model per mix model");
    }
    detail::LoopChip lc;
    lc.instances = chip.spec.point.instances;
    lc.queues.resize(static_cast<std::size_t>(M));
    for (int m = 0; m < M; ++m) {
      if (!chip.spec.hosts(m)) continue;
      const BatchCostModel& bc = chip.costs[static_cast<std::size_t>(m)];
      if (!(bc.first_image_cycles > 0) || !(bc.marginal_image_cycles >= 0)) {
        throw std::invalid_argument(
            "simulate_fleet: hosted model needs positive first-image and "
            "non-negative marginal cycles");
      }
      policies.push_back(make_policy(cfg.policy));
      services.push_back(std::make_unique<FixedServiceModel>(bc));
      lc.queues[static_cast<std::size_t>(m)] = {policies.back().get(),
                                                services.back().get()};
      in.hosts[static_cast<std::size_t>(m)].push_back(c);
    }
    in.chips.push_back(std::move(lc));
  }
  for (int m = 0; m < M; ++m) {
    if (in.hosts[static_cast<std::size_t>(m)].empty()) {
      throw std::invalid_argument("simulate_fleet: model '" +
                                  cfg.mix.names[static_cast<std::size_t>(m)] +
                                  "' has no hosting chip");
    }
  }
  const std::unique_ptr<FleetRouter> router =
      make_router(cfg.router, static_cast<std::size_t>(M));
  in.mix = &cfg.mix;
  in.router = router.get();
  in.queue_capacity = cfg.queue_capacity;
  in.slo_cycles = cfg.slo_cycles;
  in.hop = cfg.router_hop_cycles;
  in.fleet = true;
  in.fleet_log = cfg.request_log;

  // Observability: one timeline recorder per chip (queue/utilization/SLO-burn
  // resolved per chip), one request-trace recorder for the whole fleet (trace
  // ids are fleet-wide). Sink labels derive from cfg.label below.
  std::vector<std::unique_ptr<obs::TimelineRecorder>> recs;
  if (obs::timeline_sink().enabled()) {
    for (detail::LoopChip& lc : in.chips) {
      obs::TimelineConfig tcfg =
          obs::default_timeline_config(lc.instances, cfg.slo_cycles);
      tcfg.attainment_target = cfg.attainment_target;
      if (cfg.expected_horizon_cycles > 0 &&
          !obs::timeline_interval().overridden()) {
        tcfg.interval_cycles = std::max(
            tcfg.interval_cycles, cfg.expected_horizon_cycles / 256.0);
      }
      recs.push_back(std::make_unique<obs::TimelineRecorder>(tcfg));
      lc.timeline = recs.back().get();
    }
  }
  std::unique_ptr<obs::RequestTraceRecorder> rrec;
  if (obs::reqtrace_sink().enabled()) {
    rrec = std::make_unique<obs::RequestTraceRecorder>(
        obs::default_reqtrace_config(cfg.slo_cycles));
    in.reqtrace = rrec.get();
  }

  FleetStats out = detail::run_event_loop<true>(in, arrivals);
  for (const FleetChip& chip : cfg.chips) {
    out.total_area_mm2 += chip.area_mm2;
    out.chip_labels.push_back(chip.spec.short_label());
  }
  for (int m = 0; m < M; ++m) {
    out.per_model[static_cast<std::size_t>(m)].name =
        cfg.mix.names[static_cast<std::size_t>(m)];
  }

  if (rrec != nullptr) {
    obs::LabeledJsonlSink& rsink = obs::reqtrace_sink();
    rsink.record(cfg.label.empty() ? rsink.next_auto_label() : cfg.label,
                 rrec->to_jsonl());
  }
  if (!recs.empty()) {
    obs::LabeledJsonlSink& sink = obs::timeline_sink();
    const std::string base =
        cfg.label.empty() ? sink.next_auto_label() : cfg.label;
    for (int c = 0; c < C; ++c) {
      char suffix[16];
      std::snprintf(suffix, sizeof suffix, "/chip%02d", c);
      sink.record(base + suffix,
                  recs[static_cast<std::size_t>(c)]->to_jsonl());
    }
  }
  return out;
}

}  // namespace vlacnn::serving
