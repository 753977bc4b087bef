#include "obs/kernprof.h"

#include <cstdlib>

#include "obs/json_util.h"

namespace vlacnn::obs {

// -- env knobs ----------------------------------------------------------------

LabeledJsonlSink& kernprof_sink() {
  static LabeledJsonlSink* sink = new LabeledJsonlSink(
      "kernprof", "VLACNN_KERNPROF", std::getenv("VLACNN_KERNPROF"));
  return *sink;
}

IntervalKnob& kernprof_interval() {
  static IntervalKnob knob("VLACNN_KERNPROF_INTERVAL", []() -> const char* {
    return std::getenv("VLACNN_KERNPROF_INTERVAL");
  });
  return knob;
}

// -- profile records ----------------------------------------------------------

std::string KernProfRun::to_jsonl() const {
  std::string out;
  out += "{\"type\":\"kernel\"";
  json_append_kv(out, "net", net);
  json_append_kv(out, "layer", layer);
  json_append_kv(out, "algo", algo);
  json_append_kv(out, "vlen_bits", static_cast<std::uint64_t>(vlen_bits));
  json_append_kv(out, "l2_bytes", l2_bytes);
  json_append_kv(out, "lanes", static_cast<std::uint64_t>(lanes));
  json_append_kv(out, "attach", attach);
  json_append_kv(out, "interval_cycles", interval_cycles);
  json_append_kv(out, "cycles", cycles);
  json_append_kv(out, "compute_cycles", compute_cycles);
  json_append_kv(out, "mem_issue_cycles", mem_issue_cycles);
  json_append_kv(out, "mem_stall_cycles", mem_stall_cycles);
  json_append_kv(out, "scalar_cycles", scalar_cycles);
  json_append_kv(out, "phase_count", static_cast<std::uint64_t>(phases.size()));
  json_append_kv(out, "window_count",
                 static_cast<std::uint64_t>(windows.size()));
  out += "}\n";
  for (const KernProfPhase& p : phases) {
    out += "{\"type\":\"phase\"";
    json_append_kv(out, "name", p.name);
    json_append_kv(out, "cycles", p.cycles);
    json_append_kv(out, "raw_cycles", p.raw_cycles);
    json_append_kv(out, "compute_cycles", p.compute_cycles);
    json_append_kv(out, "mem_issue_cycles", p.mem_issue_cycles);
    json_append_kv(out, "mem_stall_cycles", p.mem_stall_cycles);
    json_append_kv(out, "scalar_cycles", p.scalar_cycles);
    json_append_kv(out, "vec_instructions", p.vec_instructions);
    json_append_kv(out, "vec_elems", p.vec_elems);
    json_append_kv(out, "avg_vl", p.avg_vl);
    json_append_kv(out, "flops", p.flops);
    json_append_kv(out, "l1_accesses", p.l1_accesses);
    json_append_kv(out, "l1_misses", p.l1_misses);
    json_append_kv(out, "l2_accesses", p.l2_accesses);
    json_append_kv(out, "l2_misses", p.l2_misses);
    json_append_kv(out, "mem_bytes", p.mem_bytes);
    out += "}\n";
  }
  for (const KernProfWindow& w : windows) {
    out += "{\"type\":\"window\"";
    json_append_kv(out, "t_start", w.t_start);
    json_append_kv(out, "t_end", w.t_end);
    json_append_kv(out, "compute_cycles", w.compute_cycles);
    json_append_kv(out, "mem_issue_cycles", w.mem_issue_cycles);
    json_append_kv(out, "mem_stall_cycles", w.mem_stall_cycles);
    json_append_kv(out, "scalar_cycles", w.scalar_cycles);
    json_append_kv(out, "avg_vl", w.avg_vl);
    json_append_kv(out, "lane_utilization", w.lane_utilization);
    json_append_kv(out, "l1_miss_rate", w.l1_miss_rate);
    json_append_kv(out, "l2_miss_rate", w.l2_miss_rate);
    json_append_kv(out, "dram_bytes_per_cycle", w.dram_bytes_per_cycle);
    json_append_kv(out, "mem_bytes", w.mem_bytes);
    out += "}\n";
  }
  return out;
}

}  // namespace vlacnn::obs
