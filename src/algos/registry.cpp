#include "algos/registry.h"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "algos/direct.h"
#include "algos/gemm3.h"
#include "algos/gemm6.h"
#include "algos/winograd.h"
#include "obs/kernprof.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "vpu/functional_engine.h"
#include "vpu/pmu.h"
#include "vpu/trace_engine.h"

namespace vlacnn {

SimConfig make_sim_config(std::uint32_t vlen_bits, std::uint64_t l2_bytes,
                          std::uint32_t lanes, VpuAttach attach) {
  SimConfig c;
  c.vpu.vlen_bits = vlen_bits;
  c.vpu.lanes = lanes;
  c.vpu.attach = attach;
  c.mem.l2.size_bytes = l2_bytes;
  c.mem.l2.ways = 16;
  c.mem.attach = attach;
  return c;
}

namespace {

std::vector<float> flatten_nhwc(const Tensor& in) {
  Tensor t = in.to_layout(Layout::kNHWC);
  return std::vector<float>(t.data(), t.data() + t.size());
}

}  // namespace

std::vector<float> reformat_weights_direct(const ConvLayerDesc& d,
                                           const std::vector<float>& w,
                                           std::uint64_t mvl) {
  // OIHW -> [oc/mvl][kh][kw][ic][block]: unit-stride weight-vector loads with
  // a contiguous per-segment working set (avoids the power-of-two set-aliasing
  // a plain HWIO layout suffers in the L2).
  std::vector<float> out(d.weight_elems());
  const std::uint64_t block = std::min<std::uint64_t>(mvl, d.oc);
  std::size_t base = 0;
  for (int ob = 0; ob < d.oc; ob += static_cast<int>(block)) {
    const std::uint64_t cur =
        std::min<std::uint64_t>(block, d.oc - static_cast<std::uint64_t>(ob));
    for (int ky = 0; ky < d.kh; ++ky) {
      for (int kx = 0; kx < d.kw; ++kx) {
        for (int ic = 0; ic < d.ic; ++ic) {
          for (std::uint64_t b = 0; b < cur; ++b) {
            const std::size_t oc = static_cast<std::size_t>(ob) + b;
            out[base + ((static_cast<std::size_t>(ky) * d.kw + kx) * d.ic +
                        ic) * cur + b] =
                w[((oc * d.ic + ic) * d.kh + ky) * d.kw + kx];
          }
        }
      }
    }
    base += static_cast<std::size_t>(d.kh) * d.kw * d.ic * cur;
  }
  return out;
}

namespace {

/// The shared timing-simulation body. `pmu`, when non-null, is attached to
/// the TimingModel for the duration of the run (phase annotations + counter
/// windows); it is pure accounting and never changes the returned stats.
TimingStats simulate_impl(Algo algo, const ConvLayerDesc& d,
                          const SimConfig& config_in, Pmu* pmu) {
  if (!algo_applicable(algo, d)) {
    throw std::invalid_argument("conv_simulate: " + std::string(to_string(algo)) +
                                " not applicable to " + d.to_string());
  }
  SimConfig config = config_in;
  config.mem.attach = config.vpu.attach;
  MemorySystem mem(config.mem);
  TimingModel timing(config.vpu, &mem, config.timing);
  timing.set_pmu(pmu);
  TraceEngine eng(config.vpu, &timing);

  // Bind order matches conv_functional's per-algorithm order exactly, so a
  // hybrid functional+timing run sees identical virtual addresses (checked by
  // Simulation.HybridFunctionalTimingMatchesTrace).
  const BufView in = eng.bind(nullptr, d.in_elems());

  switch (algo) {
    case Algo::kDirect: {
      const BufView w = eng.bind(nullptr, d.weight_elems());
      const BufView out = direct_uses_wide(d, config.vpu.mvl())
                              ? eng.alloc(d.out_elems()).view
                              : eng.bind(nullptr, d.out_elems());
      conv_direct(eng, d, in, w, out, config.sampler);
      break;
    }
    case Algo::kGemm3: {
      const BufView w = eng.bind(nullptr, d.weight_elems());
      const BufView out = eng.bind(nullptr, d.out_elems());
      conv_gemm3(eng, d, in, w, out, config.sampler);
      break;
    }
    case Algo::kGemm6: {
      const BufView w = eng.bind(nullptr, d.weight_elems());
      const BufView out = eng.bind(nullptr, d.out_elems());
      conv_gemm6(eng, d, in, w, out, config.blocks, config.sampler);
      break;
    }
    case Algo::kWinograd: {
      const BufView u = eng.bind(
          nullptr, 64ull * static_cast<std::uint64_t>(d.oc) * d.ic);
      const BufView out = eng.bind(nullptr, d.out_elems());
      conv_winograd(eng, d, in, u, out, config.sampler);
      break;
    }
  }
  return timing.stats();
}

/// Grid-point label for the kernel-profile sink, matching report::entry_key
/// when the point carries a (net, layer) identity; shape-string fallback
/// otherwise. Built here rather than via src/report — the algos layer sits
/// below report in the include order.
std::string kernprof_label(Algo algo, const ConvLayerDesc& d,
                           const SimConfig& c) {
  std::string head;
  if (!c.net.empty()) {
    char layer[8];
    std::snprintf(layer, sizeof layer, "L%02d", c.layer);
    head = c.net + "/" + layer;
  } else {
    head = d.to_string();
  }
  return head + "/" + to_string(algo) + "/vlen" +
         std::to_string(c.vpu.vlen_bits) + "/l2:" +
         std::to_string(c.mem.l2.size_bytes) + "/lanes" +
         std::to_string(c.vpu.lanes) + "/" +
         (c.vpu.attach == VpuAttach::kIntegratedL1 ? "int" : "dec");
}

/// Convert a finalized PMU into the obs-layer profile record.
obs::KernProfRun kernprof_run_from_pmu(const Pmu& pmu, Algo algo,
                                       const ConvLayerDesc& d,
                                       const SimConfig& c,
                                       const TimingStats& stats) {
  obs::KernProfRun run;
  run.label = kernprof_label(algo, d, c);
  run.net = c.net;
  run.layer = c.layer;
  run.algo = to_string(algo);
  run.vlen_bits = c.vpu.vlen_bits;
  run.l2_bytes = c.mem.l2.size_bytes;
  run.lanes = c.vpu.lanes;
  run.attach = c.vpu.attach == VpuAttach::kIntegratedL1 ? "int" : "dec";
  run.interval_cycles = pmu.interval_cycles();
  run.cycles = stats.cycles;
  run.compute_cycles = stats.compute_cycles;
  run.mem_issue_cycles = stats.mem_issue_cycles;
  run.mem_stall_cycles = stats.mem_stall_cycles;
  run.scalar_cycles = stats.scalar_cycles;
  for (const PmuPhaseStats& p : pmu.phases()) {
    obs::KernProfPhase out;
    out.name = p.name;
    out.cycles = p.cycles;
    out.raw_cycles = p.raw_cycles;
    out.compute_cycles = p.compute_cycles;
    out.mem_issue_cycles = p.mem_issue_cycles;
    out.mem_stall_cycles = p.mem_stall_cycles;
    out.scalar_cycles = p.scalar_cycles;
    out.vec_instructions = p.vec_instructions;
    out.vec_elems = p.vec_elems;
    out.avg_vl = p.avg_vl();
    out.flops = p.flops;
    out.l1_accesses = p.first_level_accesses;
    out.l1_misses = p.first_level_misses;
    out.l2_accesses = p.l2_accesses;
    out.l2_misses = p.l2_misses;
    out.mem_bytes = p.mem_bytes;
    run.phases.push_back(std::move(out));
  }
  for (const PmuWindow& w : pmu.windows()) {
    obs::KernProfWindow out;
    out.t_start = w.t_start;
    out.t_end = w.t_end;
    out.compute_cycles = w.compute_cycles;
    out.mem_issue_cycles = w.mem_issue_cycles;
    out.mem_stall_cycles = w.mem_stall_cycles;
    out.scalar_cycles = w.scalar_cycles;
    out.avg_vl = w.avg_vl();
    out.lane_utilization = w.lane_utilization(c.vpu.lanes);
    out.l1_miss_rate = w.l1_miss_rate();
    out.l2_miss_rate = w.l2_miss_rate();
    out.dram_bytes_per_cycle = w.dram_bytes_per_cycle();
    out.mem_bytes = w.mem_bytes;
    run.windows.push_back(out);
  }
  return run;
}

}  // namespace

TimingStats conv_simulate_no_obs(Algo algo, const ConvLayerDesc& d,
                                 const SimConfig& config) {
  return simulate_impl(algo, d, config, nullptr);
}

TimingStats conv_simulate(Algo algo, const ConvLayerDesc& d,
                          const SimConfig& config, obs::KernProfRun* profile) {
  obs::Span span("conv_simulate");
  if (span.active()) {
    span.arg("algo", to_string(algo));
    span.arg("layer", d.to_string());
    span.arg("vlen", std::to_string(config.vpu.vlen_bits));
  }
  TimingStats stats;
  if (obs::kernprof_sink().enabled()) {
    Pmu pmu(obs::kernprof_interval().cycles(),
            obs::kernprof_interval().overridden());
    stats = simulate_impl(algo, d, config, &pmu);
    pmu.finalize(stats);
    obs::KernProfRun run = kernprof_run_from_pmu(pmu, algo, d, config, stats);
    obs::kernprof_sink().record(run.label, run.to_jsonl());
    if (profile != nullptr) *profile = std::move(run);
  } else {
    stats = simulate_impl(algo, d, config, nullptr);
  }
  if (obs::metrics_enabled()) {
    // Simulated cycles per point; the matching host cost lands in the
    // span.conv_simulate.us histogram, so the report shows both sides of the
    // simulated-cycles vs host-time ratio.
    static obs::Histogram& cycles =
        obs::Registry::global().histogram("conv_simulate.cycles");
    cycles.observe(static_cast<std::uint64_t>(stats.cycles));
  }
  return stats;
}

Tensor conv_functional(Algo algo, const ConvLayerDesc& d, const Tensor& in,
                       const std::vector<float>& weights_oihw,
                       const VpuConfig& vpu, TimingStats* timing_out,
                       const SimConfig* config_in) {
  if (!algo_applicable(algo, d)) {
    throw std::invalid_argument("conv_functional: algorithm not applicable");
  }
  if (in.layout() != Layout::kNCHW || in.c() != d.ic || in.h() != d.ih ||
      in.w() != d.iw) {
    throw std::invalid_argument("conv_functional: input shape/layout mismatch");
  }
  if (weights_oihw.size() != d.weight_elems()) {
    throw std::invalid_argument("conv_functional: weight size mismatch");
  }

  SimConfig config = config_in ? *config_in : SimConfig{};
  config.vpu = vpu;
  config.mem.attach = vpu.attach;
  MemorySystem mem(config.mem);
  TimingModel timing(vpu, &mem, config.timing);
  FunctionalEngine eng(vpu, timing_out ? &timing : nullptr);

  Tensor out(d.oc, d.oh(), d.ow(), Layout::kNCHW);

  switch (algo) {
    case Algo::kDirect: {
      if (direct_uses_wide(d, vpu.mvl())) {
        const std::vector<float> in_nhwc = flatten_nhwc(in);
        const std::vector<float> w =
            reformat_weights_direct(d, weights_oihw, vpu.mvl());
        const BufView in_v = eng.bind(in_nhwc.data(), in_nhwc.size());
        const BufView w_v = eng.bind(w.data(), w.size());
        Scratch out_nhwc = eng.alloc(d.out_elems());
        conv_direct(eng, d, in_v, w_v, out_nhwc.view, config.sampler);
        // Host-side layout restore (uncharged, like the forward conversion).
        const int oh = d.oh();
        const int ow = d.ow();
        for (int c = 0; c < d.oc; ++c) {
          for (int y = 0; y < oh; ++y) {
            for (int x = 0; x < ow; ++x) {
              out.at(c, y, x) =
                  (*out_nhwc.storage)[(static_cast<std::size_t>(y) * ow + x) *
                                          d.oc +
                                      c];
            }
          }
        }
      } else {
        // Binds hoisted into statements: argument evaluation order is
        // unspecified, and the arena addresses must match conv_simulate's.
        const BufView in_v = eng.bind(in.data(), in.size());
        const BufView w_v = eng.bind(weights_oihw.data(), weights_oihw.size());
        const BufView out_v = eng.bind(out.data(), out.size());
        conv_direct(eng, d, in_v, w_v, out_v, config.sampler);
      }
      break;
    }
    case Algo::kGemm3: {
      const BufView in_v = eng.bind(in.data(), in.size());
      const BufView w_v = eng.bind(weights_oihw.data(), weights_oihw.size());
      const BufView out_v = eng.bind(out.data(), out.size());
      conv_gemm3(eng, d, in_v, w_v, out_v, config.sampler);
      break;
    }
    case Algo::kGemm6: {
      const BufView in_v = eng.bind(in.data(), in.size());
      const BufView w_v = eng.bind(weights_oihw.data(), weights_oihw.size());
      const BufView out_v = eng.bind(out.data(), out.size());
      conv_gemm6(eng, d, in_v, w_v, out_v, config.blocks, config.sampler);
      break;
    }
    case Algo::kWinograd: {
      std::vector<float> u(64ull * static_cast<std::uint64_t>(d.oc) * d.ic);
      winograd_prepare_weights(d, weights_oihw.data(), u.data());
      const BufView in_v = eng.bind(in.data(), in.size());
      const BufView u_v = eng.bind(u.data(), u.size());
      const BufView out_v = eng.bind(out.data(), out.size());
      conv_winograd(eng, d, in_v, u_v, out_v, config.sampler);
      break;
    }
  }
  if (timing_out != nullptr) *timing_out = timing.stats();
  return out;
}

}  // namespace vlacnn
