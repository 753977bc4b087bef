// Tests for the simulated PMU (vpu/pmu.h, DESIGN.md §14): the exact
// per-phase cycle partition (a right-to-left fold of the published phase
// cycles reconstitutes the kernel total bit for bit, for every algorithm at
// sampled and unsampled scales), event-aligned counter windows with
// auto-coarsening, the error contracts, the VLACNN_KERNPROF knobs, and the
// deterministic kernel-profile sink.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "algos/conv_args.h"
#include "algos/registry.h"
#include "obs/kernprof.h"
#include "vpu/pmu.h"
#include "vpu/timing_model.h"

namespace vlacnn {
namespace {

// ------------------------------------------------------------- knobs -------

TEST(KernProfKnobs, IntervalEnvParsesStrictlyAndMalformedValuesThrow) {
  // ctest runs every test in its own process (gtest_discover_tests), so the
  // lazy one-shot env parse is fresh here; in a whole-binary run this test is
  // registered first in the file, before anything else touches the knob.
  setenv("VLACNN_KERNPROF_INTERVAL", "bogus", 1);
  EXPECT_THROW(obs::kernprof_interval().cycles(), std::runtime_error);
  setenv("VLACNN_KERNPROF_INTERVAL", "1e6trailing", 1);
  EXPECT_THROW(obs::kernprof_interval().cycles(), std::runtime_error);
  setenv("VLACNN_KERNPROF_INTERVAL", "0", 1);  // must be positive
  EXPECT_THROW(obs::kernprof_interval().cycles(), std::runtime_error);
  setenv("VLACNN_KERNPROF_INTERVAL", "-5e5", 1);
  EXPECT_THROW(obs::kernprof_interval().cycles(), std::runtime_error);
  setenv("VLACNN_KERNPROF_INTERVAL", "inf", 1);
  EXPECT_THROW(obs::kernprof_interval().cycles(), std::runtime_error);
  setenv("VLACNN_KERNPROF_INTERVAL", "2.5e5", 1);
  EXPECT_DOUBLE_EQ(obs::kernprof_interval().cycles(), 2.5e5);
  EXPECT_TRUE(obs::kernprof_interval().overridden());
  unsetenv("VLACNN_KERNPROF_INTERVAL");
  obs::kernprof_interval().set(1e6);  // restore the default value
}

TEST(KernProfKnobs, PathSetterGatesCollectionAndIntervalSetterValidates) {
  const std::string before = obs::kernprof_sink().path();
  obs::kernprof_sink().set_path("/tmp/kp.jsonl");
  EXPECT_TRUE(obs::kernprof_sink().enabled());
  EXPECT_EQ(obs::kernprof_sink().path(), "/tmp/kp.jsonl");
  obs::kernprof_sink().set_path("");
  EXPECT_FALSE(obs::kernprof_sink().enabled());
  obs::kernprof_sink().set_path(before);

  EXPECT_THROW(obs::kernprof_interval().set(0), std::invalid_argument);
  EXPECT_THROW(obs::kernprof_interval().set(-1e5), std::invalid_argument);
}

// ---------------------------------------------------------- partition ------

/// The consumer-side identity: phase cycles folded back-to-front (the order
/// vlacnn-report profile uses) must equal the kernel total bit for bit.
double fold_phases(const std::vector<obs::KernProfPhase>& phases) {
  double total = 0;
  for (std::size_t i = phases.size(); i-- > 0;) {
    total = phases[i].cycles + total;
  }
  return total;
}

TEST(Pmu, PartitionFoldsBitExactlyForEveryAlgorithmAndScale) {
  // Large enough that the kernels' deterministic sampling actually truncates
  // loops in the sampled variant (scales are then non-trivial), yet cheap.
  const ConvLayerDesc d{32, 24, 24, 32, 3, 3, 1, 1};  // winograd-applicable
  const std::string path = "/tmp/vlacnn_test_pmu_partition.jsonl";
  obs::kernprof_sink().set_path(path);
  for (Algo a : kAllAlgos) {
    ASSERT_TRUE(algo_applicable(a, d)) << to_string(a);
    for (const bool exact : {false, true}) {
      SimConfig config = make_sim_config(512, 1u << 20);
      config.sampler.exact = exact;
      obs::KernProfRun prof;
      const TimingStats s = conv_simulate(a, d, config, &prof);
      ASSERT_GT(s.cycles, 0.0) << to_string(a);
      ASSERT_FALSE(prof.phases.empty()) << to_string(a);
      // Bitwise, not approximate: the Sterbenz partition's whole point.
      EXPECT_EQ(fold_phases(prof.phases), s.cycles)
          << to_string(a) << (exact ? " exact" : " sampled");
      // "(other)" is always last; annotated phases precede it.
      EXPECT_EQ(prof.phases.back().name, Pmu::kOtherPhase);
      EXPECT_EQ(prof.cycles, s.cycles);
    }
  }
  obs::kernprof_sink().set_path("");
  obs::kernprof_sink().reset();
}

TEST(Pmu, ProfileNeverChangesSimulatedCycles) {
  const ConvLayerDesc d{16, 16, 16, 16, 3, 3, 1, 1};
  for (Algo a : kAllAlgos) {
    const SimConfig config = make_sim_config(512, 1u << 20);
    const TimingStats plain = conv_simulate(a, d, config);
    obs::kernprof_sink().set_path("/tmp/vlacnn_test_pmu_noeffect.jsonl");
    obs::KernProfRun prof;
    const TimingStats profiled = conv_simulate(a, d, config, &prof);
    obs::kernprof_sink().set_path("");
    obs::kernprof_sink().reset();
    EXPECT_EQ(plain.cycles, profiled.cycles) << to_string(a);
    EXPECT_EQ(plain.mem_bytes, profiled.mem_bytes) << to_string(a);
    EXPECT_EQ(plain.flops, profiled.flops) << to_string(a);
  }
}

TEST(Pmu, ExpectedPhaseNamesPerAlgorithm) {
  const ConvLayerDesc d{16, 16, 16, 16, 3, 3, 1, 1};
  obs::kernprof_sink().set_path("/tmp/vlacnn_test_pmu_names.jsonl");
  auto names = [&](Algo a) {
    obs::KernProfRun prof;
    conv_simulate(a, d, make_sim_config(512, 1u << 20), &prof);
    std::vector<std::string> out;
    for (const obs::KernProfPhase& p : prof.phases) out.push_back(p.name);
    return out;
  };
  using V = std::vector<std::string>;
  EXPECT_EQ(names(Algo::kDirect), (V{"direct-wide", "(other)"}));
  EXPECT_EQ(names(Algo::kGemm3), (V{"im2col", "macro-kernel", "(other)"}));
  EXPECT_EQ(names(Algo::kGemm6),
            (V{"im2col", "pack-b", "pack-a", "macro-kernel", "(other)"}));
  EXPECT_EQ(names(Algo::kWinograd),
            (V{"input-transform", "tuple-gemm", "output-transform",
               "(other)"}));
  obs::kernprof_sink().set_path("");
  obs::kernprof_sink().reset();
}

TEST(Pmu, OtherPhaseAbsorbsUnannotatedCyclesExactly) {
  Pmu pmu(1e9, true);
  TimingStats ts;
  auto advance = [&](double dc) {
    ts.cycles += dc;
    ts.compute_cycles += dc;
    pmu.on_event(ts);
  };
  pmu.begin_phase("a", ts);
  advance(0.1);  // 0.1 accumulates representation error on purpose
  advance(0.2);
  pmu.end_phase(ts);
  advance(5.0);  // un-annotated gap
  pmu.begin_phase("b", ts);
  advance(0.3);
  pmu.end_phase(ts);
  advance(2.0);  // trailing un-annotated work
  pmu.finalize(ts);

  ASSERT_EQ(pmu.phases().size(), 3u);
  EXPECT_EQ(pmu.phases()[0].name, "a");
  EXPECT_EQ(pmu.phases()[1].name, "b");
  EXPECT_EQ(pmu.phases()[2].name, Pmu::kOtherPhase);
  EXPECT_NEAR(pmu.phases()[2].raw_cycles, 7.0, 1e-12);
  double total = 0;
  for (std::size_t i = pmu.phases().size(); i-- > 0;) {
    total = pmu.phases()[i].cycles + total;
  }
  EXPECT_EQ(total, ts.cycles);  // bitwise
}

TEST(Pmu, RepeatVisitsOfOnePhaseAccumulate) {
  Pmu pmu(1e9, true);
  TimingStats ts;
  for (int visit = 0; visit < 3; ++visit) {
    pmu.begin_phase("loop", ts);
    ts.cycles += 10.0;
    ts.vec_instructions += 2.0;
    pmu.on_event(ts);
    pmu.end_phase(ts);
    ts.cycles += 1.0;  // inter-visit gap
    pmu.on_event(ts);
  }
  pmu.finalize(ts);
  ASSERT_EQ(pmu.phases().size(), 2u);  // "loop" + "(other)"
  EXPECT_EQ(pmu.phases()[0].name, "loop");
  EXPECT_DOUBLE_EQ(pmu.phases()[0].raw_cycles, 30.0);
  EXPECT_DOUBLE_EQ(pmu.phases()[0].vec_instructions, 6.0);
  EXPECT_DOUBLE_EQ(pmu.phases()[1].raw_cycles, 3.0);
}

// ------------------------------------------------------------ windows ------

TEST(Pmu, WindowsAreEventAlignedAndPartitionTheRun) {
  Pmu pmu(100.0, true);  // pinned cadence: no coarsening
  TimingStats ts;
  auto advance = [&](double dc, double bytes) {
    ts.cycles += dc;
    ts.compute_cycles += dc;
    ts.mem_bytes += bytes;
    pmu.on_event(ts);
  };
  // Events of 40 cycles each: boundaries at 100, 200, ... are crossed by the
  // events ending at 120, 240, ... — window ends snap to event ends.
  for (int i = 0; i < 7; ++i) advance(40.0, 8.0);  // ends at 280
  pmu.finalize(ts);

  const auto& ws = pmu.windows();
  ASSERT_EQ(ws.size(), 3u);  // [0,120) [120,240) [240,280] (trailing partial)
  EXPECT_DOUBLE_EQ(ws[0].t_start, 0.0);
  EXPECT_DOUBLE_EQ(ws[0].t_end, 120.0);
  EXPECT_DOUBLE_EQ(ws[1].t_end, 240.0);
  EXPECT_DOUBLE_EQ(ws[2].t_end, 280.0);
  double bytes = 0;
  for (std::size_t i = 0; i < ws.size(); ++i) {
    if (i > 0) {
      EXPECT_EQ(ws[i].t_start, ws[i - 1].t_end);  // no gaps
    }
    bytes += ws[i].mem_bytes;
  }
  EXPECT_DOUBLE_EQ(bytes, ts.mem_bytes);  // deltas partition the counters
  EXPECT_DOUBLE_EQ(ws[0].dram_bytes_per_cycle(), 24.0 / 120.0);
}

TEST(Pmu, AutoCoarseningMergesPairsAndDoublesInterval) {
  Pmu pmu(10.0, false, 4);
  TimingStats ts;
  for (int i = 0; i < 100; ++i) {
    ts.cycles += 10.0;
    ts.compute_cycles += 10.0;
    pmu.on_event(ts);
  }
  pmu.finalize(ts);
  EXPECT_GT(pmu.interval_cycles(), 10.0);  // doubled at least once
  EXPECT_LE(pmu.windows().size(), 4u);
  // Merged windows still tile the run contiguously from 0 to the total.
  const auto& ws = pmu.windows();
  ASSERT_FALSE(ws.empty());
  EXPECT_DOUBLE_EQ(ws.front().t_start, 0.0);
  EXPECT_DOUBLE_EQ(ws.back().t_end, ts.cycles);
  for (std::size_t i = 1; i < ws.size(); ++i) {
    EXPECT_EQ(ws[i].t_start, ws[i - 1].t_end);
  }
}

TEST(Pmu, PinnedIntervalNeverCoarsens) {
  Pmu pmu(10.0, true, 4);
  TimingStats ts;
  for (int i = 0; i < 40; ++i) {
    ts.cycles += 10.0;
    pmu.on_event(ts);
  }
  pmu.finalize(ts);
  EXPECT_DOUBLE_EQ(pmu.interval_cycles(), 10.0);
  EXPECT_EQ(pmu.windows().size(), 40u);  // unbounded when pinned
}

// ------------------------------------------------------------- errors ------

TEST(Pmu, ConstructorValidates) {
  EXPECT_THROW(Pmu(0.0), std::invalid_argument);
  EXPECT_THROW(Pmu(-100.0), std::invalid_argument);
  EXPECT_THROW(Pmu(1e6, false, 1), std::invalid_argument);  // cannot merge
  EXPECT_NO_THROW(Pmu(1e6, false, 2));
}

TEST(Pmu, PhaseAndFinalizeContracts) {
  TimingStats ts;
  Pmu pmu(1e6);
  pmu.begin_phase("a", ts);
  EXPECT_THROW(pmu.begin_phase("b", ts), std::logic_error);  // no nesting
  EXPECT_THROW(pmu.finalize(ts), std::logic_error);  // phase still open
  pmu.end_phase(ts);
  EXPECT_THROW(pmu.end_phase(ts), std::logic_error);  // nothing open
  pmu.finalize(ts);
  EXPECT_TRUE(pmu.finalized());
  EXPECT_THROW(pmu.finalize(ts), std::logic_error);           // double seal
  EXPECT_THROW(pmu.begin_phase("c", ts), std::logic_error);   // after seal
}

TEST(PmuPhaseGuard, InertWithoutModelOrPmu) {
  { PmuPhase guard(nullptr, "x"); }  // null model: no-op
  TimingModel tm(VpuConfig{512, 8}, nullptr);
  { PmuPhase guard(&tm, "x"); }  // no PMU attached: no-op
  Pmu pmu(1e6);
  tm.set_pmu(&pmu);
  {
    PmuPhase guard(&tm, "x");
    EXPECT_TRUE(pmu.in_phase());
  }
  EXPECT_FALSE(pmu.in_phase());
}

// --------------------------------------------------------------- sink ------

TEST(KernProfSink, WritesBlocksInSortedLabelOrderWithRunHeaders) {
  namespace fs = std::filesystem;
  const fs::path file =
      fs::temp_directory_path() / "vlacnn_test_kernprof_sink.jsonl";
  const std::string before = obs::kernprof_sink().path();
  obs::kernprof_sink().set_path(file.string());
  obs::kernprof_sink().reset();
  // Recorded out of order; rewritten labels take the last write.
  obs::kernprof_sink().record("zzz", "{\"type\":\"kernel\"}\n");
  obs::kernprof_sink().record("aaa", "{\"type\":\"kernel\"}\n");
  obs::kernprof_sink().record("zzz", "{\"type\":\"kernel\",\"v\":2}\n");
  EXPECT_EQ(obs::kernprof_sink().block_count(), 2u);
  const std::string path = obs::kernprof_sink().write_file();
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(),
            "{\"type\":\"run\",\"label\":\"aaa\"}\n"
            "{\"type\":\"kernel\"}\n"
            "{\"type\":\"run\",\"label\":\"zzz\"}\n"
            "{\"type\":\"kernel\",\"v\":2}\n");
  obs::kernprof_sink().reset();
  obs::kernprof_sink().set_path(before);
  fs::remove(file);
}

TEST(KernProfSink, WriteWithoutPathThrows) {
  const std::string before = obs::kernprof_sink().path();
  obs::kernprof_sink().set_path("");
  EXPECT_THROW(obs::kernprof_sink().write_file(), std::runtime_error);
  obs::kernprof_sink().set_path(before);
}

TEST(KernProfRun, JsonlShapeAndLabelFallback) {
  // Outside a network sweep (empty net) the label falls back to the layer
  // shape string; the driver is exercised end-to-end via conv_simulate.
  const ConvLayerDesc d{4, 8, 8, 4, 3, 3, 1, 1};
  obs::kernprof_sink().set_path("/tmp/vlacnn_test_pmu_label.jsonl");
  obs::kernprof_sink().reset();
  obs::KernProfRun prof;
  conv_simulate(Algo::kGemm3, d, make_sim_config(512, 1u << 20), &prof);
  EXPECT_EQ(prof.net, "");
  EXPECT_EQ(prof.label.find(d.to_string()), 0u);  // shape-string head
  EXPECT_NE(prof.label.find("/gemm3/vlen512/"), std::string::npos);
  EXPECT_NE(prof.label.find("/lanes8/int"), std::string::npos);
  const std::string jsonl = prof.to_jsonl();
  EXPECT_EQ(jsonl.find("{\"type\":\"kernel\""), 0u);
  EXPECT_NE(jsonl.find("{\"type\":\"phase\",\"name\":\"im2col\""),
            std::string::npos);
  EXPECT_EQ(obs::kernprof_sink().block_count(), 1u);
  obs::kernprof_sink().set_path("");
  obs::kernprof_sink().reset();
}

}  // namespace
}  // namespace vlacnn
