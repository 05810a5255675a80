#include "irdrop/analysis.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "core/benchmarks.hpp"
#include "exec/thread_pool.hpp"
#include "floorplan/logic_floorplan.hpp"
#include "irdrop/lut.hpp"
#include "irdrop/montecarlo.hpp"
#include "obs/metrics.hpp"
#include "pdn/stack_builder.hpp"
#include "tech/presets.hpp"

namespace pdn3d::irdrop {
namespace {

struct Fixture {
  pdn::StackSpec spec;
  pdn::BuiltStack built;
  PowerBinding power;

  explicit Fixture(pdn::PdnConfig cfg = {}) {
    floorplan::DramFloorplanSpec ds;
    ds.width_mm = 6.8;
    ds.height_mm = 6.7;
    ds.bank_cols = 4;
    ds.bank_rows = 2;
    spec.dram_spec = ds;
    spec.dram_fp = floorplan::make_dram_floorplan(ds);
    spec.logic_fp = floorplan::make_t2_floorplan();
    spec.num_dram_dies = 4;
    spec.tech = tech::ddr3_technology();
    built = pdn::build_stack(spec, cfg);
  }

  IrAnalyzer analyzer() const {
    return IrAnalyzer(built.model, spec.dram_fp, spec.logic_fp, power);
  }

  power::MemoryState state(std::string_view s, double act = -1.0) const {
    return power::parse_memory_state(s, spec.dram_spec, act);
  }
};

TEST(IrAnalyzer, TopDieWorstInDefaultState) {
  const Fixture f;
  const auto a = f.analyzer();
  const auto r = a.analyze(f.state("0-0-0-2"));
  ASSERT_EQ(r.dram_dies.size(), 4u);
  // Monotone accumulation up the stack: each die's drop >= the one below.
  EXPECT_LT(r.dram_dies[0].max_mv, r.dram_dies[3].max_mv);
  EXPECT_DOUBLE_EQ(r.dram_max_mv, r.dram_dies[3].max_mv);
  EXPECT_GT(r.dram_max_mv, 5.0);
  EXPECT_LT(r.dram_max_mv, 100.0);
}

TEST(IrAnalyzer, BottomDieActiveDrawsLess) {
  const Fixture f;
  const auto a = f.analyzer();
  const double top = a.analyze(f.state("0-0-0-2")).dram_max_mv;
  const double bottom = a.analyze(f.state("2-0-0-0")).dram_max_mv;
  EXPECT_LT(bottom, top);
}

TEST(IrAnalyzer, IdleStackHasNegligibleDrop) {
  const Fixture f;
  const auto a = f.analyzer();
  const auto r = a.analyze(f.state("0-0-0-0"));
  EXPECT_LT(r.dram_max_mv, 6.0);
  EXPECT_GT(r.dram_max_mv, 0.0);  // idle power still flows
}

TEST(IrAnalyzer, PowerBookkeepingMatchesTable5Convention) {
  const Fixture f;
  const auto a = f.analyzer();
  const auto r = a.analyze(f.state("0-0-0-2", 1.0));
  EXPECT_NEAR(r.active_die_power_mw, 220.5, 1e-6);
  EXPECT_NEAR(r.total_power_mw, 310.5, 1e-6);

  const auto r50 = a.analyze(f.state("0-0-2-2", 0.5));
  EXPECT_NEAR(r50.active_die_power_mw, 175.5, 1e-6);
}

TEST(IrAnalyzer, ActivityReducesDrop) {
  const Fixture f;
  const auto a = f.analyzer();
  const double full = a.analyze(f.state("0-0-0-2", 1.0)).dram_max_mv;
  const double half = a.analyze(f.state("0-0-0-2", 0.5)).dram_max_mv;
  const double quarter = a.analyze(f.state("0-0-0-2", 0.25)).dram_max_mv;
  EXPECT_GT(full, half);
  EXPECT_GT(half, quarter);
}

TEST(IrAnalyzer, InjectionConservesCurrent) {
  const Fixture f;
  const auto a = f.analyzer();
  const auto st = f.state("0-0-0-2", 1.0);
  const auto sinks = a.injection(st);
  double total = 0.0;
  for (double s : sinks) total += s;
  // Total sink current = total DRAM power / VDD (no logic die off-chip).
  EXPECT_NEAR(total, 0.3105 / 1.5, 1e-6);
}

TEST(IrAnalyzer, StateDieCountMismatchThrows) {
  const Fixture f;
  const auto a = f.analyzer();
  EXPECT_THROW(a.analyze(f.state("0-0-2")), std::invalid_argument);
}

TEST(IrAnalyzer, LogicNoiseReportedOnChip) {
  pdn::PdnConfig cfg;
  cfg.mounting = pdn::Mounting::kOnChip;
  const Fixture f(cfg);
  const auto a = f.analyzer();
  const auto r = a.analyze(f.state("0-0-0-2"));
  EXPECT_GT(r.logic_max_mv, 10.0);

  const Fixture off;
  EXPECT_DOUBLE_EQ(off.analyzer().analyze(off.state("0-0-0-2")).logic_max_mv, 0.0);
}

TEST(IrAnalyzer, BlockReportRanksActiveBanksHottest) {
  const Fixture f;
  const auto a = f.analyzer();
  const auto report = a.block_report(f.state("0-0-0-2"), 3);
  ASSERT_EQ(report.size(), f.spec.dram_fp.blocks().size());
  // Hottest-first ordering.
  for (std::size_t i = 1; i < report.size(); ++i) {
    EXPECT_GE(report[i - 1].max_mv, report[i].max_mv);
  }
  // The hottest block on the active die is one of the two reading banks
  // (edge-column pair {0, 1}).
  ASSERT_NE(report.front().block, nullptr);
  EXPECT_EQ(report.front().block->type, floorplan::BlockType::kBankArray);
  EXPECT_LE(report.front().block->bank_index, 1);
  EXPECT_GE(report.front().max_mv, report.front().avg_mv);

  EXPECT_THROW(a.block_report(f.state("0-0-0-2"), 4), std::out_of_range);
  EXPECT_THROW(a.block_report(f.state("0-0-0-2"), -1), std::out_of_range);
}

// The multi-RHS batch path must be bitwise indistinguishable from per-state
// solves: the cross-request coalescing planner and the service's parity
// contract (docs/SERVICE.md) are built on this.
TEST(IrAnalyzer, AnalyzeBatchIsBitwiseIdenticalToStandalone) {
  const Fixture f;
  const auto a = f.analyzer();
  const std::vector<power::MemoryState> states = {
      f.state("0-0-0-2"), f.state("2-0-0-0"), f.state("0-0-2-2", 0.5),
      f.state("0-0-0-0")};
  const auto batched = a.analyze_batch(states);
  ASSERT_EQ(batched.size(), states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    const IrResult solo = a.analyze(states[i]);
    ASSERT_EQ(batched[i].dram_dies.size(), solo.dram_dies.size()) << "state " << i;
    for (std::size_t d = 0; d < solo.dram_dies.size(); ++d) {
      EXPECT_EQ(batched[i].dram_dies[d].max_mv, solo.dram_dies[d].max_mv);
      EXPECT_EQ(batched[i].dram_dies[d].avg_mv, solo.dram_dies[d].avg_mv);
    }
    EXPECT_EQ(batched[i].dram_max_mv, solo.dram_max_mv) << "state " << i;
    EXPECT_EQ(batched[i].logic_max_mv, solo.logic_max_mv);
    EXPECT_EQ(batched[i].total_power_mw, solo.total_power_mw);
    EXPECT_EQ(batched[i].active_die_power_mw, solo.active_die_power_mw);
  }
}

TEST(IrAnalyzer, AnalyzeBatchHandlesEdgeSizes) {
  const Fixture f;
  const auto a = f.analyzer();
  EXPECT_TRUE(a.analyze_batch({}).empty());

  const std::vector<power::MemoryState> one = {f.state("0-0-0-2")};
  const auto batched = a.analyze_batch(one);
  ASSERT_EQ(batched.size(), 1u);
  EXPECT_EQ(batched[0].dram_max_mv, a.analyze(one[0]).dram_max_mv);

  // A bad state anywhere in the batch fails the whole call (all-or-nothing).
  const std::vector<power::MemoryState> mixed = {f.state("0-0-0-2"), f.state("0-0-2")};
  EXPECT_THROW((void)a.analyze_batch(mixed), std::invalid_argument);
}

TEST(IrAnalyzer, ScratchReuseIsBitwiseStable) {
  // Repeated analyses reuse the thread's workspace; the answers must stay
  // bitwise identical to an analysis on a fresh thread's.
  const Fixture f;
  const auto a = f.analyzer();
  for (const char* s : {"0-0-0-2", "2-0-0-0", "1-1-0-0", "0-0-0-2"}) {
    double fresh = 0.0;
    std::thread([&] { fresh = a.analyze(f.state(s)).dram_max_mv; }).join();
    EXPECT_EQ(a.analyze(f.state(s)).dram_max_mv, fresh) << s;
  }
}

TEST(ConcurrentAnalyzer, PerChunkScratchAgreesWithSerial) {
  // One workspace per pool thread over one shared analyzer: results must be
  // bitwise identical to the serial pass (the sweep-engine contract).
  const Fixture f;
  const auto a = f.analyzer();
  const std::vector<std::string> names = {"0-0-0-2", "2-0-0-0", "1-1-0-0",
                                          "0-2-0-0", "0-0-2-0", "0-0-0-1"};
  std::vector<power::MemoryState> states;
  std::vector<double> expected;
  for (const auto& s : names) {
    states.push_back(f.state(s));
    expected.push_back(a.analyze(states.back()).dram_max_mv);
  }

  exec::ThreadPool pool(4);
  std::vector<double> got(states.size(), 0.0);
  pool.parallel_chunks(states.size(), [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) got[i] = a.analyze(states[i]).dram_max_mv;
  });
  for (std::size_t i = 0; i < states.size(); ++i) EXPECT_EQ(got[i], expected[i]) << names[i];
}

TEST(ConcurrentAnalyzer, SharedAnalyzerIsRaceFreeUnderTsan) {
  // Hammer one analyzer from many threads, each in its own workspace. The
  // assertions are light; the value of this test is running under
  // PDN3D_SANITIZE=thread (scripts/run_sanitized_tests.sh).
  const Fixture f;
  const auto a = f.analyzer();
  const auto st = f.state("0-0-0-2");
  const double expected = a.analyze(st).dram_max_mv;
  std::vector<std::thread> threads;
  std::vector<double> results(4, 0.0);
  for (std::size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep) results[t] = a.analyze(st).dram_max_mv;
    });
  }
  for (auto& th : threads) th.join();
  for (const double r : results) EXPECT_EQ(r, expected);
}

/// A paper benchmark's baseline analyzer on the sparse-direct start of a
/// cached design.
struct PaperDesign {
  core::Benchmark bench;
  pdn::BuiltStack built;
  IrAnalyzer analyzer;

  explicit PaperDesign(core::BenchmarkKind kind)
      : bench(core::make_benchmark(kind)), built(pdn::build_stack(bench.stack, bench.baseline)),
        analyzer(built.model, bench.stack.dram_fp, bench.stack.logic_fp, binding(bench),
                 SolverKind::kSparseDirect) {}

  static PowerBinding binding(const core::Benchmark& b) {
    PowerBinding power;
    power.dram = b.dram_power;
    power.logic = b.logic_power;
    power.dram_scale = b.power_scale;
    return power;
  }
};

TEST(ConcurrentWorkspace, GrowsOnceAndStaysWithinTwoBlocks) {
  // On a fresh thread, two Monte Carlo runs, a LUT build and a batch of three
  // states on wide-io share the thread's one workspace: it grows once, to a
  // full block of the design, and never holds more than the two blocks and
  // the per-node vectors (one slice's right-hand side, the rail and the
  // seven CG vectors).
  const PaperDesign wide(core::BenchmarkKind::kWideIo);
  const auto& spec = wide.bench.stack.dram_spec;
  const std::size_t n = wide.built.model.node_count();
  const std::size_t bound = (2 * linalg::kSolveBlock + 9) * n;
  std::thread([&] {
    try {
      const SolveWorkspace& ws = SolveWorkspace::local();
      EXPECT_EQ(ws.capacity(), 0u);
      obs::Counter& grows = obs::counter("solver.workspace_grows");
      const std::uint64_t before = grows.value();
      MonteCarloConfig mc;
      mc.samples = 20;
      mc.threads = 1;
      for (const std::uint64_t seed : {1u, 2u}) {
        mc.seed = seed;
        EXPECT_EQ(sample_ir_distribution(wide.analyzer, spec, mc).samples, 20);
        EXPECT_LE(ws.capacity(), bound);
      }
      EXPECT_EQ(IrLut::build(wide.analyzer, spec, 2, 1.0, 1).size(), 81u);
      EXPECT_LE(ws.capacity(), bound);
      const std::vector<power::MemoryState> states = {
          power::parse_memory_state("0-0-0-2", spec, -1.0),
          power::parse_memory_state("2-0-0-0", spec, -1.0),
          power::parse_memory_state("0-0-2-2", spec, 0.5)};
      EXPECT_EQ(wide.analyzer.analyze_batch(states).size(), 3u);
      EXPECT_LE(ws.capacity(), bound);
      EXPECT_GE(ws.capacity(), 2 * linalg::kSolveBlock * n);
      EXPECT_EQ(grows.value() - before, 1u);
    } catch (const std::exception& e) {
      ADD_FAILURE() << e.what();
    }
  }).join();
}

TEST(ConcurrentWorkspace, LutAtFourThreadsBesideMonteCarloMatchesSerial) {
  // A LUT build on four threads, with a Monte Carlo run on another thread
  // over the same analyzer, gives the one-thread table and distribution bit
  // for bit: every thread solves in its own workspace.
  const PaperDesign wide(core::BenchmarkKind::kWideIo);
  const auto& spec = wide.bench.stack.dram_spec;
  const IrLut serial = IrLut::build(wide.analyzer, spec, 2, 1.0, 1);
  MonteCarloConfig mc;
  mc.samples = 40;
  mc.threads = 1;
  const MonteCarloResult mc_serial = sample_ir_distribution(wide.analyzer, spec, mc);

  MonteCarloResult mc_beside;
  std::exception_ptr beside_error;
  std::jthread beside([&] {
    try {
      mc_beside = sample_ir_distribution(wide.analyzer, spec, mc);
    } catch (...) {
      beside_error = std::current_exception();
    }
  });
  const IrLut parallel = IrLut::build(wide.analyzer, spec, 2, 1.0, 4);
  beside.join();
  ASSERT_EQ(beside_error, nullptr);

  ASSERT_EQ(parallel.size(), serial.size());
  std::vector<int> counts(static_cast<std::size_t>(serial.die_count()), 0);
  for (std::size_t key = 0; key < serial.size(); ++key) {
    std::size_t k = key;
    for (int& c : counts) {
      c = static_cast<int>(k % 3);
      k /= 3;
    }
    EXPECT_EQ(parallel.max_ir_mv(counts), serial.max_ir_mv(counts)) << "key " << key;
  }
  EXPECT_EQ(mc_beside.samples, mc_serial.samples);
  EXPECT_EQ(mc_beside.mean_mv, mc_serial.mean_mv);
  EXPECT_EQ(mc_beside.p50_mv, mc_serial.p50_mv);
  EXPECT_EQ(mc_beside.p99_mv, mc_serial.p99_mv);
  EXPECT_EQ(mc_beside.max_mv, mc_serial.max_mv);
}

TEST(IrAnalyzer, MoreMetalLowersDrop) {
  pdn::PdnConfig thin;
  pdn::PdnConfig thick;
  thick.metal_usage_scale = 2.0;
  const Fixture f_thin(thin);
  const Fixture f_thick(thick);
  const double ir_thin = f_thin.analyzer().analyze(f_thin.state("0-0-0-2")).dram_max_mv;
  const double ir_thick = f_thick.analyzer().analyze(f_thick.state("0-0-0-2")).dram_max_mv;
  EXPECT_LT(ir_thick, ir_thin * 0.75);  // paper: 2x metal cuts IR > 40%
}

}  // namespace
}  // namespace pdn3d::irdrop
