#include "irdrop/montecarlo.hpp"

#include <gtest/gtest.h>

#include "core/benchmarks.hpp"
#include "pdn/stack_builder.hpp"

namespace pdn3d::irdrop {
namespace {

struct McFixture {
  core::Benchmark bench = core::make_benchmark(core::BenchmarkKind::kStackedDdr3OffChip);
  pdn::BuiltStack built = pdn::build_stack(bench.stack, bench.baseline);
  PowerBinding power;
  IrAnalyzer analyzer{built.model, bench.stack.dram_fp, bench.stack.logic_fp, power};
};

TEST(MonteCarlo, PercentilesAreOrdered) {
  const McFixture f;
  MonteCarloConfig cfg;
  cfg.samples = 60;
  const auto r = sample_ir_distribution(f.analyzer, f.bench.stack.dram_spec, cfg);
  EXPECT_EQ(r.samples, 60);
  EXPECT_GT(r.mean_mv, 0.0);
  EXPECT_LE(r.p50_mv, r.p95_mv);
  EXPECT_LE(r.p95_mv, r.p99_mv);
  EXPECT_LE(r.p99_mv, r.max_mv + 1e-9);
}

TEST(MonteCarlo, WorstCaseBoundsTypicalOperation) {
  // The paper's design-time worst case (edge-column pair on the top die at
  // full activity) must upper-bound random operation comfortably.
  const McFixture f;
  const auto worst = f.analyzer
                         .analyze(power::parse_memory_state("0-0-0-2",
                                                            f.bench.stack.dram_spec, 1.0))
                         .dram_max_mv;
  MonteCarloConfig cfg;
  cfg.samples = 80;
  const auto r = sample_ir_distribution(f.analyzer, f.bench.stack.dram_spec, cfg);
  EXPECT_LT(r.p50_mv, worst);
  EXPECT_LE(r.max_mv, worst * 1.15);  // random states can come close, not far above
}

TEST(MonteCarlo, DeterministicBySeed) {
  const McFixture f;
  MonteCarloConfig cfg;
  cfg.samples = 30;
  const auto a = sample_ir_distribution(f.analyzer, f.bench.stack.dram_spec, cfg);
  const auto b = sample_ir_distribution(f.analyzer, f.bench.stack.dram_spec, cfg);
  EXPECT_DOUBLE_EQ(a.mean_mv, b.mean_mv);
  cfg.seed = 1234;
  const auto c = sample_ir_distribution(f.analyzer, f.bench.stack.dram_spec, cfg);
  EXPECT_NE(a.mean_mv, c.mean_mv);
}

TEST(MonteCarlo, LowerDemandLowersDistribution) {
  const McFixture f;
  MonteCarloConfig heavy;
  heavy.samples = 40;
  MonteCarloConfig light = heavy;
  light.io_demand = 0.4;
  const auto rh = sample_ir_distribution(f.analyzer, f.bench.stack.dram_spec, heavy);
  const auto rl = sample_ir_distribution(f.analyzer, f.bench.stack.dram_spec, light);
  EXPECT_LT(rl.mean_mv, rh.mean_mv);
}

TEST(ParallelMonteCarlo, BitwiseIdenticalAcrossThreadCounts) {
  // The determinism contract: per-sample counter-derived RNG streams and
  // index-slotted results make every statistic bitwise identical at any
  // thread count. EXPECT_EQ on doubles is deliberate.
  const McFixture f;
  MonteCarloConfig cfg;
  cfg.samples = 48;
  cfg.threads = 1;
  const auto base = sample_ir_distribution(f.analyzer, f.bench.stack.dram_spec, cfg);
  for (const int threads : {2, 8}) {
    cfg.threads = threads;
    const auto r = sample_ir_distribution(f.analyzer, f.bench.stack.dram_spec, cfg);
    EXPECT_EQ(r.samples, base.samples) << threads;
    EXPECT_EQ(r.mean_mv, base.mean_mv) << threads;
    EXPECT_EQ(r.p50_mv, base.p50_mv) << threads;
    EXPECT_EQ(r.p95_mv, base.p95_mv) << threads;
    EXPECT_EQ(r.p99_mv, base.p99_mv) << threads;
    EXPECT_EQ(r.max_mv, base.max_mv) << threads;
    EXPECT_EQ(r.skipped_samples, base.skipped_samples) << threads;
    EXPECT_EQ(r.last_failure, base.last_failure) << threads;
  }
}

TEST(ParallelMonteCarlo, RejectsNegativeThreads) {
  const McFixture f;
  MonteCarloConfig cfg;
  cfg.samples = 4;
  cfg.threads = -1;
  EXPECT_THROW(sample_ir_distribution(f.analyzer, f.bench.stack.dram_spec, cfg),
               std::invalid_argument);
}

TEST(MonteCarlo, RejectsBadConfig) {
  const McFixture f;
  MonteCarloConfig cfg;
  cfg.samples = 0;
  EXPECT_THROW(sample_ir_distribution(f.analyzer, f.bench.stack.dram_spec, cfg),
               std::invalid_argument);
  cfg.samples = 10;
  cfg.max_banks_per_die = 0;
  EXPECT_THROW(sample_ir_distribution(f.analyzer, f.bench.stack.dram_spec, cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace pdn3d::irdrop
