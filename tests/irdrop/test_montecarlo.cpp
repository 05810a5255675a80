#include "irdrop/montecarlo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/benchmarks.hpp"
#include "exec/cancel.hpp"
#include "faults/faults.hpp"
#include "obs/metrics.hpp"
#include "pdn/stack_builder.hpp"
#include "util/checkpoint.hpp"
#include "util/stats.hpp"

namespace pdn3d::irdrop {
namespace {

struct McFixture {
  core::Benchmark bench = core::make_benchmark(core::BenchmarkKind::kStackedDdr3OffChip);
  pdn::BuiltStack built = pdn::build_stack(bench.stack, bench.baseline);
  PowerBinding power;
  IrAnalyzer analyzer{built.model, bench.stack.dram_fp, bench.stack.logic_fp, power};
};

/// An analyzer on the cached factor (the sweeps' block path) whose samples
/// with one active die cannot be solved: their activity of 1 overflows the
/// activity polynomial to inf, so their sink currents are non-finite, while
/// samples with more active dies (activity <= 0.5) stay finite.
struct MixedFixture {
  core::Benchmark bench = core::make_benchmark(core::BenchmarkKind::kStackedDdr3OffChip);
  pdn::BuiltStack built = pdn::build_stack(bench.stack, bench.baseline);
  PowerBinding power = [] {
    PowerBinding p;
    p.dram.p1 = std::numeric_limits<double>::max();
    p.dram.p2 = std::numeric_limits<double>::max();
    p.dram_scale = 1e-300;
    return p;
  }();
  IrAnalyzer analyzer{built.model, bench.stack.dram_fp, bench.stack.logic_fp, power,
                      SolverKind::kSparseDirect};
};

/// The same stack on the cached factor, where every sample solves: the
/// blocks of a design the service keeps.
struct FactorFixture {
  core::Benchmark bench = core::make_benchmark(core::BenchmarkKind::kStackedDdr3OffChip);
  pdn::BuiltStack built = pdn::build_stack(bench.stack, bench.baseline);
  PowerBinding power;
  IrAnalyzer analyzer{built.model, bench.stack.dram_fp, bench.stack.logic_fp, power,
                      SolverKind::kSparseDirect};
};

void expect_same(const MonteCarloResult& a, const MonteCarloResult& b) {
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.mean_mv, b.mean_mv);
  EXPECT_EQ(a.p50_mv, b.p50_mv);
  EXPECT_EQ(a.p95_mv, b.p95_mv);
  EXPECT_EQ(a.p99_mv, b.p99_mv);
  EXPECT_EQ(a.max_mv, b.max_mv);
  EXPECT_EQ(a.skipped_samples, b.skipped_samples);
  EXPECT_EQ(a.last_failure, b.last_failure);
}

/// Keep the checkpoint's header and its first @p keep entries (index order).
void truncate_entries(const std::string& path, std::size_t keep) {
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), keep + 1);
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i <= keep; ++i) out << lines[i] << "\n";
}

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

TEST(MonteCarlo, UnsolvableSamplesInABlockSkipAsTheyWouldAlone) {
  // The per-sample path: analyze() of each sample's state alone, skipping
  // (and reporting) the ones that throw. The sampler solves blocks of
  // samples and must give the same result to the bit.
  const MixedFixture f;
  MonteCarloConfig cfg;
  cfg.samples = 24;
  const int dies = f.analyzer.model().dram_die_count();
  const int banks = f.bench.stack.dram_spec.bank_cols * f.bench.stack.dram_spec.bank_rows;
  std::vector<double> kept;
  std::vector<bool> failed;
  MonteCarloResult expected;
  for (std::size_t s = 0; s < static_cast<std::size_t>(cfg.samples); ++s) {
    try {
      kept.push_back(f.analyzer.analyze(draw_sample(cfg, s, dies, banks)).dram_max_mv);
      failed.push_back(false);
    } catch (const core::NumericalError& e) {
      ++expected.skipped_samples;
      expected.last_failure = e.status().to_string();
      failed.push_back(true);
    }
  }
  // The first block holds both kinds of sample.
  ASSERT_NE(std::count(failed.begin(), failed.begin() + 8, true), 0);
  ASSERT_NE(std::count(failed.begin(), failed.begin() + 8, false), 0);
  expected.samples = cfg.samples - expected.skipped_samples;
  expected.mean_mv = util::mean(kept);
  expected.p50_mv = util::percentile(kept, 50.0);
  expected.p95_mv = util::percentile(kept, 95.0);
  expected.p99_mv = util::percentile(kept, 99.0);
  expected.max_mv = util::max_value(kept);

  for (const int threads : {1, 8}) {
    SCOPED_TRACE(threads);
    cfg.threads = threads;
    expect_same(sample_ir_distribution(f.analyzer, f.bench.stack.dram_spec, cfg), expected);
  }
}

TEST(ParallelMonteCarlo, ResumeMidBlockIsBitwiseTheStraightRun) {
  // A checkpoint cut inside a block: its replayed samples (solved and
  // skipped ones) leave the block, and the rest solve to the same bits at
  // one and at eight threads.
  const MixedFixture f;
  MonteCarloConfig cfg;
  cfg.samples = 20;
  cfg.threads = 1;
  const auto truth = sample_ir_distribution(f.analyzer, f.bench.stack.dram_spec, cfg);
  ASSERT_GT(truth.skipped_samples, 0);

  const std::string path = testing::TempDir() + "pdn3d_mc_blocks.ckpt";
  std::remove(path.c_str());
  const std::uint64_t key = util::checkpoint_key("mc-blocks-test");
  const auto run = [&](int threads, bool resume, std::uint64_t resumed) {
    auto ckpt = util::SweepCheckpoint::open(path, key, 20, resume);
    EXPECT_EQ(ckpt.resumed(), resumed);
    cfg.threads = threads;
    cfg.checkpoint = &ckpt;
    expect_same(sample_ir_distribution(f.analyzer, f.bench.stack.dram_spec, cfg), truth);
    cfg.checkpoint = nullptr;
  };
  {
    SCOPED_TRACE("checkpointed, threads 8");
    run(8, false, 0);
  }
  ASSERT_NO_FATAL_FAILURE(truncate_entries(path, 5));
  {
    SCOPED_TRACE("resumed mid-block, threads 8");
    run(8, true, 5);
  }
  ASSERT_NO_FATAL_FAILURE(truncate_entries(path, 11));
  {
    SCOPED_TRACE("resumed mid-block, threads 1");
    run(1, true, 11);
  }
  std::remove(path.c_str());
}

TEST(ParallelMonteCarlo, PrefixReplayIsBitwiseTheStraightRun) {
  // A run that replays k verified samples and solves the rest returns the
  // straight run's result, and leaves every sample it solved in the prefix:
  // k = 0, inside a block, on a block boundary, and past the request.
  const McFixture f;
  MonteCarloConfig cfg;
  cfg.samples = 24;
  cfg.threads = 1;
  const auto truth = sample_ir_distribution(f.analyzer, f.bench.stack.dram_spec, cfg);
  const int dies = f.analyzer.model().dram_die_count();
  const int banks = f.bench.stack.dram_spec.bank_cols * f.bench.stack.dram_spec.bank_rows;
  std::vector<double> lone;
  for (std::size_t s = 0; s < 40; ++s) {
    lone.push_back(f.analyzer.analyze(draw_sample(cfg, s, dies, banks)).dram_max_mv);
  }
  auto& reused = obs::counter("montecarlo.samples_reused");
  auto& analyzed = obs::counter("analysis.states_analyzed");
  for (const std::size_t k : {0u, 5u, 16u, 40u}) {
    const std::vector<double> head(lone.begin(), lone.begin() + static_cast<std::ptrdiff_t>(k));
    for (const int threads : {1, 8}) {
      SCOPED_TRACE(testing::Message() << "k " << k << ", threads " << threads);
      std::vector<double> prefix = head;
      cfg.threads = threads;
      cfg.prefix = &prefix;
      const std::uint64_t reused0 = reused.value();
      const std::uint64_t analyzed0 = analyzed.value();
      expect_same(sample_ir_distribution(f.analyzer, f.bench.stack.dram_spec, cfg), truth);
      EXPECT_EQ(reused.value() - reused0, std::min<std::size_t>(k, 24));
      EXPECT_EQ(analyzed.value() - analyzed0, 24 - std::min<std::size_t>(k, 24));
      const std::size_t grown = std::max<std::size_t>(k, 24);
      EXPECT_EQ(prefix, std::vector<double>(lone.begin(),
                                            lone.begin() + static_cast<std::ptrdiff_t>(grown)));
    }
  }
}

TEST(MonteCarlo, PrefixStopsBeforeTheFirstSkippedSample) {
  // Only the solved samples before the first skip are kept, so a second run
  // solves the skipped ones again and reports them as the first run did.
  const MixedFixture f;
  MonteCarloConfig cfg;
  cfg.samples = 24;
  cfg.threads = 1;
  const auto straight = sample_ir_distribution(f.analyzer, f.bench.stack.dram_spec, cfg);
  ASSERT_GT(straight.skipped_samples, 0);
  const int dies = f.analyzer.model().dram_die_count();
  const int banks = f.bench.stack.dram_spec.bank_cols * f.bench.stack.dram_spec.bank_rows;
  std::vector<double> head;
  for (std::size_t s = 0;; ++s) {
    try {
      head.push_back(f.analyzer.analyze(draw_sample(cfg, s, dies, banks)).dram_max_mv);
    } catch (const core::NumericalError&) {
      break;
    }
  }
  ASSERT_LT(head.size(), 8u);  // the first failure sits in the first block

  std::vector<double> prefix;
  cfg.prefix = &prefix;
  for (const int run : {1, 2}) {
    SCOPED_TRACE(run);
    expect_same(sample_ir_distribution(f.analyzer, f.bench.stack.dram_spec, cfg), straight);
    EXPECT_EQ(prefix, head);
  }
}

TEST(ParallelMonteCarlo, PrefixNeverGrowsPastTheCap) {
  // A run past the cap keeps kMaxPrefixSamples samples and still answers as
  // the straight run; the next one replays the cap and solves the rest.
  const FactorFixture f;
  MonteCarloConfig cfg;
  cfg.samples = static_cast<int>(kMaxPrefixSamples) + 12;
  cfg.threads = 8;
  const auto truth = sample_ir_distribution(f.analyzer, f.bench.stack.dram_spec, cfg);
  std::vector<double> prefix;
  cfg.prefix = &prefix;
  auto& reused = obs::counter("montecarlo.samples_reused");
  for (const std::uint64_t replayed : {std::uint64_t{0}, std::uint64_t{kMaxPrefixSamples}}) {
    SCOPED_TRACE(replayed);
    const std::uint64_t reused0 = reused.value();
    expect_same(sample_ir_distribution(f.analyzer, f.bench.stack.dram_spec, cfg), truth);
    EXPECT_EQ(reused.value() - reused0, replayed);
    EXPECT_EQ(prefix.size(), kMaxPrefixSamples);
  }
}

TEST(MonteCarlo, AThrowLeavesThePrefixAsItWas) {
  // A cancelled run, and a run whose third block throws after two were
  // solved, keep nothing they solved.
  const FactorFixture f;
  MonteCarloConfig cfg;
  cfg.samples = 8;
  cfg.threads = 1;
  std::vector<double> prefix;
  cfg.prefix = &prefix;
  (void)sample_ir_distribution(f.analyzer, f.bench.stack.dram_spec, cfg);
  const std::vector<double> before = prefix;
  ASSERT_EQ(before.size(), 8u);
  cfg.samples = 40;
  {
    exec::CancelToken token;
    token.cancel();
    const exec::CancelScope scope(token);
    EXPECT_THROW((void)sample_ir_distribution(f.analyzer, f.bench.stack.dram_spec, cfg),
                 core::NumericalError);
  }
  EXPECT_EQ(prefix, before);
  ASSERT_EQ(faults::Registry::instance().configure("irdrop.solve.alloc=1/3#1"), "");
  EXPECT_THROW((void)sample_ir_distribution(f.analyzer, f.bench.stack.dram_spec, cfg),
               std::bad_alloc);
  faults::Registry::instance().reset();
  EXPECT_EQ(prefix, before);
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
