#include "core/platform.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "opt/cooptimizer.hpp"

namespace pdn3d::core {
namespace {

Platform& off_chip_platform() {
  static Platform p(make_benchmark(BenchmarkKind::kStackedDdr3OffChip));
  return p;
}

TEST(Platform, AnalyzeDefaultState) {
  auto& p = off_chip_platform();
  const auto r = p.analyze(p.benchmark().baseline, "0-0-0-2");
  EXPECT_GT(r.dram_max_mv, 10.0);
  EXPECT_LT(r.dram_max_mv, 60.0);
}

TEST(Platform, MeasureMatchesAnalyze) {
  auto& p = off_chip_platform();
  const auto& bench = p.benchmark();
  const double via_measure = p.measure_ir_mv(bench.baseline);
  const double via_analyze =
      p.analyze(bench.baseline, bench.default_state, bench.default_io_activity).dram_max_mv;
  // measure_ir_mv runs one-shot IC-PCG; analyze uses the cached sparse
  // direct factorization -- identical up to solver tolerance.
  EXPECT_NEAR(via_measure, via_analyze, 1e-4);
}

TEST(Platform, CacheReusesDesigns) {
  Platform p(make_benchmark(BenchmarkKind::kStackedDdr3OffChip));
  const auto base = p.benchmark().baseline;
  (void)p.analyze(base, "0-0-0-2");
  const auto n1 = p.cache_size();
  (void)p.analyze(base, "2-0-0-0");
  EXPECT_EQ(p.cache_size(), n1);

  pdn::PdnConfig other = base;
  other.tsv_count = 64;
  (void)p.analyze(other, "0-0-0-2");
  EXPECT_EQ(p.cache_size(), n1 + 1);
}

TEST(Platform, MeasureDoesNotGrowCache) {
  Platform p(make_benchmark(BenchmarkKind::kStackedDdr3OffChip));
  pdn::PdnConfig cfg = p.benchmark().baseline;
  cfg.tsv_count = 99;
  (void)p.measure_ir_mv(cfg);
  EXPECT_EQ(p.cache_size(), 0u);
}

TEST(Platform, CacheMetricsCountHitsMissesInserts) {
  auto& hits = obs::counter("platform.design_cache_hits");
  auto& misses = obs::counter("platform.design_cache_misses");
  auto& inserts = obs::counter("platform.design_cache_inserts");

  Platform p(make_benchmark(BenchmarkKind::kStackedDdr3OffChip));
  const auto base = p.benchmark().baseline;

  const auto h0 = hits.value(), m0 = misses.value(), i0 = inserts.value();
  (void)p.analyze(base, "0-0-0-2");  // cold: miss + insert
  EXPECT_EQ(hits.value(), h0);
  EXPECT_EQ(misses.value(), m0 + 1);
  EXPECT_EQ(inserts.value(), i0 + 1);

  (void)p.analyze(base, "2-0-0-0");  // warm: hit, no insert
  EXPECT_EQ(hits.value(), h0 + 1);
  EXPECT_EQ(misses.value(), m0 + 1);
  EXPECT_EQ(inserts.value(), i0 + 1);
}

TEST(ConcurrentPlatformCache, ParallelCheckoutBuildsEachDesignOnce) {
  // Many threads race to check out the same two designs. The shared_mutex
  // cache must end with exactly two entries, every thread must see a fully
  // built design (no partially-published state), and the insert counter must
  // show duplicate builds were discarded, not cached twice.
  auto& inserts = obs::counter("platform.design_cache_inserts");
  Platform p(make_benchmark(BenchmarkKind::kStackedDdr3OffChip));
  const auto base = p.benchmark().baseline;
  pdn::PdnConfig other = base;
  other.tsv_count = 64;

  const auto i0 = inserts.value();
  const double expected_base = p.analyze(base, "0-0-0-2").dram_max_mv;
  const double expected_other = p.analyze(other, "0-0-0-2").dram_max_mv;

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      const auto& cfg = (t % 2 == 0) ? base : other;
      const double expected = (t % 2 == 0) ? expected_base : expected_other;
      for (int rep = 0; rep < 3; ++rep) {
        if (p.analyze(cfg, "0-0-0-2").dram_max_mv != expected) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(p.cache_size(), 2u);
  EXPECT_EQ(inserts.value(), i0 + 2);  // losers' duplicate builds discarded
}

TEST(ParallelCoOptimizer, PlatformWinnerBitwiseEqualAcrossThreadCounts) {
  // The determinism contract on a real PlatformEvaluator sweep: the
  // co-optimizer's sampled fits and re-measured winner are bitwise
  // identical at --threads 1 and --threads 8. Two discrete choices, so the
  // one sampling region spans choices on the real R-Mesh.
  opt::DesignSpace space;
  space.tsv_locations = {pdn::TsvLocation::kCenter, pdn::TsvLocation::kEdge};
  space.dedicated_options = {false};
  space.bonding_options = {pdn::BondingStyle::kF2B};
  space.rdl_options = {pdn::RdlMode::kNone};
  space.wirebond_options = {false};
  space.m2_samples = {0.12, 0.15, 0.18};
  space.m3_samples = {0.15, 0.22, 0.30};
  space.tc_samples = {40, 80};

  const auto run = [&space](int threads, std::vector<opt::FittedChoice>* fits) {
    Platform platform(make_benchmark(BenchmarkKind::kStackedDdr3OffChip));
    opt::CoOptimizer co(space, std::make_unique<PlatformEvaluator>(platform), threads);
    const opt::Optimum best = co.optimize(0.5);
    *fits = co.fit_models();
    return best;
  };
  std::vector<opt::FittedChoice> serial_fits;
  std::vector<opt::FittedChoice> threaded_fits;
  const opt::Optimum serial = run(1, &serial_fits);
  const opt::Optimum threaded = run(8, &threaded_fits);

  ASSERT_EQ(serial_fits.size(), 2u);
  ASSERT_EQ(threaded_fits.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(serial_fits[k].model.coefficients(), threaded_fits[k].model.coefficients()) << k;
  }

  EXPECT_EQ(serial.config.summary(), threaded.config.summary());
  EXPECT_EQ(serial.measured_ir_mv, threaded.measured_ir_mv);  // bitwise
  EXPECT_EQ(serial.predicted_ir_mv, threaded.predicted_ir_mv);
  EXPECT_EQ(serial.cost, threaded.cost);
  EXPECT_EQ(serial.objective, threaded.objective);
}

TEST(ConcurrentPlatformCache, ParallelLutAccessReturnsOneInstance) {
  Platform p(make_benchmark(BenchmarkKind::kStackedDdr3OffChip));
  const auto base = p.benchmark().baseline;
  std::vector<const irdrop::IrLut*> seen(6, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&, t] { seen[t] = &p.lut(base); });
  }
  for (auto& th : threads) th.join();
  for (const auto* lut : seen) EXPECT_EQ(lut, seen[0]);
  EXPECT_EQ(seen[0]->size(), 81u);
}

TEST(Platform, LutIsCachedPerConfig) {
  auto& p = off_chip_platform();
  const auto& lut1 = p.lut(p.benchmark().baseline);
  const auto& lut2 = p.lut(p.benchmark().baseline);
  EXPECT_EQ(&lut1, &lut2);
  EXPECT_EQ(lut1.size(), 81u);
}

TEST(Platform, SimulatePoliciesEndToEnd) {
  auto& p = off_chip_platform();
  const auto base = p.benchmark().baseline;
  const auto std_r = p.simulate(base, memctrl::standard_policy());
  const auto distr = p.simulate(base, memctrl::ir_aware_policy(24.0,
                                                               memctrl::SchedulingKind::kDistR));
  EXPECT_TRUE(std_r.feasible);
  EXPECT_TRUE(distr.feasible);
  EXPECT_EQ(std_r.reads, p.benchmark().workload.num_requests);
  // The paper's headline: the IR-aware policy is faster *and* quieter.
  EXPECT_LT(distr.runtime_us, std_r.runtime_us);
  EXPECT_LT(distr.max_ir_mv, std_r.max_ir_mv);
}

TEST(Platform, BuildInfoExposed) {
  auto& p = off_chip_platform();
  const auto info = p.build_info(p.benchmark().baseline);
  EXPECT_EQ(info.tsvs_per_interface, 33);
  EXPECT_GT(info.node_count, 1000u);
}

TEST(Platform, RailPairCombinesBothNets) {
  auto& p = off_chip_platform();
  const auto base = p.benchmark().baseline;
  const auto state = p.parse_state("0-0-0-2");
  const auto symmetric = p.analyze_rail_pair(base, state);
  // A mirrored VSS grid sees the same drop; the supply window loses both.
  EXPECT_NEAR(symmetric.combined_worst_mv, 2.0 * symmetric.vdd.dram_max_mv, 1e-9);
  EXPECT_NEAR(symmetric.vss.dram_max_mv, symmetric.vdd.dram_max_mv, 1e-9);

  // A skinnier ground grid bounces harder.
  const auto skewed = p.analyze_rail_pair(base, state, 0.6);
  EXPECT_GT(skewed.vss.dram_max_mv, skewed.vdd.dram_max_mv);
  EXPECT_GT(skewed.combined_worst_mv, symmetric.combined_worst_mv);

  EXPECT_THROW(p.analyze_rail_pair(base, state, 0.0), std::invalid_argument);
}

TEST(Platform, ParseStateUsesBenchmarkGeometry) {
  auto& p = off_chip_platform();
  const auto st = p.parse_state("0-0-2d-0");
  EXPECT_EQ(st.dies[2].active_banks, (std::vector<int>{6, 7}));  // column d = 3
}

}  // namespace
}  // namespace pdn3d::core
