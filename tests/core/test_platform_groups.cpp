// The co-optimizer's usage groups on the real R-Mesh: Platform::measure_ir_group
// builds each member on the group's shared mesh structure and solves the
// members three at a time in IC-PCG lanes, and every value must still be the
// one-point measurement bit for bit.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/platform.hpp"
#include "core/status.hpp"
#include "faults/faults.hpp"
#include "obs/metrics.hpp"
#include "opt/cooptimizer.hpp"
#include "opt/design_space.hpp"
#include "pdn/stack_builder.hpp"
#include "util/checkpoint.hpp"
#include "util/log.hpp"

namespace pdn3d::core {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The default IrAnalyzer path, as e2ebench's traced replay measures a point.
double analyzer_reference(const Platform& p, const pdn::PdnConfig& config) {
  const Benchmark& bench = p.benchmark();
  const pdn::BuiltStack built = pdn::build_stack(bench.stack, config);
  const irdrop::IrAnalyzer analyzer(built.model, bench.stack.dram_fp, bench.stack.logic_fp,
                                    p.power_binding());
  return analyzer.analyze(p.parse_state(bench.default_state, bench.default_io_activity))
      .dram_max_mv;
}

/// One usage group of @p choice at @p tc: the M2 x M3 axes crossed.
std::vector<pdn::PdnConfig> usage_group(const opt::DesignSpace& space,
                                        const opt::DiscreteChoice& choice,
                                        const std::vector<double>& m2s,
                                        const std::vector<double>& m3s, int tc) {
  std::vector<pdn::PdnConfig> out;
  for (const double m2 : m2s) {
    for (const double m3 : m3s) out.push_back(opt::make_config(space, choice, m2, m3, tc));
  }
  return out;
}

std::vector<opt::Measurement> measure_group(const Platform& p,
                                            const std::vector<pdn::PdnConfig>& group) {
  std::vector<opt::Measurement> out(group.size());
  irdrop::LaneScratch scratch;
  p.measure_ir_group(group, out, scratch);
  return out;
}

class PlatformGroups : public ::testing::TestWithParam<BenchmarkKind> {};

TEST_P(PlatformGroups, EveryValueIsBitwiseTheOnePointMeasurement) {
  const Platform p(make_benchmark(GetParam()));
  const opt::DesignSpace& space = p.benchmark().design_space;
  const auto choices = opt::enumerate_choices(space);
  const auto tcs = opt::default_tc_samples(space);
  // Two sweep groups (first choice at its lowest TC, last choice at its
  // highest) and a densify group of two.
  std::vector<std::vector<pdn::PdnConfig>> groups;
  groups.push_back(usage_group(space, choices.front(), opt::default_m2_samples(space),
                               opt::default_m3_samples(space), tcs.front()));
  groups.push_back(usage_group(space, choices.back(), opt::default_m2_samples(space),
                               opt::default_m3_samples(space), tcs.back()));
  groups.push_back(usage_group(space, choices[choices.size() / 2],
                               {(space.m2_min + space.m2_max) * 0.5},
                               {space.m3_min + 0.25 * (space.m3_max - space.m3_min),
                                space.m3_min + 0.75 * (space.m3_max - space.m3_min)},
                               tcs.front()));

  for (const auto& group : groups) {
    auto& reuses = obs::counter("solver.structure_reuses");
    const std::uint64_t reuses0 = reuses.value();
    const std::vector<opt::Measurement> out = measure_group(p, group);
    // One structure per group: every member after the first reuses it.
    EXPECT_EQ(reuses.value() - reuses0, group.size() - 1);
    for (std::size_t i = 0; i < group.size(); ++i) {
      SCOPED_TRACE(group[i].summary());
      ASSERT_FALSE(out[i].error);
      EXPECT_EQ(bits(out[i].ir_mv), bits(p.measure_ir_mv(group[i])));
      EXPECT_EQ(bits(out[i].ir_mv), bits(analyzer_reference(p, group[i])));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FourBenchmarks, PlatformGroups,
                         ::testing::Values(BenchmarkKind::kStackedDdr3OffChip,
                                           BenchmarkKind::kStackedDdr3OnChip,
                                           BenchmarkKind::kWideIo, BenchmarkKind::kHmc));

std::vector<pdn::PdnConfig> off_chip_group(const Platform& p) {
  const opt::DesignSpace& space = p.benchmark().design_space;
  return usage_group(space, opt::enumerate_choices(space).front(), {0.12, 0.15, 0.18},
                     {0.15, 0.30}, 40);
}

TEST(PlatformGroup, InvalidMemberIsSkippedWithTheOnePointErrorAndTheRestHold) {
  const Platform p(make_benchmark(BenchmarkKind::kStackedDdr3OffChip));
  std::vector<pdn::PdnConfig> group = off_chip_group(p);
  group[2].m2_usage = std::numeric_limits<double>::quiet_NaN();  // NaN segment resistances
  const std::vector<opt::Measurement> out = measure_group(p, group);

  ASSERT_TRUE(out[2].error);
  std::string group_reason;
  try {
    std::rethrow_exception(out[2].error);
  } catch (const ValidationError& e) {
    group_reason = e.report().to_status().to_string();
  }
  try {
    (void)p.measure_ir_mv(group[2]);
    FAIL() << "the invalid point measured";
  } catch (const ValidationError& e) {
    EXPECT_EQ(group_reason, e.report().to_status().to_string());
  }
  for (std::size_t i = 0; i < group.size(); ++i) {
    if (i == 2) continue;
    SCOPED_TRACE(group[i].summary());
    ASSERT_FALSE(out[i].error);
    EXPECT_EQ(bits(out[i].ir_mv), bits(analyzer_reference(p, group[i])));
  }
}

TEST(PlatformGroup, MixedTopologiesCostTimeNeverBits) {
  // Not a usage group: the TSV count changes the mesh. Every change of
  // topology rebuilds the structure, and a member off the lanes' pattern is
  // solved alone, so each value is still the one-point measurement.
  const Platform p(make_benchmark(BenchmarkKind::kStackedDdr3OffChip));
  std::vector<pdn::PdnConfig> group = off_chip_group(p);
  group[1].tsv_count = 80;
  group[4].tsv_count = 80;
  auto& builds = obs::counter("solver.structure_builds");
  const std::uint64_t b0 = builds.value();
  const std::vector<opt::Measurement> out = measure_group(p, group);
  EXPECT_GE(builds.value() - b0, 3u);
  for (std::size_t i = 0; i < group.size(); ++i) {
    SCOPED_TRACE(group[i].summary());
    ASSERT_FALSE(out[i].error);
    EXPECT_EQ(bits(out[i].ir_mv), bits(p.measure_ir_mv(group[i])));
  }
}

TEST(PlatformGroup, PoisonedLaneEscalatesExactlyAsItsMemberAlone) {
  const Platform p(make_benchmark(BenchmarkKind::kStackedDdr3OffChip));
  const std::vector<pdn::PdnConfig> group = off_chip_group(p);
  auto& escalations = obs::counter("ladder.escalations");
  const util::LogLevel level = util::log_level();
  util::set_log_level(util::LogLevel::kError);
  faults::Registry& faults = faults::Registry::instance();

  // The second CG solve of the group is poisoned: member 1, loaded second.
  faults.reset();
  ASSERT_EQ(faults.configure("linalg.cg.nan=1/2#1"), "");
  const std::uint64_t e0 = escalations.value();
  const std::vector<opt::Measurement> out = measure_group(p, group);
  const std::uint64_t group_escalations = escalations.value() - e0;
  ASSERT_EQ(faults.configure("linalg.cg.nan=1/1#1"), "");
  const std::uint64_t e1 = escalations.value();
  const double alone = p.measure_ir_mv(group[1]);
  const std::uint64_t alone_escalations = escalations.value() - e1;
  faults.reset();
  util::set_log_level(level);

  EXPECT_EQ(group_escalations, 1u);
  EXPECT_EQ(alone_escalations, 1u);
  ASSERT_FALSE(out[1].error);
  EXPECT_EQ(bits(out[1].ir_mv), bits(alone));
  // Recovered by the sparse factor, so not the ic-pcg value.
  EXPECT_NE(bits(out[1].ir_mv), bits(analyzer_reference(p, group[1])));
  for (std::size_t i = 0; i < group.size(); ++i) {
    if (i == 1) continue;
    EXPECT_EQ(bits(out[i].ir_mv), bits(analyzer_reference(p, group[i]))) << i;
  }
}

TEST(ConcurrentPlatformGroups, GroupsOnManyThreadsMatchTheirOnePointMeasurements) {
  const Platform p(make_benchmark(BenchmarkKind::kStackedDdr3OffChip));
  const opt::DesignSpace& space = p.benchmark().design_space;
  const auto choices = opt::enumerate_choices(space);
  std::vector<std::vector<pdn::PdnConfig>> groups;
  for (std::size_t t = 0; t < 4; ++t) {
    groups.push_back(usage_group(space, choices[t % choices.size()], {0.11, 0.16},
                                 {0.12, 0.25, 0.38}, 30 + 20 * static_cast<int>(t)));
  }
  std::vector<std::vector<opt::Measurement>> out(groups.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < groups.size(); ++t) {
    threads.emplace_back([&, t] { out[t] = measure_group(p, groups[t]); });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < groups.size(); ++t) {
    for (std::size_t i = 0; i < groups[t].size(); ++i) {
      ASSERT_FALSE(out[t][i].error);
      EXPECT_EQ(bits(out[t][i].ir_mv), bits(p.measure_ir_mv(groups[t][i]))) << t << "/" << i;
    }
  }
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Keep the header and the first @p keep entries (listed in index order).
void truncate_entries(const std::string& path, std::size_t keep) {
  const auto lines = read_lines(path);
  ASSERT_GT(lines.size(), keep + 1);
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i <= keep; ++i) out << lines[i] << "\n";
}

TEST(ParallelCoOptimizer, PlatformResumeMidGroupIsBitwiseTheStraightRun) {
  // Two discrete choices x 2 TCs: four usage groups of 3 x 3 points. A
  // checkpoint cut after 13 (then 5) entries leaves groups half recorded;
  // their replayed points leave the group and the rest measure to the same
  // bits at one and at eight threads.
  opt::DesignSpace space;
  space.tsv_locations = {pdn::TsvLocation::kCenter, pdn::TsvLocation::kEdge};
  space.dedicated_options = {false};
  space.bonding_options = {pdn::BondingStyle::kF2B};
  space.rdl_options = {pdn::RdlMode::kNone};
  space.wirebond_options = {false};
  space.m2_samples = {0.12, 0.15, 0.18};
  space.m3_samples = {0.15, 0.22, 0.30};
  space.tc_samples = {40, 80};
  const Platform platform(make_benchmark(BenchmarkKind::kStackedDdr3OffChip));

  struct Run {
    opt::Optimum best;
    std::vector<std::vector<double>> coefficients;
  };
  const auto run = [&](int threads, util::SweepCheckpoint* ckpt) {
    opt::CoOptimizer co(space, std::make_unique<PlatformEvaluator>(platform), threads);
    if (ckpt != nullptr) co.set_checkpoint(ckpt);
    Run r;
    r.best = co.optimize(0.5);
    for (const auto& fit : co.fit_models()) r.coefficients.push_back(fit.model.coefficients());
    return r;
  };
  const auto expect_same = [](const Run& a, const Run& b) {
    EXPECT_EQ(a.best.config.summary(), b.best.config.summary());
    EXPECT_EQ(bits(a.best.measured_ir_mv), bits(b.best.measured_ir_mv));
    EXPECT_EQ(bits(a.best.predicted_ir_mv), bits(b.best.predicted_ir_mv));
    EXPECT_EQ(a.coefficients, b.coefficients);
  };

  const Run truth = run(1, nullptr);
  const std::string path = testing::TempDir() + "pdn3d_platform_groups.ckpt";
  std::remove(path.c_str());
  const std::uint64_t key = util::checkpoint_key("platform-groups-test");
  {
    auto ckpt = util::SweepCheckpoint::open(path, key, 0, false);
    SCOPED_TRACE("checkpointed, threads 8");
    expect_same(truth, run(8, &ckpt));
    ckpt.flush();
  }
  ASSERT_NO_FATAL_FAILURE(truncate_entries(path, 13));
  {
    auto ckpt = util::SweepCheckpoint::open(path, key, 0, true);
    EXPECT_EQ(ckpt.resumed(), 13u);
    SCOPED_TRACE("resumed mid-group, threads 8");
    expect_same(truth, run(8, &ckpt));
    ckpt.flush();
  }
  ASSERT_NO_FATAL_FAILURE(truncate_entries(path, 5));
  {
    auto ckpt = util::SweepCheckpoint::open(path, key, 0, true);
    SCOPED_TRACE("resumed mid-group, threads 1");
    expect_same(truth, run(1, &ckpt));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pdn3d::core
