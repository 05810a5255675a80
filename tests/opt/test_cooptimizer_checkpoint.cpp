// Checkpointed co-optimization sweeps: measurements replay from the file by
// global sample index, so a resumed optimize() is bitwise identical to an
// uninterrupted one -- at any thread count -- while actually skipping the
// recorded measurements. Crashes are simulated by truncating the file to a
// prefix of its entries.

#include "opt/cooptimizer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "util/checkpoint.hpp"

namespace pdn3d::opt {
namespace {

double fake_ir(const pdn::PdnConfig& cfg) {
  double ir = 2.0 + 1.1 / cfg.m2_usage + 0.9 / cfg.m3_usage + 60.0 / cfg.tsv_count;
  if (cfg.tsv_location == pdn::TsvLocation::kCenter) ir *= 1.6;
  if (cfg.tsv_location == pdn::TsvLocation::kDistributed) ir *= 0.7;
  if (cfg.bonding == pdn::BondingStyle::kF2F) ir *= 0.65;
  if (cfg.wire_bonding) ir *= 0.85;
  if (cfg.rdl != pdn::RdlMode::kNone) ir *= 1.05;
  return ir;
}

DesignSpace small_space() {
  DesignSpace s;
  s.tsv_locations = {pdn::TsvLocation::kCenter, pdn::TsvLocation::kEdge};
  s.dedicated_options = {false};
  return s;
}

/// fake_ir plus a shared measurement counter surviving fork() -- the proof
/// that a resumed sweep *skips* replayed measurements instead of redoing them.
class CountingEvaluator final : public Evaluator {
 public:
  explicit CountingEvaluator(std::atomic<int>* measures) : measures_(measures) {}
  [[nodiscard]] double measure(const pdn::PdnConfig& cfg) override {
    measures_->fetch_add(1);
    return fake_ir(cfg);
  }
  [[nodiscard]] std::unique_ptr<Evaluator> fork() const override {
    return std::make_unique<CountingEvaluator>(measures_);
  }

 private:
  std::atomic<int>* measures_;
};

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Keep the header and the first @p keep entries (the file lists them in
/// index order).
void truncate_entries(const std::string& path, std::size_t keep) {
  const auto lines = read_lines(path);
  ASSERT_GT(lines.size(), keep + 1);
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i <= keep; ++i) out << lines[i] << "\n";
}

void truncate_to_half(const std::string& path) {
  const auto lines = read_lines(path);
  ASSERT_GT(lines.size(), 3u);
  truncate_entries(path, (lines.size() - 1) / 2);
}

TEST(CoOptimizerCheckpoint, ResumedOptimizeIsBitwiseIdenticalAndSkipsReplayedWork) {
  const std::string path = testing::TempDir() + "pdn3d_coopt.ckpt";
  std::remove(path.c_str());
  const std::uint64_t key = util::checkpoint_key("coopt-resume-test");

  // Ground truth: no checkpoint involved at all.
  CoOptimizer plain(small_space(), std::make_unique<FunctionEvaluator>(fake_ir), 1);
  const auto truth = plain.optimize(0.3);

  // Full run with a checkpoint attached: same result, file left complete.
  std::atomic<int> full_measures{0};
  {
    auto ckpt = util::SweepCheckpoint::open(path, key, 0, false);
    CoOptimizer opt(small_space(), std::make_unique<CountingEvaluator>(&full_measures), 1);
    opt.set_checkpoint(&ckpt);
    const auto best = opt.optimize(0.3);
    ckpt.flush();
    EXPECT_EQ(best.config.summary(), truth.config.summary());
    EXPECT_EQ(best.predicted_ir_mv, truth.predicted_ir_mv);
    EXPECT_EQ(best.measured_ir_mv, truth.measured_ir_mv);
    EXPECT_EQ(best.cost, truth.cost);
  }
  ASSERT_GT(full_measures.load(), 0);

  // Crash halfway, resume serially: bitwise-identical optimum, and the
  // replayed prefix was never re-measured.
  ASSERT_NO_FATAL_FAILURE(truncate_to_half(path));
  std::atomic<int> resumed_measures{0};
  {
    auto ckpt = util::SweepCheckpoint::open(path, key, 0, true);
    ASSERT_GT(ckpt.resumed(), 0u);
    CoOptimizer opt(small_space(), std::make_unique<CountingEvaluator>(&resumed_measures), 1);
    opt.set_checkpoint(&ckpt);
    const auto best = opt.optimize(0.3);
    ckpt.flush();
    EXPECT_EQ(best.config.summary(), truth.config.summary());
    EXPECT_EQ(best.predicted_ir_mv, truth.predicted_ir_mv);
    EXPECT_EQ(best.measured_ir_mv, truth.measured_ir_mv);
    EXPECT_EQ(best.cost, truth.cost);
  }
  EXPECT_GT(resumed_measures.load(), 0);
  EXPECT_LT(resumed_measures.load(), full_measures.load());

  // Crash again, resume on eight threads: thread count must not perturb the
  // resumed result either (the ParallelCoOptimizer invariant, now through the
  // checkpoint path).
  ASSERT_NO_FATAL_FAILURE(truncate_to_half(path));
  {
    std::atomic<int> threaded_measures{0};
    auto ckpt = util::SweepCheckpoint::open(path, key, 0, true);
    CoOptimizer opt(small_space(), std::make_unique<CountingEvaluator>(&threaded_measures),
                    8);
    opt.set_checkpoint(&ckpt);
    const auto best = opt.optimize(0.3);
    EXPECT_EQ(best.config.summary(), truth.config.summary());
    EXPECT_EQ(best.predicted_ir_mv, truth.predicted_ir_mv);
    EXPECT_EQ(best.measured_ir_mv, truth.measured_ir_mv);
    EXPECT_EQ(best.cost, truth.cost);
    EXPECT_LT(threaded_measures.load(), full_measures.load());
  }
  std::remove(path.c_str());
}

TEST(CoOptimizerCheckpoint, FailedMeasurementsResumeAsSkipsNotRetries) {
  // A checkpointed sweep records failures too; a resume replays them into
  // skipped_points() without calling the evaluator again for those indices.
  const std::string path = testing::TempDir() + "pdn3d_coopt_fail.ckpt";
  std::remove(path.c_str());
  const std::uint64_t key = util::checkpoint_key("coopt-fail-test");
  const auto failing = [](const pdn::PdnConfig& cfg) {
    return cfg.tsv_location == pdn::TsvLocation::kCenter && cfg.m3_usage < 0.2;
  };
  const auto evaluate = [&](const pdn::PdnConfig& cfg) {
    if (failing(cfg)) {
      throw core::NumericalError(core::Status::numerical_failure("synthetic fault"));
    }
    return fake_ir(cfg);
  };

  CoOptimizer plain(small_space(), std::make_unique<FunctionEvaluator>(evaluate), 1);
  plain.fit_models();
  ASSERT_FALSE(plain.skipped_points().empty());

  {
    auto ckpt = util::SweepCheckpoint::open(path, key, 0, false);
    CoOptimizer opt(small_space(), std::make_unique<FunctionEvaluator>(evaluate), 1);
    opt.set_checkpoint(&ckpt);
    opt.fit_models();
    ckpt.flush();
  }
  {
    auto ckpt = util::SweepCheckpoint::open(path, key, 0, true);
    // The resumed evaluator would crash the test if a replayed failure were
    // re-measured as something else entirely.
    CoOptimizer opt(small_space(), std::make_unique<FunctionEvaluator>(evaluate), 1);
    opt.set_checkpoint(&ckpt);
    opt.fit_models();
    ASSERT_EQ(opt.skipped_points().size(), plain.skipped_points().size());
    for (std::size_t i = 0; i < plain.skipped_points().size(); ++i) {
      EXPECT_EQ(opt.skipped_points()[i].config.summary(),
                plain.skipped_points()[i].config.summary())
          << i;
    }
  }
  std::remove(path.c_str());
}

/// Everything a co-optimization run exposes, for bitwise comparison.
struct SweepOutcome {
  std::vector<FittedChoice> fits;
  std::vector<SkippedPoint> skipped;
  Optimum best;
  std::size_t samples = 0;
};

void expect_same_outcome(const SweepOutcome& a, const SweepOutcome& b) {
  ASSERT_EQ(a.fits.size(), b.fits.size());
  for (std::size_t k = 0; k < a.fits.size(); ++k) {
    const FittedChoice& x = a.fits[k];
    const FittedChoice& y = b.fits[k];
    EXPECT_EQ(x.choice.tsv_location, y.choice.tsv_location) << k;
    EXPECT_EQ(x.choice.dedicated, y.choice.dedicated) << k;
    EXPECT_EQ(x.choice.bonding, y.choice.bonding) << k;
    EXPECT_EQ(x.choice.rdl, y.choice.rdl) << k;
    EXPECT_EQ(x.choice.wire_bonding, y.choice.wire_bonding) << k;
    EXPECT_EQ(x.sample_count, y.sample_count) << k;
    EXPECT_EQ(x.model.coefficients(), y.model.coefficients()) << k;  // bitwise
    EXPECT_EQ(x.model.rmse(), y.model.rmse()) << k;
    EXPECT_EQ(x.model.r_squared(), y.model.r_squared()) << k;
  }
  ASSERT_EQ(a.skipped.size(), b.skipped.size());
  for (std::size_t i = 0; i < a.skipped.size(); ++i) {
    EXPECT_EQ(a.skipped[i].config.summary(), b.skipped[i].config.summary()) << i;
    EXPECT_EQ(a.skipped[i].reason, b.skipped[i].reason) << i;
    EXPECT_EQ(a.skipped[i].kind, b.skipped[i].kind) << i;
  }
  EXPECT_EQ(a.best.config.summary(), b.best.config.summary());
  EXPECT_EQ(a.best.predicted_ir_mv, b.best.predicted_ir_mv);
  EXPECT_EQ(a.best.measured_ir_mv, b.best.measured_ir_mv);
  EXPECT_EQ(a.best.cost, b.best.cost);
  EXPECT_EQ(a.best.objective, b.best.objective);
  EXPECT_EQ(a.samples, b.samples);
}

TEST(ParallelCoOptimizer, DensifyingSweepIsThreadAndResumeInvariant) {
  // A TC-fixed space samples 9 grid points per choice against 8 regression
  // features, so two failed points starve a choice into the densify batch
  // behind all the grids. Center-TSV choices lose their lowest-M3 row and
  // densify, then fit; center F2F wire-bonded ones also lose their highest-M2
  // column and a densify point, and are dropped.
  DesignSpace space = small_space();
  space.tc_fixed = true;
  const auto evaluate = [](const pdn::PdnConfig& cfg) {
    const bool center = cfg.tsv_location == pdn::TsvLocation::kCenter;
    const bool starved = cfg.bonding == pdn::BondingStyle::kF2F && cfg.wire_bonding &&
                         (cfg.m2_usage > 0.19 || (cfg.m3_usage > 0.17 && cfg.m3_usage < 0.18));
    if (center && (cfg.m3_usage < 0.15 || starved)) {
      throw core::NumericalError(core::Status::numerical_failure("synthetic fault"));
    }
    return fake_ir(cfg);
  };
  const auto run = [&](int threads, util::SweepCheckpoint* ckpt) {
    CoOptimizer opt(space, std::make_unique<FunctionEvaluator>(evaluate), threads);
    if (ckpt != nullptr) opt.set_checkpoint(ckpt);
    SweepOutcome out;
    out.best = opt.optimize(0.3);
    out.fits = opt.fit_models();
    out.skipped = opt.skipped_points();
    out.samples = opt.total_samples();
    return out;
  };

  const SweepOutcome truth = run(1, nullptr);
  constexpr std::size_t kGridPoints = 16 * 9;
  EXPECT_EQ(truth.fits.size(), 14u);                  // two choices dropped
  EXPECT_GE(truth.samples, kGridPoints + 8 * 2 + 1);  // eight choices densified
  {
    SCOPED_TRACE("threads 8");
    expect_same_outcome(truth, run(8, nullptr));
  }

  const std::string path = testing::TempDir() + "pdn3d_coopt_densify.ckpt";
  std::remove(path.c_str());
  const std::uint64_t key = util::checkpoint_key("coopt-densify-test");
  {
    auto ckpt = util::SweepCheckpoint::open(path, key, 0, false);
    SCOPED_TRACE("checkpointed");
    expect_same_outcome(truth, run(1, &ckpt));
    ckpt.flush();
  }
  // Crash inside the densify batch (every grid recorded), resume on eight
  // threads; then crash inside the grids, resume on one.
  ASSERT_NO_FATAL_FAILURE(truncate_entries(path, kGridPoints + 5));
  {
    auto ckpt = util::SweepCheckpoint::open(path, key, 0, true);
    EXPECT_EQ(ckpt.resumed(), kGridPoints + 5);
    SCOPED_TRACE("resumed mid-densify, threads 8");
    expect_same_outcome(truth, run(8, &ckpt));
    ckpt.flush();
  }
  ASSERT_NO_FATAL_FAILURE(truncate_entries(path, kGridPoints / 2));
  {
    auto ckpt = util::SweepCheckpoint::open(path, key, 0, true);
    SCOPED_TRACE("resumed mid-grid, threads 1");
    expect_same_outcome(truth, run(1, &ckpt));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pdn3d::opt
