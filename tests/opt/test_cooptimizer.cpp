#include "opt/cooptimizer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "core/status.hpp"
#include "cost/cost_model.hpp"

namespace pdn3d::opt {
namespace {

/// Fast analytic IR evaluator standing in for the R-Mesh: reciprocal response
/// plus bonuses for the discrete options, mimicking the physics (F2F and wire
/// bonding lower IR; center TSVs raise it).
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

TEST(CoOptimizer, FitsEveryChoiceWell) {
  CoOptimizer opt(small_space(), std::make_unique<FunctionEvaluator>(fake_ir));
  const auto& fits = opt.fit_models();
  EXPECT_EQ(fits.size(), 16u);
  EXPECT_LT(opt.worst_rmse(), 0.135);     // the paper's bound
  EXPECT_GT(opt.worst_r_squared(), 0.999);
}

TEST(CoOptimizer, AlphaZeroPicksCheapestDesign) {
  CoOptimizer opt(small_space(), std::make_unique<FunctionEvaluator>(fake_ir));
  const auto best = opt.optimize(0.0);
  // Cheapest knobs: minimum metal, minimum TSVs, center location, F2B, no
  // extras.
  EXPECT_NEAR(best.config.m2_usage, 0.10, 1e-9);
  EXPECT_NEAR(best.config.m3_usage, 0.10, 1e-9);
  EXPECT_EQ(best.config.tsv_count, 15);
  EXPECT_EQ(best.config.tsv_location, pdn::TsvLocation::kCenter);
  EXPECT_EQ(best.config.bonding, pdn::BondingStyle::kF2B);
  EXPECT_FALSE(best.config.wire_bonding);
  EXPECT_EQ(best.config.rdl, pdn::RdlMode::kNone);
}

TEST(CoOptimizer, AlphaOnePicksLowestIr) {
  CoOptimizer opt(small_space(), std::make_unique<FunctionEvaluator>(fake_ir));
  const auto best = opt.optimize(1.0);
  EXPECT_NEAR(best.config.m2_usage, 0.20, 1e-9);
  EXPECT_NEAR(best.config.m3_usage, 0.40, 1e-9);
  EXPECT_EQ(best.config.bonding, pdn::BondingStyle::kF2F);
  EXPECT_TRUE(best.config.wire_bonding);
  EXPECT_GE(best.config.tsv_count, 400);
}

TEST(CoOptimizer, IntermediateAlphaBetweenExtremes) {
  CoOptimizer opt(small_space(), std::make_unique<FunctionEvaluator>(fake_ir));
  const auto lo = opt.optimize(0.0);
  const auto mid = opt.optimize(0.3);
  const auto hi = opt.optimize(1.0);
  EXPECT_LE(lo.cost, mid.cost);
  EXPECT_LE(mid.cost, hi.cost);
  EXPECT_GE(lo.measured_ir_mv, mid.measured_ir_mv);
  EXPECT_GE(mid.measured_ir_mv, hi.measured_ir_mv);
}

TEST(CoOptimizer, PredictionMatchesMeasurementAtOptimum) {
  CoOptimizer opt(small_space(), std::make_unique<FunctionEvaluator>(fake_ir));
  const auto best = opt.optimize(0.3);
  // Table 9 reports both columns agreeing closely.
  EXPECT_NEAR(best.predicted_ir_mv, best.measured_ir_mv,
              0.05 * best.measured_ir_mv + 0.1);
  EXPECT_NEAR(best.cost, cost::total_cost(best.config), 1e-12);
}

TEST(CoOptimizer, InvalidArgumentsRejected) {
  CoOptimizer opt(small_space(), std::make_unique<FunctionEvaluator>(fake_ir));
  EXPECT_THROW(opt.optimize(-0.1), std::invalid_argument);
  EXPECT_THROW(opt.optimize(1.1), std::invalid_argument);
}

TEST(CoOptimizer, FixedTcSpace) {
  DesignSpace s = small_space();
  s.tc_fixed = true;
  s.tc_fixed_value = 160;
  CoOptimizer opt(s, std::make_unique<FunctionEvaluator>(fake_ir));
  const auto best = opt.optimize(0.5);
  EXPECT_EQ(best.config.tsv_count, 160);
}

TEST(CoOptimizer, SampleCountAccounted) {
  CoOptimizer opt(small_space(), std::make_unique<FunctionEvaluator>(fake_ir));
  opt.fit_models();
  EXPECT_GT(opt.total_samples(), 100u);
  EXPECT_TRUE(opt.skipped_points().empty());  // healthy evaluator: no skips
}

TEST(CoOptimizer, SweepSurvivesUnsolvableRegion) {
  // R-Mesh failures in a whole slice of the space (center TSVs at low M3)
  // must be skipped and reported, not abort the sweep.
  const auto failing = [](const pdn::PdnConfig& cfg) {
    return cfg.tsv_location == pdn::TsvLocation::kCenter && cfg.m3_usage < 0.2;
  };
  const auto evaluate = [&](const pdn::PdnConfig& cfg) {
    if (failing(cfg)) {
      throw core::NumericalError(core::Status::numerical_failure(
          "all solver rungs failed [synthetic fault for test]"));
    }
    return fake_ir(cfg);
  };
  CoOptimizer opt(small_space(), std::make_unique<FunctionEvaluator>(evaluate));
  const auto& fits = opt.fit_models();
  // Every choice keeps enough solvable samples to stay fitted.
  EXPECT_EQ(fits.size(), 16u);
  EXPECT_FALSE(opt.skipped_points().empty());
  for (const auto& skip : opt.skipped_points()) {
    EXPECT_TRUE(failing(skip.config)) << skip.config.summary();
    EXPECT_NE(skip.reason.find("numerical-failure"), std::string::npos) << skip.reason;
  }

  // The optimum completes and lands outside the failing region.
  const auto best = opt.optimize(1.0);
  EXPECT_FALSE(failing(best.config));
  EXPECT_GT(best.measured_ir_mv, 0.0);
}

TEST(CoOptimizer, BannedWinnerTriggersRetry) {
  // The alpha=0 winner (cheapest corner of the space, see
  // AlphaZeroPicksCheapestDesign) fails only at re-measurement time; the
  // optimizer must ban it and return the best remaining candidate.
  const auto is_cheapest_corner = [](const pdn::PdnConfig& cfg) {
    return cfg.tsv_count == 15 && cfg.m2_usage < 0.105 && cfg.m3_usage < 0.105 &&
           cfg.tsv_location == pdn::TsvLocation::kCenter &&
           cfg.bonding == pdn::BondingStyle::kF2B && !cfg.wire_bonding &&
           cfg.rdl == pdn::RdlMode::kNone;
  };
  const auto evaluate = [&](const pdn::PdnConfig& cfg) {
    if (is_cheapest_corner(cfg)) {
      throw core::NumericalError(
          core::Status::numerical_failure("synthetic failure at the cheapest corner"));
    }
    return fake_ir(cfg);
  };
  CoOptimizer opt(small_space(), std::make_unique<FunctionEvaluator>(evaluate));
  const auto best = opt.optimize(0.0);
  EXPECT_FALSE(is_cheapest_corner(best.config));
  EXPECT_GT(best.measured_ir_mv, 0.0);
  // The failed winner is on record.
  bool recorded = false;
  for (const auto& skip : opt.skipped_points()) {
    if (is_cheapest_corner(skip.config)) recorded = true;
  }
  EXPECT_TRUE(recorded);
}

TEST(CoOptimizer, HardConstraintExcludesViolatingOptimum) {
  // Plant an EM-style hard constraint that rejects exactly the cost optimum
  // (the alpha=0 cheapest corner, see AlphaZeroPicksCheapestDesign). The
  // optimizer must never report that point as the winner: it is recorded as
  // a typed constraint exclusion and the search continues.
  const auto is_cheapest_corner = [](const pdn::PdnConfig& cfg) {
    return cfg.tsv_count == 15 && cfg.m2_usage < 0.105 && cfg.m3_usage < 0.105 &&
           cfg.tsv_location == pdn::TsvLocation::kCenter &&
           cfg.bonding == pdn::BondingStyle::kF2B && !cfg.wire_bonding &&
           cfg.rdl == pdn::RdlMode::kNone;
  };
  CoOptimizer opt(small_space(), std::make_unique<FunctionEvaluator>(fake_ir));
  opt.set_constraint([&](const pdn::PdnConfig& cfg) -> std::string {
    if (is_cheapest_corner(cfg)) return "em-limit: tsv J over limit (planted)";
    return {};
  });
  const auto best = opt.optimize(0.0);
  EXPECT_FALSE(is_cheapest_corner(best.config));
  EXPECT_GT(best.measured_ir_mv, 0.0);

  // The exclusion is on record with its typed kind and reason.
  bool recorded = false;
  for (const auto& skip : opt.skipped_points()) {
    if (!is_cheapest_corner(skip.config)) continue;
    recorded = true;
    EXPECT_EQ(skip.kind, SkippedPoint::Kind::kConstraint);
    EXPECT_NE(skip.reason.find("em-limit"), std::string::npos) << skip.reason;
  }
  EXPECT_TRUE(recorded);
}

TEST(CoOptimizer, ConstraintRejectingEverythingIsStructuredFailure) {
  CoOptimizer opt(small_space(), std::make_unique<FunctionEvaluator>(fake_ir));
  opt.set_constraint([](const pdn::PdnConfig&) -> std::string { return "always violated"; });
  EXPECT_THROW(opt.optimize(0.3), core::NumericalError);
  EXPECT_FALSE(opt.skipped_points().empty());
  for (const auto& skip : opt.skipped_points()) {
    EXPECT_EQ(skip.kind, SkippedPoint::Kind::kConstraint);
  }
}

TEST(CoOptimizer, UnconstrainedRunRecordsNoConstraintSkips) {
  CoOptimizer opt(small_space(), std::make_unique<FunctionEvaluator>(fake_ir));
  const auto best = opt.optimize(0.3);
  EXPECT_GT(best.measured_ir_mv, 0.0);
  EXPECT_TRUE(opt.skipped_points().empty());
}

/// Evaluator that tracks how many siblings were forked and how many
/// measurements ran, shared across forks via atomics.
class CountingEvaluator final : public Evaluator {
 public:
  CountingEvaluator(std::atomic<int>* forks, std::atomic<int>* measures)
      : forks_(forks), measures_(measures) {}
  [[nodiscard]] double measure(const pdn::PdnConfig& cfg) override {
    measures_->fetch_add(1);
    return fake_ir(cfg);
  }
  [[nodiscard]] std::unique_ptr<Evaluator> fork() const override {
    forks_->fetch_add(1);
    return std::make_unique<CountingEvaluator>(forks_, measures_);
  }

 private:
  std::atomic<int>* forks_;
  std::atomic<int>* measures_;
};

TEST(ParallelCoOptimizer, ThreadCountDoesNotChangeTheOptimum) {
  // The sampling sweep runs on forked evaluators; fits, sample accounting,
  // and the optimum must be bitwise identical at any thread count.
  CoOptimizer serial(small_space(), std::make_unique<FunctionEvaluator>(fake_ir), 1);
  const auto best1 = serial.optimize(0.3);
  for (const int threads : {2, 8}) {
    CoOptimizer opt(small_space(), std::make_unique<FunctionEvaluator>(fake_ir), threads);
    const auto best = opt.optimize(0.3);
    EXPECT_EQ(best.config.summary(), best1.config.summary()) << threads;
    EXPECT_EQ(best.predicted_ir_mv, best1.predicted_ir_mv) << threads;
    EXPECT_EQ(best.measured_ir_mv, best1.measured_ir_mv) << threads;
    EXPECT_EQ(best.cost, best1.cost) << threads;
    EXPECT_EQ(opt.total_samples(), serial.total_samples()) << threads;
    EXPECT_EQ(opt.worst_rmse(), serial.worst_rmse()) << threads;
  }
}

TEST(ParallelCoOptimizer, OptimizeIsThreadInvariant) {
  // The grid search scores the fitted choices in one pool region and merges
  // their first minima in choice order: the winner, the banned-winner retry
  // and every recorded skip match the serial scan bit for bit. A constraint
  // rejecting the unconstrained winner forces one banned round.
  const auto winner = CoOptimizer(small_space(), std::make_unique<FunctionEvaluator>(fake_ir), 1)
                          .optimize(0.3)
                          .config.summary();
  const auto run = [&](int threads) {
    auto opt = std::make_unique<CoOptimizer>(small_space(),
                                             std::make_unique<FunctionEvaluator>(fake_ir), threads);
    opt->set_constraint([&](const pdn::PdnConfig& cfg) -> std::string {
      return cfg.summary() == winner ? "planted rejection" : "";
    });
    const Optimum best = opt->optimize(0.3);
    return std::make_pair(std::move(opt), best);
  };
  const auto [serial, best1] = run(1);
  ASSERT_NE(best1.config.summary(), winner);
  ASSERT_EQ(serial->skipped_points().size(), 1u);  // the banned winner
  const auto [threaded, best8] = run(8);
  EXPECT_EQ(best8.config.summary(), best1.config.summary());
  EXPECT_EQ(best8.predicted_ir_mv, best1.predicted_ir_mv);
  EXPECT_EQ(best8.measured_ir_mv, best1.measured_ir_mv);
  EXPECT_EQ(best8.cost, best1.cost);
  EXPECT_EQ(best8.objective, best1.objective);
  EXPECT_EQ(threaded->total_samples(), serial->total_samples());
  ASSERT_EQ(threaded->skipped_points().size(), serial->skipped_points().size());
  for (std::size_t i = 0; i < serial->skipped_points().size(); ++i) {
    EXPECT_EQ(threaded->skipped_points()[i].config.summary(),
              serial->skipped_points()[i].config.summary());
    EXPECT_EQ(threaded->skipped_points()[i].reason, serial->skipped_points()[i].reason);
  }
}

TEST(ParallelCoOptimizer, SkippedPointsKeepSerialOrder) {
  // Failures land in skipped_points() in sample-index order regardless of
  // which worker hit them.
  const auto failing = [](const pdn::PdnConfig& cfg) {
    return cfg.tsv_location == pdn::TsvLocation::kCenter && cfg.m3_usage < 0.2;
  };
  const auto evaluate = [&](const pdn::PdnConfig& cfg) {
    if (failing(cfg)) {
      throw core::NumericalError(core::Status::numerical_failure("synthetic fault"));
    }
    return fake_ir(cfg);
  };
  CoOptimizer serial(small_space(), std::make_unique<FunctionEvaluator>(evaluate), 1);
  serial.fit_models();
  CoOptimizer threaded(small_space(), std::make_unique<FunctionEvaluator>(evaluate), 8);
  threaded.fit_models();
  ASSERT_EQ(threaded.skipped_points().size(), serial.skipped_points().size());
  for (std::size_t i = 0; i < serial.skipped_points().size(); ++i) {
    EXPECT_EQ(threaded.skipped_points()[i].config.summary(),
              serial.skipped_points()[i].config.summary())
        << i;
    EXPECT_EQ(threaded.skipped_points()[i].reason, serial.skipped_points()[i].reason) << i;
  }
}

TEST(ParallelCoOptimizer, ForksOneEvaluatorPerChunkAndMeasuresEverything) {
  std::atomic<int> forks{0};
  std::atomic<int> measures{0};
  CoOptimizer opt(small_space(), std::make_unique<CountingEvaluator>(&forks, &measures), 4);
  opt.fit_models();
  EXPECT_GT(forks.load(), 0);  // the sweep went through fork(), not the root
  EXPECT_GE(static_cast<std::size_t>(measures.load()), opt.total_samples());
}

TEST(CoOptimizer, EvaluatorCtorRejectsBadArguments) {
  EXPECT_THROW(CoOptimizer(small_space(), std::unique_ptr<Evaluator>{}),
               std::invalid_argument);
  EXPECT_THROW(CoOptimizer(small_space(), std::make_unique<FunctionEvaluator>(fake_ir), -1),
               std::invalid_argument);
}

TEST(CoOptimizer, AllPointsUnsolvableIsStructuredFailure) {
  const auto evaluate = [](const pdn::PdnConfig&) -> double {
    throw core::NumericalError(core::Status::numerical_failure("nothing solves"));
  };
  CoOptimizer opt(small_space(), std::make_unique<FunctionEvaluator>(evaluate));
  EXPECT_THROW(opt.fit_models(), core::NumericalError);
  EXPECT_FALSE(opt.skipped_points().empty());
}

}  // namespace
}  // namespace pdn3d::opt
