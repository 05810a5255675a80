#include "linalg/cg.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <set>

#include "linalg/coo.hpp"
#include "linalg/dense.hpp"
#include "linalg/ichol.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace pdn3d::linalg {
namespace {

/// Random SPD grid-like matrix: 1D resistor chain with grounds.
Csr make_chain(std::size_t n, double g_chain, double g_ground) {
  CooBuilder b(n);
  for (std::size_t i = 0; i + 1 < n; ++i) b.stamp_conductance(i, i + 1, g_chain);
  b.stamp_to_ground(0, g_ground);
  b.stamp_to_ground(n - 1, g_ground);
  return b.compress();
}

class CgPreconditioners : public ::testing::TestWithParam<Preconditioner> {};

TEST_P(CgPreconditioners, SolvesChainExactly) {
  const Csr a = make_chain(50, 2.0, 1.0);
  std::vector<double> b(50, 0.0);
  b[25] = 1.0;

  CgOptions opts;
  opts.preconditioner = GetParam();
  const CgResult r = solve_cg(a, b, opts);
  ASSERT_TRUE(r.converged);

  // Verify against the dense direct solve.
  DenseMatrix d(50, 50);
  for (std::size_t i = 0; i < 50; ++i) {
    for (std::size_t j = 0; j < 50; ++j) d(i, j) = a.at(i, j);
  }
  const auto xd = solve_cholesky(std::move(d), b);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_NEAR(r.x[i], xd[i], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPreconditioners, CgPreconditioners,
                         ::testing::Values(Preconditioner::kNone,
                                           Preconditioner::kIncompleteCholesky));

TEST(Cg, ZeroRhsGivesZeroSolution) {
  const Csr a = make_chain(10, 1.0, 1.0);
  const std::vector<double> b(10, 0.0);
  const CgResult r = solve_cg(a, b);
  EXPECT_TRUE(r.converged);
  for (double x : r.x) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(Cg, RhsSizeMismatchThrows) {
  const Csr a = make_chain(10, 1.0, 1.0);
  const std::vector<double> b(9, 0.0);
  EXPECT_THROW(solve_cg(a, b), std::invalid_argument);
}

TEST(Cg, LinearityInRhs) {
  const Csr a = make_chain(30, 3.0, 0.5);
  std::vector<double> b(30, 0.0);
  b[7] = 1.0;
  const auto r1 = solve_cg(a, b);
  for (double& v : b) v *= 5.0;
  const auto r5 = solve_cg(a, b);
  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r5.converged);
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_NEAR(r5.x[i], 5.0 * r1.x[i], 1e-8);
  }
}

TEST(Cg, IcPreconditionerConvergesFasterThanNone) {
  // 2D grid Laplacian + ground taps -- the structure the PDN solver sees.
  const int n = 20;
  CooBuilder builder(static_cast<std::size_t>(n * n));
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      const std::size_t k = static_cast<std::size_t>(j * n + i);
      if (i + 1 < n) builder.stamp_conductance(k, k + 1, 1.0);
      if (j + 1 < n) builder.stamp_conductance(k, k + static_cast<std::size_t>(n), 1.0);
    }
  }
  builder.stamp_to_ground(0, 1.0);
  const Csr a = builder.compress();
  std::vector<double> b(static_cast<std::size_t>(n * n), 0.0);
  b[static_cast<std::size_t>(n * n / 2)] = 1.0;

  CgOptions none;
  none.preconditioner = Preconditioner::kNone;
  CgOptions ic;
  ic.preconditioner = Preconditioner::kIncompleteCholesky;
  const auto r_none = solve_cg(a, b, none);
  const auto r_ic = solve_cg(a, b, ic);
  ASSERT_TRUE(r_none.converged);
  ASSERT_TRUE(r_ic.converged);
  EXPECT_LT(r_ic.iterations, r_none.iterations);
}

TEST(Cg, NanRhsBailsImmediately) {
  // A poisoned rhs must be diagnosed up front, not burn max_iterations on
  // NaN arithmetic.
  const Csr a = make_chain(10, 1.0, 1.0);
  std::vector<double> b(10, 1.0);
  b[3] = std::numeric_limits<double>::quiet_NaN();
  const CgResult r = solve_cg(a, b);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.failure, CgFailure::kDivergedNonFinite);
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_NE(r.detail.find("NaN"), std::string::npos);
}

TEST(Cg, InfRhsBailsImmediately) {
  const Csr a = make_chain(10, 1.0, 1.0);
  std::vector<double> b(10, 1.0);
  b[0] = std::numeric_limits<double>::infinity();
  const CgResult r = solve_cg(a, b);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.failure, CgFailure::kDivergedNonFinite);
  EXPECT_EQ(r.iterations, 0u);
}

TEST(Cg, IndefiniteMatrixDetected) {
  CooBuilder builder(2);
  builder.stamp_conductance(0, 1, 1.0);
  builder.add(0, 0, -4.0);  // diagonal 0: 1 - 4 = -3 -> not SPD
  builder.stamp_to_ground(1, 1.0);
  const Csr a = builder.compress();
  const std::vector<double> b = {1.0, 0.0};
  CgOptions opts;
  opts.preconditioner = Preconditioner::kNone;
  const CgResult r = solve_cg(a, b, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.failure, CgFailure::kIndefinite);
  EXPECT_NE(r.detail.find("p'Ap"), std::string::npos);
}

TEST(Cg, StagnationWatchdogFires) {
  // An impossible improvement requirement makes the watchdog trip at the end
  // of the first window, proving the mechanism (real stalls come from
  // near-singular systems, which are not deterministic to construct).
  const Csr a = make_chain(50, 2.0, 1.0);
  std::vector<double> b(50, 0.0);
  b[25] = 1.0;
  CgOptions opts;
  opts.preconditioner = Preconditioner::kNone;
  opts.rel_tolerance = 1e-14;
  opts.stagnation_window = 3;
  opts.stagnation_improvement = 1.0;  // demand the residual hit exactly zero
  const CgResult r = solve_cg(a, b, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.failure, CgFailure::kStagnated);
  EXPECT_LE(r.iterations, 4u);
}

TEST(Cg, StagnationCheckCanBeDisabled) {
  const Csr a = make_chain(50, 2.0, 1.0);
  std::vector<double> b(50, 0.0);
  b[25] = 1.0;
  CgOptions opts;
  opts.preconditioner = Preconditioner::kNone;
  opts.stagnation_window = 0;  // off
  const CgResult r = solve_cg(a, b, opts);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.failure, CgFailure::kNone);
}

TEST(Cg, CachedIcFactorReused) {
  const Csr a = make_chain(40, 2.0, 1.0);
  std::vector<double> b(40, 0.0);
  b[11] = 1.0;
  const IncompleteCholesky ic(a);
  CgOptions opts;
  opts.preconditioner = Preconditioner::kIncompleteCholesky;
  opts.cached_ic = &ic;
  const CgResult cached = solve_cg(a, b, opts);
  opts.cached_ic = nullptr;
  const CgResult fresh = solve_cg(a, b, opts);
  ASSERT_TRUE(cached.converged);
  EXPECT_EQ(cached.iterations, fresh.iterations);
  for (std::size_t i = 0; i < 40; ++i) EXPECT_NEAR(cached.x[i], fresh.x[i], 1e-12);
}

TEST(Cg, CachedIcDimensionMismatchIsCallerBug) {
  const Csr a = make_chain(40, 2.0, 1.0);
  const Csr small = make_chain(10, 2.0, 1.0);
  const IncompleteCholesky ic(small);
  CgOptions opts;
  opts.preconditioner = Preconditioner::kIncompleteCholesky;
  opts.cached_ic = &ic;
  const std::vector<double> b(40, 1.0);
  EXPECT_THROW(solve_cg(a, b, opts), std::invalid_argument);
}

TEST(Cg, InitialGuessAtTheSolutionTakesNoIterations) {
  const Csr a = make_chain(40, 2.0, 1.0);
  std::vector<double> b(40, 0.0);
  b[11] = 1.0;
  const CgResult cold = solve_cg(a, b);
  ASSERT_TRUE(cold.converged);
  CgOptions opts;
  opts.x0 = cold.x;
  const CgResult warm = solve_cg(a, b, opts);
  EXPECT_TRUE(warm.converged);
  EXPECT_EQ(warm.iterations, 0u);
  EXPECT_EQ(warm.x, cold.x);  // returned untouched
}

TEST(Cg, InitialGuessKeepsTheTargetRelativeToB) {
  // A guess near the solution saves iterations, but the stopping rule stays
  // ||r|| <= rel_tolerance * ||b||, so the answer is as accurate as a cold
  // start's.
  const Csr a = make_chain(60, 2.0, 1.0);
  std::vector<double> b(60, 1.0);
  b[30] = 5.0;
  CgOptions opts;
  opts.preconditioner = Preconditioner::kNone;
  const CgResult cold = solve_cg(a, b, opts);
  ASSERT_TRUE(cold.converged);
  std::vector<double> guess = cold.x;
  for (std::size_t i = 0; i < guess.size(); ++i) guess[i] += 1e-3 * std::sin(double(i));
  opts.x0 = guess;
  const CgResult warm = solve_cg(a, b, opts);
  ASSERT_TRUE(warm.converged);
  EXPECT_GT(warm.iterations, 0u);
  EXPECT_LE(warm.residual_norm, 10.0 * opts.rel_tolerance * norm2(b));
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(warm.x[i], cold.x[i], 1e-8);
}

TEST(Cg, InitialGuessSizeMismatchIsCallerBug) {
  const Csr a = make_chain(10, 1.0, 1.0);
  const std::vector<double> b(10, 1.0);
  const std::vector<double> guess(9, 0.0);
  CgOptions opts;
  opts.x0 = guess;
  EXPECT_THROW(solve_cg(a, b, opts), std::invalid_argument);
}

TEST(Cg, NonFiniteInitialGuessIsDiagnosed) {
  const Csr a = make_chain(10, 1.0, 1.0);
  const std::vector<double> b(10, 1.0);
  std::vector<double> guess(10, 0.0);
  guess[4] = std::numeric_limits<double>::quiet_NaN();
  CgOptions opts;
  opts.x0 = guess;
  const CgResult r = solve_cg(a, b, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.failure, CgFailure::kDivergedNonFinite);
  EXPECT_EQ(r.iterations, 0u);
}

TEST(Cg, ResidualReported) {
  const Csr a = make_chain(40, 1.0, 1.0);
  std::vector<double> b(40, 1.0);
  const auto r = solve_cg(a, b);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(r.residual_norm, 1e-8 * norm2(b));
}

/// One system of a lane test: a 2D resistor grid whose stamp sequence (and
/// so pattern) is fixed and whose conductances are scaled per system.
struct LaneCase {
  Csr a;
  std::vector<double> b;
  std::vector<double> x0;
  std::unique_ptr<IncompleteCholesky> ic;
};

LaneCase grid_case(std::uint64_t seed, double spread) {
  constexpr std::size_t kSide = 14;
  constexpr std::size_t n = kSide * kSide;
  util::Rng rng(seed);
  CooBuilder builder(n);
  for (std::size_t y = 0; y < kSide; ++y) {
    for (std::size_t x = 0; x < kSide; ++x) {
      const std::size_t i = y * kSide + x;
      if (x + 1 < kSide) builder.stamp_conductance(i, i + 1, 1.0 + spread * rng.next_double());
      if (y + 1 < kSide) builder.stamp_conductance(i, i + kSide, 1.0 + spread * rng.next_double());
    }
  }
  builder.stamp_to_ground(0, 2.0);
  builder.stamp_to_ground(n - 1, 0.5 + spread);
  LaneCase c;
  c.a = builder.compress();
  c.x0.assign(n, 1.0);  // a rail start, as IrSolver uses
  std::vector<double> ax(n);
  c.a.multiply(c.x0, ax);
  c.b = ax;
  for (std::size_t i = 0; i < n; ++i) c.b[i] -= 1e-3 * (1.0 + rng.next_double());
  c.ic = std::make_unique<IncompleteCholesky>(c.a);
  return c;
}

/// Hands out the cases in order and keeps each result under its case index.
class CaseFeed final : public CgLaneFeed {
 public:
  explicit CaseFeed(std::vector<LaneCase>& cases) : cases_(cases), results_(cases.size()) {}
  bool next(std::size_t lane, CgSystem& system) override {
    if (next_ == cases_.size()) return false;
    const LaneCase& c = cases_[next_];
    in_lane_[lane] = next_++;
    system = {.a = &c.a, .b = c.b, .x0 = c.x0, .ic = c.ic.get()};
    return true;
  }
  void finish(std::size_t lane, CgResult& result) override {
    results_[in_lane_[lane]] = result;
    lanes_used_[lane] = true;
  }
  [[nodiscard]] const std::vector<CgResult>& results() const { return results_; }
  [[nodiscard]] bool used(std::size_t lane) const { return lanes_used_[lane]; }

 private:
  std::vector<LaneCase>& cases_;
  std::vector<CgResult> results_;
  std::size_t next_ = 0;
  std::array<std::size_t, kCgLanes> in_lane_{};
  std::array<bool, kCgLanes> lanes_used_{};
};

/// Runs the cases solo and as lanes, expects the same bits, and returns the
/// solo results.
std::vector<CgResult> expect_same_as_solo(std::vector<LaneCase>& cases, const CgOptions& options) {
  std::vector<CgResult> solo;
  const std::uint64_t solves0 = obs::counter("cg.solves").value();
  const std::uint64_t iterations0 = obs::counter("cg.iterations").value();
  for (const LaneCase& c : cases) {
    CgOptions one = options;
    one.x0 = c.x0;
    one.cached_ic = c.ic.get();
    solo.push_back(solve_cg(c.a, c.b, one));
  }
  const std::uint64_t solo_solves = obs::counter("cg.solves").value() - solves0;
  const std::uint64_t solo_iterations = obs::counter("cg.iterations").value() - iterations0;

  CaseFeed feed(cases);
  CgScratch scratch;
  const std::uint64_t solves1 = obs::counter("cg.solves").value();
  const std::uint64_t iterations1 = obs::counter("cg.iterations").value();
  solve_cg_lanes(feed, cases.size(), options, scratch);
  EXPECT_EQ(obs::counter("cg.solves").value() - solves1, solo_solves);
  EXPECT_EQ(obs::counter("cg.iterations").value() - iterations1, solo_iterations);

  for (std::size_t k = 0; k < cases.size(); ++k) {
    const CgResult& lane = feed.results()[k];
    SCOPED_TRACE("case " + std::to_string(k));
    EXPECT_EQ(lane.iterations, solo[k].iterations);
    EXPECT_EQ(lane.converged, solo[k].converged);
    EXPECT_EQ(lane.failure, solo[k].failure);
    EXPECT_EQ(lane.detail, solo[k].detail);
    EXPECT_EQ(std::memcmp(&lane.residual_norm, &solo[k].residual_norm, sizeof(double)), 0);
    EXPECT_EQ(lane.x.size(), solo[k].x.size());
    if (lane.x.empty() || lane.x.size() != solo[k].x.size()) continue;
    EXPECT_EQ(std::memcmp(lane.x.data(), solo[k].x.data(), lane.x.size() * sizeof(double)), 0);
  }
  return solo;
}

TEST(CgLanes, EveryLaneIsBitwiseTheSoloSolve) {
  // Seven systems over three lanes: they converge at different iterations,
  // so the lanes refill at different passes; one is unloaded (its rail
  // start solves it in 0 iterations), one has a NaN conductance (its IC(0)
  // and curvature go non-finite mid-solve) and one a NaN right-hand side.
  std::vector<LaneCase> cases;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) cases.push_back(grid_case(seed, 8.0 * seed));
  cases.push_back(grid_case(5, 2.0));
  cases.back().a.multiply(cases.back().x0, cases.back().b);  // unloaded: b = A x0
  cases.push_back(grid_case(6, 3.0));
  {
    LaneCase& c = cases.back();
    std::vector<double> values(c.a.values().begin(), c.a.values().end());
    values[7] = std::numeric_limits<double>::quiet_NaN();
    c.a = Csr(c.a.pattern(), std::move(values));
    c.ic = std::make_unique<IncompleteCholesky>(c.a);
    c.x0.clear();  // a zero start keeps the NaN out of the starting residual

  }
  cases.push_back(grid_case(7, 4.0));
  cases.back().b[3] = std::numeric_limits<double>::quiet_NaN();
  const std::vector<CgResult> solo = expect_same_as_solo(cases, CgOptions{});

  // The cases cover what the comment says.
  std::set<std::size_t> iterations;
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_TRUE(solo[k].converged);
    iterations.insert(solo[k].iterations);
  }
  EXPECT_GE(iterations.size(), 3u);
  EXPECT_TRUE(solo[4].converged);
  EXPECT_EQ(solo[4].iterations, 0u);
  EXPECT_EQ(solo[5].failure, CgFailure::kDivergedNonFinite);
  EXPECT_NE(solo[5].detail.find("curvature"), std::string::npos) << solo[5].detail;
  EXPECT_EQ(solo[6].failure, CgFailure::kDivergedNonFinite);
  EXPECT_NE(solo[6].detail.find("right-hand side"), std::string::npos) << solo[6].detail;
}

TEST(CgLanes, StarvedLanesFailLikeTheSoloSolve) {
  std::vector<LaneCase> cases;
  for (std::uint64_t seed = 11; seed <= 15; ++seed) cases.push_back(grid_case(seed, 5.0));
  CgOptions starved;
  starved.max_iterations = 3;
  for (const CgResult& r : expect_same_as_solo(cases, starved)) {
    EXPECT_EQ(r.failure, CgFailure::kMaxIterations);
  }
}

TEST(CgLanes, TwoSystemsUseTwoLanesAndARefillUsesThemAll) {
  std::vector<LaneCase> two;
  two.push_back(grid_case(21, 1.0));
  two.push_back(grid_case(22, 30.0));
  expect_same_as_solo(two, CgOptions{});

  std::vector<LaneCase> five;
  for (std::uint64_t seed = 31; seed <= 35; ++seed) five.push_back(grid_case(seed, 3.0 * seed));
  CaseFeed feed(five);
  CgScratch scratch;
  solve_cg_lanes(feed, five.size(), CgOptions{}, scratch);
  for (std::size_t lane = 0; lane < kCgLanes; ++lane) EXPECT_TRUE(feed.used(lane)) << lane;
  for (const CgResult& r : feed.results()) EXPECT_TRUE(r.converged);
}

TEST(CgLanes, SystemsOfAnotherPatternAreACallerBug) {
  std::vector<LaneCase> cases;
  cases.push_back(grid_case(41, 1.0));
  cases.push_back(grid_case(42, 1.0));
  LaneCase other;
  other.a = make_chain(cases[0].b.size(), 1.0, 1.0);
  other.b = cases[0].b;
  other.x0 = cases[0].x0;
  other.ic = std::make_unique<IncompleteCholesky>(other.a);
  cases.push_back(std::move(other));
  CaseFeed feed(cases);
  CgScratch scratch;
  EXPECT_THROW(solve_cg_lanes(feed, cases.size(), CgOptions{}, scratch), std::invalid_argument);
}

}  // namespace
}  // namespace pdn3d::linalg
