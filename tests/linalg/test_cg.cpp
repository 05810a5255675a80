#include "linalg/cg.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "linalg/coo.hpp"
#include "linalg/dense.hpp"
#include "linalg/ichol.hpp"
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

TEST(Cg, ResidualReported) {
  const Csr a = make_chain(40, 1.0, 1.0);
  std::vector<double> b(40, 1.0);
  const auto r = solve_cg(a, b);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(r.residual_norm, 1e-8 * norm2(b));
}

}  // namespace
}  // namespace pdn3d::linalg
