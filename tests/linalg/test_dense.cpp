#include "linalg/dense.hpp"

#include <gtest/gtest.h>

namespace pdn3d::linalg {
namespace {

TEST(Dense, MultiplyBasic) {
  DenseMatrix a(2, 3);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(0, 2) = 3.0;
  a(1, 2) = 4.0;
  const auto y = a.multiply(std::vector<double>{1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 4.0);
}

TEST(Dense, GramIsSymmetric) {
  DenseMatrix a(3, 2);
  a(0, 0) = 1.0;
  a(1, 0) = 2.0;
  a(2, 1) = 3.0;
  const DenseMatrix g = a.gram();
  EXPECT_DOUBLE_EQ(g(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(g(1, 1), 9.0);
  EXPECT_DOUBLE_EQ(g(0, 1), g(1, 0));
}

TEST(Dense, CholeskySolvesSpd) {
  DenseMatrix a(2, 2);
  a(0, 0) = 4.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 3.0;
  const auto x = solve_cholesky(a, std::vector<double>{1.0, 2.0});
  // Solve manually: [4 1; 1 3] x = [1; 2] -> x = [1/11, 7/11]
  EXPECT_NEAR(x[0], 1.0 / 11.0, 1e-12);
  EXPECT_NEAR(x[1], 7.0 / 11.0, 1e-12);
}

TEST(Dense, CholeskyRejectsIndefinite) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 1.0;  // eigenvalues 3, -1
  EXPECT_THROW(solve_cholesky(a, std::vector<double>{1.0, 1.0}), std::runtime_error);
}

TEST(Dense, LuSolvesGeneral) {
  DenseMatrix a(3, 3);
  a(0, 1) = 2.0;  // zero pivot at (0,0) forces a row swap
  a(0, 2) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 1.0;
  a(2, 2) = 3.0;
  // b = A * [1, 2, 3]
  const auto b = a.multiply(std::vector<double>{1.0, 2.0, 3.0});
  const auto x = solve_lu(a, b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(Dense, LuRejectsSingular) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;  // rank 1
  EXPECT_THROW(solve_lu(a, std::vector<double>{1.0, 1.0}), std::runtime_error);
}

TEST(Dense, SizeMismatchThrows) {
  DenseMatrix a(2, 2);
  a(0, 0) = a(1, 1) = 1.0;
  EXPECT_THROW(solve_cholesky(a, std::vector<double>{1.0}), std::invalid_argument);
  EXPECT_THROW(a.multiply(std::vector<double>{1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace pdn3d::linalg
