#include "linalg/ichol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/coo.hpp"

namespace pdn3d::linalg {
namespace {

TEST(IncompleteCholesky, ExactForTridiagonal) {
  // IC(0) of a tridiagonal SPD matrix is the exact Cholesky factor, so
  // apply() must solve the system exactly.
  const std::size_t n = 12;
  CooBuilder b(n);
  for (std::size_t i = 0; i + 1 < n; ++i) b.stamp_conductance(i, i + 1, 1.0);
  for (std::size_t i = 0; i < n; ++i) b.stamp_to_ground(i, 0.5);
  const Csr a = b.compress();

  IncompleteCholesky ic(a);
  std::vector<double> rhs(n, 0.0);
  rhs[3] = 1.0;
  rhs[9] = -2.0;
  std::vector<double> z(n, 0.0);
  ic.apply(rhs, z);

  // Check A z == rhs.
  std::vector<double> az(n, 0.0);
  a.multiply(z, az);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(az[i], rhs[i], 1e-10);
  }
}

/// 7x6 grid with a few diagonal links and two taps: IC(0) drops fill here,
/// so the factor is a genuine approximation with off-diagonal entries.
Csr grid_matrix() {
  constexpr std::size_t kNx = 7;
  constexpr std::size_t kNy = 6;
  CooBuilder b(kNx * kNy);
  const auto node = [](std::size_t i, std::size_t j) { return j * kNx + i; };
  for (std::size_t j = 0; j < kNy; ++j) {
    for (std::size_t i = 0; i < kNx; ++i) {
      if (i + 1 < kNx) b.stamp_conductance(node(i, j), node(i + 1, j), 1.0 + 0.1 * double(j));
      if (j + 1 < kNy) b.stamp_conductance(node(i, j), node(i, j + 1), 0.7 + 0.05 * double(i));
      if (i + 1 < kNx && j + 1 < kNy && (i + j) % 3 == 0) {
        b.stamp_conductance(node(i, j), node(i + 1, j + 1), 0.3);
      }
    }
  }
  b.stamp_to_ground(node(0, 0), 2.0);
  b.stamp_to_ground(node(kNx - 1, kNy - 1), 1.5);
  return b.compress();
}

TEST(IncompleteCholesky, FactorReproducesTheMatrixOnItsPattern) {
  // IC(0) keeps A's lower pattern, and (L L^T)[i][j] = A[i][j] on it.
  const Csr a = grid_matrix();
  const IncompleteCholesky ic(a);
  const std::size_t n = a.dimension();
  std::vector<double> l(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::uint32_t k = ic.row_ptr()[i]; k < ic.row_ptr()[i + 1]; ++k) {
      ASSERT_LT(ic.col_idx()[k], i);  // strictly lower
      l[i * n + ic.col_idx()[k]] = ic.values()[k];
    }
    l[i * n + i] = 1.0 / ic.inverse_diagonal()[i];
  }
  std::size_t lower_nnz = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k) {
      const std::size_t j = a.col_idx()[k];
      if (j > i) continue;
      if (j < i) ++lower_nnz;
      double llt = 0.0;
      for (std::size_t m = 0; m <= j; ++m) llt += l[i * n + m] * l[j * n + m];
      EXPECT_NEAR(llt, a.values()[k], 1e-12 * std::abs(a.values()[k])) << i << "," << j;
    }
  }
  EXPECT_EQ(ic.values().size(), lower_nnz);
}

TEST(IncompleteCholesky, ApplyMatchesDividingTriangularSolves) {
  // apply() multiplies by the stored reciprocal diagonal and scatters the
  // backward sweep; an explicit forward/back substitution with the same
  // factor divides and gathers. Both solve L L^T z = r to rounding.
  const Csr a = grid_matrix();
  const IncompleteCholesky ic(a);
  const std::size_t n = a.dimension();
  std::vector<double> diag(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = 1.0 / ic.inverse_diagonal()[i];

  std::vector<double> r(n);
  for (std::size_t i = 0; i < n; ++i) r[i] = std::sin(0.7 * double(i) + 0.3);
  std::vector<double> z(n, 0.0);
  ic.apply(r, z);

  std::vector<double> y(n, 0.0);  // L y = r, row by row
  for (std::size_t i = 0; i < n; ++i) {
    double sum = r[i];
    for (std::uint32_t k = ic.row_ptr()[i]; k < ic.row_ptr()[i + 1]; ++k) {
      sum -= ic.values()[k] * y[ic.col_idx()[k]];
    }
    y[i] = sum / diag[i];
  }
  std::vector<double> ref(n, 0.0);  // L^T ref = y, gathering column i of L
  for (std::size_t i = n; i-- > 0;) {
    double sum = y[i];
    for (std::size_t row = i + 1; row < n; ++row) {
      for (std::uint32_t k = ic.row_ptr()[row]; k < ic.row_ptr()[row + 1]; ++k) {
        if (ic.col_idx()[k] == i) sum -= ic.values()[k] * ref[row];
      }
    }
    ref[i] = sum / diag[i];
  }
  double scale = 0.0;
  for (const double v : ref) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(z[i], ref[i], 1e-13 * scale) << i;
}

TEST(IncompleteCholesky, IdentityMatrix) {
  const std::size_t n = 5;
  CooBuilder b(n);
  for (std::size_t i = 0; i < n; ++i) b.stamp_to_ground(i, 4.0);
  IncompleteCholesky ic(b.compress());
  std::vector<double> rhs = {4.0, 8.0, 12.0, 16.0, 20.0};
  std::vector<double> z(n, 0.0);
  ic.apply(rhs, z);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(z[i], static_cast<double>(i + 1), 1e-12);
  }
}

TEST(IncompleteCholesky, ApplySizeMismatchThrows) {
  CooBuilder b(3);
  for (std::size_t i = 0; i < 3; ++i) b.stamp_to_ground(i, 1.0);
  IncompleteCholesky ic(b.compress());
  std::vector<double> small(2, 0.0);
  std::vector<double> z(3, 0.0);
  EXPECT_THROW(ic.apply(small, z), std::invalid_argument);
}

TEST(IncompleteCholesky, PreconditionerIsSpd) {
  // z = M^-1 r must satisfy r^T z > 0 for r != 0 (needed by PCG).
  const std::size_t n = 16;
  CooBuilder b(n);
  for (std::size_t i = 0; i + 1 < n; ++i) b.stamp_conductance(i, i + 1, 2.0);
  for (std::size_t i = 0; i + 4 < n; ++i) b.stamp_conductance(i, i + 4, 1.0);
  b.stamp_to_ground(0, 1.0);
  IncompleteCholesky ic(b.compress());

  std::vector<double> r(n, 0.0);
  std::vector<double> z(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    std::fill(r.begin(), r.end(), 0.0);
    r[k] = 1.0;
    ic.apply(r, z);
    double rz = 0.0;
    for (std::size_t i = 0; i < n; ++i) rz += r[i] * z[i];
    EXPECT_GT(rz, 0.0);
  }
}

}  // namespace
}  // namespace pdn3d::linalg
