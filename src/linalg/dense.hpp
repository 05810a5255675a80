#pragma once

/// @file dense.hpp
/// @brief Dense matrix with Cholesky and partial-pivot LU solves.
///
/// This is the "commercial signoff tool" stand-in: an exact direct solver used
/// to validate the fast R-Mesh path (paper Figure 4 validates R-Mesh against
/// Cadence EPS) and as the backend for least-squares normal equations.

#include <cstddef>
#include <span>
#include <vector>

namespace pdn3d::linalg {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// y = A x
  [[nodiscard]] std::vector<double> multiply(std::span<const double> x) const;

  /// A^T A (for normal equations).
  [[nodiscard]] DenseMatrix gram() const;

  /// A^T b
  [[nodiscard]] std::vector<double> transpose_multiply(std::span<const double> b) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solve SPD system via Cholesky. Throws std::runtime_error if not SPD.
std::vector<double> solve_cholesky(DenseMatrix a, std::span<const double> b);

/// Solve a general square system via partially pivoted LU.
/// Throws std::runtime_error on (numerical) singularity.
std::vector<double> solve_lu(DenseMatrix a, std::span<const double> b);

}  // namespace pdn3d::linalg
