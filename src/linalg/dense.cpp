#include "linalg/dense.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace pdn3d::linalg {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

std::vector<double> DenseMatrix::multiply(std::span<const double> x) const {
  if (x.size() != cols_) throw std::invalid_argument("DenseMatrix::multiply: size mismatch");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) s += data_[r * cols_ + c] * x[c];
    y[r] = s;
  }
  return y;
}

DenseMatrix DenseMatrix::gram() const {
  DenseMatrix g(cols_, cols_);
  for (std::size_t i = 0; i < cols_; ++i) {
    for (std::size_t j = i; j < cols_; ++j) {
      double s = 0.0;
      for (std::size_t r = 0; r < rows_; ++r) s += data_[r * cols_ + i] * data_[r * cols_ + j];
      g(i, j) = s;
      g(j, i) = s;
    }
  }
  return g;
}

std::vector<double> DenseMatrix::transpose_multiply(std::span<const double> b) const {
  if (b.size() != rows_) throw std::invalid_argument("transpose_multiply: size mismatch");
  std::vector<double> y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) y[c] += data_[r * cols_ + c] * b[r];
  }
  return y;
}

std::vector<double> solve_cholesky(DenseMatrix a, std::span<const double> b) {
  const std::size_t n = a.rows();
  if (a.cols() != n || b.size() != n) throw std::invalid_argument("solve_cholesky: size mismatch");

  // In-place lower Cholesky factorization.
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= a(j, k) * a(j, k);
    if (d <= 0.0) throw std::runtime_error("solve_cholesky: matrix not positive definite");
    const double ljj = std::sqrt(d);
    a(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= a(i, k) * a(j, k);
      a(i, j) = s / ljj;
    }
  }

  std::vector<double> x(b.begin(), b.end());
  // Forward solve L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    double s = x[i];
    for (std::size_t k = 0; k < i; ++k) s -= a(i, k) * x[k];
    x[i] = s / a(i, i);
  }
  // Backward solve L^T x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    double s = x[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= a(k, ii) * x[k];
    x[ii] = s / a(ii, ii);
  }
  return x;
}

std::vector<double> solve_lu(DenseMatrix a, std::span<const double> b) {
  const std::size_t n = a.rows();
  if (a.cols() != n || b.size() != n) throw std::invalid_argument("solve_lu: size mismatch");

  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot.
    std::size_t piv = k;
    double best = std::abs(a(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(a(i, k));
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    if (best == 0.0) throw std::runtime_error("solve_lu: singular matrix");
    if (piv != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(k, c), a(piv, c));
      std::swap(perm[k], perm[piv]);
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = a(i, k) / a(k, k);
      a(i, k) = m;
      for (std::size_t c = k + 1; c < n; ++c) a(i, c) -= m * a(k, c);
    }
  }

  std::vector<double> x(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm[i]];
  // Forward solve (unit lower).
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < i; ++k) x[i] -= a(i, k) * x[k];
  }
  // Backward solve (upper).
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t k = ii + 1; k < n; ++k) x[ii] -= a(ii, k) * x[k];
    x[ii] /= a(ii, ii);
  }
  return x;
}

}  // namespace pdn3d::linalg
