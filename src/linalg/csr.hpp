#pragma once

/// @file csr.hpp
/// @brief Compressed-sparse-row matrix with the operations PCG needs.

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace pdn3d::linalg {

/// The sparsity pattern of a Csr: row r's columns are
/// col_idx[row_ptr[r] .. row_ptr[r+1]), ascending. Immutable once shared, so
/// matrices with one pattern and different values (a sweep's design points)
/// hold one copy between them.
struct CsrPattern {
  std::size_t n = 0;
  std::vector<std::size_t> row_ptr;
  std::vector<std::size_t> col_idx;
};

/// Immutable CSR matrix. Built by CooBuilder::compress() or linalg::assemble().
class Csr {
 public:
  Csr() = default;
  Csr(std::size_t n, std::vector<std::size_t> row_ptr, std::vector<std::size_t> col_idx,
      std::vector<double> values);
  /// @p values in the order of @p pattern's entries.
  Csr(std::shared_ptr<const CsrPattern> pattern, std::vector<double> values);

  [[nodiscard]] std::size_t dimension() const { return n_; }
  [[nodiscard]] std::size_t nnz() const { return values_.size(); }

  /// y = A x. @p x and @p y must have size dimension(); they must not alias.
  void multiply(std::span<const double> x, std::span<double> y) const;

  /// Entry lookup (binary search inside the row); 0.0 when absent.
  [[nodiscard]] double at(std::size_t row, std::size_t col) const;

  /// True if the matrix equals its transpose to tolerance @p tol.
  [[nodiscard]] bool is_symmetric(double tol = 1e-12) const;

  [[nodiscard]] std::span<const std::size_t> row_ptr() const { return row_ptr_; }
  [[nodiscard]] std::span<const std::size_t> col_idx() const { return col_idx_; }
  [[nodiscard]] std::span<const double> values() const { return values_; }
  /// The shared pattern (null for a default-constructed matrix).
  [[nodiscard]] const std::shared_ptr<const CsrPattern>& pattern() const { return pattern_; }

 private:
  std::shared_ptr<const CsrPattern> pattern_;
  std::size_t n_ = 0;
  std::span<const std::size_t> row_ptr_;  ///< views into *pattern_
  std::span<const std::size_t> col_idx_;
  std::vector<double> values_;
};

/// Dot product of equal-length vectors.
double dot(std::span<const double> a, std::span<const double> b);

/// Euclidean norm.
double norm2(std::span<const double> a);

/// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y);

}  // namespace pdn3d::linalg
