#pragma once

/// @file ichol.hpp
/// @brief Zero-fill incomplete Cholesky factorization IC(0) used as the PCG
/// preconditioner on power-grid conductance matrices.

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/csr.hpp"

namespace pdn3d::linalg {

/// IC(0) factor L (same sparsity as the lower triangle of the input), stored
/// for the preconditioner apply: L's strictly-lower rows in CSR layout with
/// 32-bit indices, and the reciprocal of its diagonal. apply() then
/// multiplies where a plain triangular solve divides and needs no per-entry
/// test for the diagonal.
class IncompleteCholesky {
 public:
  /// Factorize SPD matrix @p a. If a pivot goes non-positive the diagonal is
  /// locally boosted (shifted IC) so the preconditioner stays usable.
  /// @throws std::length_error when the factor does not fit 32-bit indices.
  explicit IncompleteCholesky(const Csr& a);

  /// Apply M^-1: solve L L^T z = r. The diagonal enters as a multiplication
  /// by its stored reciprocal, so z can differ from a dividing solve with the
  /// same factor in the last bits.
  void apply(std::span<const double> r, std::span<double> z) const;

  [[nodiscard]] std::size_t dimension() const { return n_; }

  /// The factor: row i of L below the diagonal is
  /// col_idx()[row_ptr()[i] .. row_ptr()[i+1]) with values() alongside
  /// (columns ascending); L[i][i] = 1 / inverse_diagonal()[i].
  [[nodiscard]] std::span<const std::uint32_t> row_ptr() const { return row_ptr_; }
  [[nodiscard]] std::span<const std::uint32_t> col_idx() const { return col_idx_; }
  [[nodiscard]] std::span<const double> values() const { return values_; }
  [[nodiscard]] std::span<const double> inverse_diagonal() const { return inv_diag_; }

 private:
  std::size_t n_ = 0;
  std::vector<std::uint32_t> row_ptr_;
  std::vector<std::uint32_t> col_idx_;
  std::vector<double> values_;    ///< strictly-lower entries of L
  std::vector<double> inv_diag_;  ///< 1 / L[i][i]
};

}  // namespace pdn3d::linalg
