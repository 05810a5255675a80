#pragma once

/// @file ichol.hpp
/// @brief Zero-fill incomplete Cholesky factorization IC(0) used as the PCG
/// preconditioner on power-grid conductance matrices.

#include <array>
#include <cstddef>
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

  /// apply() for L systems at once, lane l with @p factors[l]; every factor
  /// must have the pattern of @p factors[0] (the lane CG checks it). @p r and
  /// @p z are lane-interleaved: entry i of lane l sits at i * L + l. Each
  /// lane's arithmetic is apply()'s, so its z equals apply()'s bit for bit;
  /// interleaving only lets one pass over the pattern serve every lane.
  template <std::size_t L>
  static void apply_lanes(const std::array<const IncompleteCholesky*, L>& factors,
                          const double* r, double* z);

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

template <std::size_t L>
void IncompleteCholesky::apply_lanes(const std::array<const IncompleteCholesky*, L>& factors,
                                     const double* r, double* z) {
  const std::size_t n = factors[0]->n_;
  const std::uint32_t* const rp = factors[0]->row_ptr_.data();
  const std::uint32_t* const ci = factors[0]->col_idx_.data();
  std::array<const double*, L> lv;
  std::array<const double*, L> inv;
  for (std::size_t l = 0; l < L; ++l) {
    lv[l] = factors[l]->values_.data();
    inv[l] = factors[l]->inv_diag_.data();
  }
  // Forward solve L y = r (y stored into z).
  for (std::size_t i = 0; i < n; ++i) {
    std::array<double, L> sum;
    for (std::size_t l = 0; l < L; ++l) sum[l] = r[i * L + l];
    for (std::uint32_t k = rp[i]; k < rp[i + 1]; ++k) {
      const double* zc = z + std::size_t{ci[k]} * L;
      for (std::size_t l = 0; l < L; ++l) sum[l] -= lv[l][k] * zc[l];
    }
    for (std::size_t l = 0; l < L; ++l) z[i * L + l] = sum[l] * inv[l][i];
  }
  // Backward solve L^T z = y. Column i of L^T is row i of L, so process rows
  // in reverse, finalizing z[i] and scattering the update into earlier rows.
  for (std::size_t i = n; i-- > 0;) {
    std::array<double, L> zi;
    for (std::size_t l = 0; l < L; ++l) {
      zi[l] = z[i * L + l] * inv[l][i];
      z[i * L + l] = zi[l];
    }
    for (std::uint32_t k = rp[i]; k < rp[i + 1]; ++k) {
      double* zc = z + std::size_t{ci[k]} * L;
      for (std::size_t l = 0; l < L; ++l) zc[l] -= lv[l][k] * zi[l];
    }
  }
}

}  // namespace pdn3d::linalg
