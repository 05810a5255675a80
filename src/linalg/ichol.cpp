#include "linalg/ichol.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace pdn3d::linalg {

IncompleteCholesky::IncompleteCholesky(const Csr& a) : n_(a.dimension()) {
  // Copy the strictly-lower triangle of A into L's pattern; the diagonal goes
  // into inv_diag_, which holds L[i][i] itself until the end of the build.
  const auto arp = a.row_ptr();
  const auto aci = a.col_idx();
  const auto av = a.values();
  std::size_t lower_nnz = 0;
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t k = arp[r]; k < arp[r + 1]; ++k) {
      if (aci[k] < r) ++lower_nnz;
    }
  }
  if (std::max(n_, lower_nnz) > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("IncompleteCholesky: factor exceeds 32-bit indexing");
  }
  row_ptr_.assign(n_ + 1, 0);
  col_idx_.reserve(lower_nnz);
  values_.reserve(lower_nnz);
  inv_diag_.assign(n_, 0.0);
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t k = arp[r]; k < arp[r + 1]; ++k) {
      if (aci[k] < r) {
        col_idx_.push_back(static_cast<std::uint32_t>(aci[k]));
        values_.push_back(av[k]);
      } else if (aci[k] == r) {
        inv_diag_[r] = av[k];
      }
    }
    row_ptr_[r + 1] = static_cast<std::uint32_t>(col_idx_.size());
  }

  // IC(0), up-looking: row r of L from the already factored rows above it,
  // through a dense work row that holds row r's entries (Csr keeps each
  // row's columns ascending, so L[r][j] is final before L[r][c], j < c).
  // Grid matrices have O(1) entries per row, so this stays linear-ish.
  std::vector<double> work(n_, 0.0);
  for (std::size_t r = 0; r < n_; ++r) {
    const std::uint32_t begin = row_ptr_[r];
    const std::uint32_t end = row_ptr_[r + 1];
    for (std::uint32_t k = begin; k < end; ++k) work[col_idx_[k]] = values_[k];

    double d = inv_diag_[r];
    for (std::uint32_t k = begin; k < end; ++k) {
      // L[r][c] = (a[r][c] - sum_{j<c} L[r][j] L[c][j]) / L[c][c]; work is 0
      // off row r's pattern.
      const std::uint32_t c = col_idx_[k];
      double sum = work[c];
      for (std::uint32_t kc = row_ptr_[c]; kc < row_ptr_[c + 1]; ++kc) {
        sum -= values_[kc] * work[col_idx_[kc]];
      }
      work[c] = sum / inv_diag_[c];
    }
    for (std::uint32_t k = begin; k < end; ++k) d -= work[col_idx_[k]] * work[col_idx_[k]];
    if (d <= 0.0) {
      // Shifted IC fallback: keep the factorization positive definite.
      d = std::max(1e-12, std::abs(inv_diag_[r]) * 1e-3);
    }
    inv_diag_[r] = std::sqrt(d);

    for (std::uint32_t k = begin; k < end; ++k) {
      values_[k] = work[col_idx_[k]];
      work[col_idx_[k]] = 0.0;
    }
  }
  for (double& d : inv_diag_) d = 1.0 / d;
}

void IncompleteCholesky::apply(std::span<const double> r, std::span<double> z) const {
  if (r.size() != n_ || z.size() != n_) throw std::invalid_argument("IncompleteCholesky::apply: size");
  apply_lanes<1>({this}, r.data(), z.data());
}

}  // namespace pdn3d::linalg
