#include "linalg/sparse_chol.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "exec/cancel.hpp"
#include "faults/faults.hpp"
#include "linalg/reorder.hpp"
#include "obs/trace.hpp"

namespace pdn3d::linalg {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

std::vector<std::size_t> fill_reducing_ordering(const Csr& a) {
  PDN3D_TRACE_SPAN("solver/factor_order");
  return amd_ordering(a);
}

}  // namespace

SparseCholesky::SparseCholesky(const Csr& a, const SparseCholeskyOptions& options)
    : SparseCholesky(a, fill_reducing_ordering(a), options) {}

SparseCholesky::SparseCholesky(const Csr& a, std::vector<std::size_t> perm,
                               const SparseCholeskyOptions& options)
    : n_(a.dimension()), perm_(std::move(perm)) {
  PDN3D_FAULT_STALL("linalg.chol.stall", 50.0);
  if (perm_.size() != n_) throw std::invalid_argument("SparseCholesky: permutation size");
  pos_.assign(n_, kNone);
  for (std::size_t k = 0; k < n_; ++k) {
    if (perm_[k] >= n_ || pos_[perm_[k]] != kNone) {
      throw std::invalid_argument("SparseCholesky: not a permutation");
    }
    pos_[perm_[k]] = k;
  }

  // Lower triangle of the permuted matrix, stored by row: for new row k the
  // sources are CSR row perm_[k] of A, mapped through pos_ and kept when the
  // mapped column is <= k. Both the elimination tree and the numeric scatter
  // consume exactly this structure.
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto av = a.values();
  std::vector<std::size_t> low_ptr(n_ + 1, 0);
  for (std::size_t k = 0; k < n_; ++k) {
    const std::size_t old_row = perm_[k];
    for (std::size_t p = rp[old_row]; p < rp[old_row + 1]; ++p) {
      if (pos_[ci[p]] <= k) ++low_ptr[k + 1];
    }
  }
  for (std::size_t k = 0; k < n_; ++k) low_ptr[k + 1] += low_ptr[k];
  const std::size_t nnz_lower = low_ptr[n_];
  std::vector<std::size_t> low_col(nnz_lower);
  std::vector<double> low_val(nnz_lower);
  {
    std::vector<std::size_t> next(low_ptr.begin(), low_ptr.end() - 1);
    for (std::size_t k = 0; k < n_; ++k) {
      const std::size_t old_row = perm_[k];
      for (std::size_t p = rp[old_row]; p < rp[old_row + 1]; ++p) {
        const std::size_t j = pos_[ci[p]];
        if (j > k) continue;
        low_col[next[k]] = j;
        low_val[next[k]] = av[p];
        ++next[k];
      }
    }
  }

  // Elimination tree with ancestor path compression (Liu's algorithm).
  std::vector<std::size_t> parent(n_, kNone);
  std::vector<std::size_t> ancestor(n_, kNone);
  for (std::size_t k = 0; k < n_; ++k) {
    for (std::size_t p = low_ptr[k]; p < low_ptr[k + 1]; ++p) {
      std::size_t i = low_col[p];
      while (i != kNone && i < k) {
        const std::size_t next_i = ancestor[i];
        ancestor[i] = k;
        if (next_i == kNone) parent[i] = k;
        i = next_i;
      }
    }
  }

  // ereach: nonzero pattern of row k of L, in topological order, as
  // stack[top..n-1]. @p mark must be unique per invocation (w is never
  // reset); the symbolic pass uses marks 0..n-1 and the numeric pass n..2n-1.
  std::vector<std::size_t> w(n_, kNone);
  std::vector<std::size_t> stack(n_, 0);
  std::vector<std::size_t> path(n_, 0);
  const auto ereach = [&](std::size_t k, std::size_t mark) -> std::size_t {
    std::size_t top = n_;
    w[k] = mark;
    for (std::size_t p = low_ptr[k]; p < low_ptr[k + 1]; ++p) {
      std::size_t i = low_col[p];
      if (i >= k) continue;
      std::size_t len = 0;
      while (w[i] != mark) {
        path[len++] = i;
        w[i] = mark;
        i = parent[i];
      }
      while (len > 0) stack[--top] = path[--len];
    }
    return top;
  };

  // Symbolic pass: per-column nonzero counts of L, with the fill guard
  // applied on the running total so a hopeless mesh aborts in O(visited).
  std::vector<std::size_t> col_count(n_, 1);  // diagonals
  std::size_t factor_nnz = n_;
  const double fill_limit = options.max_fill_ratio * static_cast<double>(nnz_lower);
  for (std::size_t k = 0; k < n_; ++k) {
    const std::size_t top = ereach(k, k);
    for (std::size_t t = top; t < n_; ++t) ++col_count[stack[t]];
    factor_nnz += n_ - top;
    if (static_cast<double>(factor_nnz) > fill_limit) {
      throw std::runtime_error(
          "SparseCholesky: fill ratio exceeds guard (nnz(L) >= " + std::to_string(factor_nnz) +
          " against " + std::to_string(nnz_lower) + " lower-triangle nonzeros, limit ratio " +
          std::to_string(options.max_fill_ratio) + ")");
    }
  }
  fill_ratio_ = nnz_lower > 0 ? static_cast<double>(factor_nnz) / static_cast<double>(nnz_lower)
                              : 1.0;
  if (std::max(n_, factor_nnz) > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("SparseCholesky: factor exceeds 32-bit indexing");
  }

  col_ptr_.assign(n_ + 1, 0);
  for (std::size_t j = 0; j < n_; ++j) {
    col_ptr_[j + 1] = col_ptr_[j] + static_cast<std::uint32_t>(col_count[j]);
  }
  row_idx_.assign(factor_nnz, 0);
  values_.assign(factor_nnz, 0.0);

  // Numeric up-looking pass: row k of L is the sparse triangular solve
  // L(0:k-1,0:k-1) y = a(0:k-1,k) over the ereach pattern; results are
  // appended to their columns, so the diagonal lands first in every column
  // and rows are increasing within a column.
  std::vector<std::size_t> next_free(col_ptr_.begin(), col_ptr_.end() - 1);
  std::vector<double> x(n_, 0.0);
  for (std::size_t k = 0; k < n_; ++k) {
    // Factorization can dominate a solve's wall time; poll the cooperative
    // cancellation flag every few hundred columns. The throw surfaces as a
    // rung failure, and the ladder's own poll converts it to kCancelled.
    if ((k & 0x1ffU) == 0 && exec::cancellation_requested()) {
      throw std::runtime_error("SparseCholesky: factorization cancelled at elimination step " +
                               std::to_string(k));
    }
    const std::size_t top = ereach(k, n_ + k);
    double d = 0.0;
    for (std::size_t p = low_ptr[k]; p < low_ptr[k + 1]; ++p) {
      if (low_col[p] == k) {
        d = low_val[p];
      } else {
        x[low_col[p]] = low_val[p];
      }
    }
    for (std::size_t t = top; t < n_; ++t) {
      const std::size_t i = stack[t];
      const double lki = x[i] / values_[col_ptr_[i]];
      x[i] = 0.0;
      for (std::size_t p = col_ptr_[i] + 1; p < next_free[i]; ++p) {
        x[row_idx_[p]] -= values_[p] * lki;
      }
      d -= lki * lki;
      row_idx_[next_free[i]] = static_cast<std::uint32_t>(k);
      values_[next_free[i]] = lki;
      ++next_free[i];
    }
    if (!(d > 0.0) || !std::isfinite(d)) {
      throw std::runtime_error("SparseCholesky: matrix not positive definite (pivot " +
                               std::to_string(d) + " at elimination step " + std::to_string(k) +
                               ")");
    }
    row_idx_[next_free[k]] = static_cast<std::uint32_t>(k);
    values_[next_free[k]] = std::sqrt(d);
    ++next_free[k];
  }
}

void SparseCholesky::solve(std::span<const double> b, std::span<double> x,
                           std::vector<double>& work) const {
  if (b.size() != n_ || x.size() != n_) {
    throw std::invalid_argument("SparseCholesky::solve: size mismatch");
  }
  solve_batch(b, x, 1, work);
}

std::vector<double> SparseCholesky::solve(std::span<const double> b) const {
  std::vector<double> x(n_, 0.0);
  std::vector<double> work;
  solve(b, x, work);
  return x;
}

template <std::size_t Width>
void SparseCholesky::sweep(double* y) const {
  // solve()'s two sweeps with every scalar widened to Width right-hand
  // sides. Each right-hand side sees solve()'s operations in solve()'s order,
  // so its slice comes out bit for bit.
  const double* values = values_.data();
  const std::uint32_t* col_ptr = col_ptr_.data();
  const std::uint32_t* row_idx = row_idx_.data();
  for (std::size_t j = 0; j < n_; ++j) {
    double* yj = y + j * Width;
    const double d = values[col_ptr[j]];
    double t[Width];
    for (std::size_t r = 0; r < Width; ++r) {
      t[r] = yj[r] / d;
      yj[r] = t[r];
    }
    for (std::uint32_t p = col_ptr[j] + 1; p < col_ptr[j + 1]; ++p) {
      const double v = values[p];
      double* yi = y + std::size_t{row_idx[p]} * Width;
      for (std::size_t r = 0; r < Width; ++r) yi[r] -= v * t[r];
    }
  }
  for (std::size_t j = n_; j-- > 0;) {
    double* yj = y + j * Width;
    double sum[Width];
    for (std::size_t r = 0; r < Width; ++r) sum[r] = yj[r];
    for (std::uint32_t p = col_ptr[j] + 1; p < col_ptr[j + 1]; ++p) {
      const double v = values[p];
      const double* yi = y + std::size_t{row_idx[p]} * Width;
      for (std::size_t r = 0; r < Width; ++r) sum[r] -= v * yi[r];
    }
    const double d = values[col_ptr[j]];
    for (std::size_t r = 0; r < Width; ++r) yj[r] = sum[r] / d;
  }
}

void SparseCholesky::solve_batch(std::span<const double> b, std::span<double> x,
                                 std::size_t count, std::vector<double>& work) const {
  if (b.size() != n_ * count || x.size() != n_ * count) {
    throw std::invalid_argument("SparseCholesky::solve_batch: size mismatch");
  }
  work.resize(n_ * std::min(count, kSolveBlock));
  for (std::size_t first = 0; first < count; first += kSolveBlock) {
    const std::size_t width = std::min(kSolveBlock, count - first);
    const double* bb = b.data() + first * n_;
    double* xb = x.data() + first * n_;
    for (std::size_t k = 0; k < n_; ++k) {
      for (std::size_t r = 0; r < width; ++r) work[k * width + r] = bb[r * n_ + perm_[k]];
    }
    switch (width) {
      case 1: sweep<1>(work.data()); break;
      case 2: sweep<2>(work.data()); break;
      case 3: sweep<3>(work.data()); break;
      case 4: sweep<4>(work.data()); break;
      case 5: sweep<5>(work.data()); break;
      case 6: sweep<6>(work.data()); break;
      case 7: sweep<7>(work.data()); break;
      default: sweep<kSolveBlock>(work.data()); break;
    }
    for (std::size_t k = 0; k < n_; ++k) {
      for (std::size_t r = 0; r < width; ++r) xb[r * n_ + perm_[k]] = work[k * width + r];
    }
  }
}

}  // namespace pdn3d::linalg
