#pragma once

/// @file sparse_chol.hpp
/// @brief General sparse Cholesky factorization (elimination-tree up-looking).
///
/// The same-matrix/many-RHS fast path: factor the SPD conductance matrix once
/// under a fill-reducing permutation, then every subsequent solve is two
/// sparse triangular sweeps -- typically 10-100x cheaper than a PCG solve at
/// the mesh sizes the LUT construction and Monte Carlo sweeps run. It stores
/// only the structural nonzeros of L, not a band, so it stays cheap on meshes
/// whose bandwidth is large (TSV-stitched 3D stacks).
///
/// The factor picks its own ordering: approximate minimum degree
/// (amd_ordering in reorder.hpp), the one fill-reducing ordering of every
/// sparse factor in the library. On the four paper benchmarks it leaves
/// nnz(L) at 5.3-6.1x the lower triangle of G, where the reverse
/// Cuthill-McKee bandwidth ordering it replaced left 43-74x. The ordering runs under its own
/// `solver/factor_order` trace span, a child of whichever span wraps the
/// factor build.
///
/// The factorization is the classic up-looking algorithm: the elimination
/// tree of the permuted matrix gives, via ereach, the nonzero pattern of each
/// row of L in topological order; a symbolic pass counts fill (aborting early
/// when it exceeds the configured fill-ratio guard) and the numeric pass
/// computes one row per step with a sparse triangular solve. L is stored
/// column-compressed with the diagonal first in each column, which makes both
/// triangular sweeps straight loops over contiguous column slices.
///
/// Thread-safety contract: construction does all mutation; every solve entry
/// is const and touches only caller-provided (or per-call) buffers, so one
/// factor may serve any number of concurrent solvers without locking.

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/csr.hpp"

namespace pdn3d::linalg {

struct SparseCholeskyOptions {
  /// Refuse factorizations whose fill ratio nnz(L) / nnz(lower(A)) would
  /// exceed this (std::runtime_error). A guard, not a tuning knob: the
  /// TSV-stitched 3D stack meshes factor at fill 5-6 under AMD (the paper
  /// benchmarks: off-chip DDR3 5.3x, on-chip 5.7x, Wide I/O 6.1x, HMC 5.9x),
  /// so the default leaves an order of magnitude of headroom while still
  /// rejecting meshes whose factor would dwarf the matrix, where an
  /// iterative rung is the better fallback.
  double max_fill_ratio = 96.0;
};

class SparseCholesky {
 public:
  /// Factor SPD matrix @p a under its approximate-minimum-degree ordering.
  /// Throws std::runtime_error when a pivot is non-positive (not SPD) or the
  /// fill-ratio guard trips.
  explicit SparseCholesky(const Csr& a, const SparseCholeskyOptions& options = {});

  /// Factor under an explicit permutation @p perm (new index k corresponds
  /// to old index perm[k]); for tests that compare orderings. Additionally
  /// throws std::invalid_argument on a malformed permutation.
  SparseCholesky(const Csr& a, std::vector<std::size_t> perm,
                 const SparseCholeskyOptions& options = {});

  /// Solve A x = b in the original ordering. @p x and @p b must have size
  /// dimension() and may alias each other; @p work is resized here.
  void solve(std::span<const double> b, std::span<double> x, std::vector<double>& work) const;

  /// Allocating convenience overload.
  [[nodiscard]] std::vector<double> solve(std::span<const double> b) const;

  /// Batched solve: @p b and @p x hold @p count right-hand sides back to
  /// back, each dimension() long (RHS-major). The factor is traversed once
  /// per column for all right-hand sides together, which is what makes a
  /// many-RHS sweep cheaper than @p count individual solves. Each solution is
  /// bitwise identical to the one solve() produces for the same slice.
  void solve_batch(std::span<const double> b, std::span<double> x, std::size_t count,
                   std::vector<double>& work) const;

  [[nodiscard]] std::size_t dimension() const { return n_; }
  /// Structural nonzeros of L (diagonal included).
  [[nodiscard]] std::size_t factor_nnz() const { return values_.size(); }
  /// nnz(L) / nnz(lower triangle of A, diagonal included).
  [[nodiscard]] double fill_ratio() const { return fill_ratio_; }

 private:
  std::size_t n_ = 0;
  double fill_ratio_ = 0.0;
  std::vector<std::size_t> perm_;  ///< new -> old
  std::vector<std::size_t> pos_;   ///< old -> new
  // L column-compressed, diagonal first in each column, rows increasing.
  std::vector<std::size_t> col_ptr_;
  std::vector<std::size_t> row_idx_;
  std::vector<double> values_;
};

}  // namespace pdn3d::linalg
