#pragma once

/// @file sparse_chol.hpp
/// @brief General sparse Cholesky factorization (supernodal, left-looking).
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
/// Cuthill-McKee bandwidth ordering it replaced left 43-74x.
///
/// The factorization runs in three phases under the caller's span: the AMD
/// order (`solver/factor_order`), a symbolic phase (`solver/factor_symbolic`:
/// elimination tree, column counts, supernodes and L's pattern, with the
/// fill guard applied to the column counts before L is allocated), and a
/// supernodal numeric phase. A supernode is a run of consecutive columns,
/// each the only child of the next, that share one pattern below the last
/// of them. Each supernode is factored as one dense column block after the
/// updates of its descendants are applied as dense products scattered
/// through a relative row map (CHOLMOD's left-looking supernodal method,
/// Chen, Davis, Hager & Rajamanickam, ACM TOMS 2008); the block is scratch,
/// and its columns are exactly L's. L is stored column-compressed, in the
/// given elimination order, with the diagonal first in each column and
/// 32-bit column pointers and row indices, which makes both triangular
/// sweeps straight loops over contiguous column slices.
///
/// Many right-hand sides go through solve_batch, kSolveBlock per pass over
/// the factor: a block is stored node-major (entry k of right-hand side r at
/// k * width + r), so each entry of L read serves the whole block.
///
/// Thread-safety contract: construction does all mutation; every solve entry
/// is const and touches only caller-provided (or per-call) buffers, so one
/// factor may serve any number of concurrent solvers without locking.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/csr.hpp"

namespace pdn3d::linalg {

/// Right-hand sides per pass over the factor in SparseCholesky::solve_batch.
/// Eight take the cost per right-hand side to about 0.4 of a solve() on the
/// paper benchmarks and four to about 0.5, while 16 or 32 add nothing (32
/// loses on wide-io; docs/SOLVER.md). It is not an option.
inline constexpr std::size_t kSolveBlock = 8;

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
  /// Factor symmetric positive definite @p a under its approximate-minimum-
  /// degree ordering. Throws std::runtime_error when a pivot is non-positive
  /// (not SPD; the message names the elimination step) or the fill-ratio
  /// guard trips, std::length_error when L would outgrow its 32-bit indices,
  /// and std::invalid_argument when the pattern of @p a is not symmetric.
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
  /// back, each dimension() long (RHS-major), and may alias each other. The
  /// factor is swept once per block of kSolveBlock right-hand sides (a last,
  /// partial block of k sweeps at width k, so it never costs more than k
  /// solve() calls). Each solution is bitwise identical to the one solve()
  /// produces for the same slice: every right-hand side keeps solve()'s
  /// arithmetic order. @p work is resized here.
  void solve_batch(std::span<const double> b, std::span<double> x, std::size_t count,
                   std::vector<double>& work) const;

  [[nodiscard]] std::size_t dimension() const { return n_; }
  /// Structural nonzeros of L (diagonal included).
  [[nodiscard]] std::size_t factor_nnz() const { return values_.size(); }
  /// nnz(L) / nnz(lower triangle of A, diagonal included).
  [[nodiscard]] double fill_ratio() const { return fill_ratio_; }

 private:
  /// Both triangular sweeps over @p y, @p Width right-hand sides stored
  /// node-major (entry k of right-hand side r at k * Width + r).
  template <std::size_t Width>
  void sweep(double* y) const;

  std::size_t n_ = 0;
  double fill_ratio_ = 0.0;
  std::vector<std::size_t> perm_;  ///< new -> old
  // L column-compressed, diagonal first in each column, rows increasing.
  std::vector<std::uint32_t> col_ptr_;
  std::vector<std::uint32_t> row_idx_;
  std::vector<double> values_;
};

}  // namespace pdn3d::linalg
