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
/// elimination tree, column counts, supernodes, L's pattern and the order
/// of the updates, with the fill guard applied to the column counts before
/// L is allocated), and a supernodal numeric phase
/// (`solver/factor_numeric`). A supernode is a run of consecutive columns,
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
/// Supernodes in disjoint subtrees of the elimination tree depend on none
/// of each other, so off a pool region the numeric phase factors them on an
/// exec::ThreadPool of the process's default size (the CLI's --threads),
/// a supernode starting once its subtree is done; inside a region (a served
/// request, a sweep task) it runs on the calling thread. Each supernode
/// takes its descendants' updates in the order the serial loop applies
/// them, recorded by the symbolic phase, so L is bitwise the same at any
/// thread count.
///
/// Many right-hand sides go through solve_block, up to kSolveBlock per pass
/// over the factor: a block is stored node-major in the original node order
/// (entry i of right-hand side r at i * width + r) and solved in place, so
/// each entry of L read serves the whole block. L's row indices name the
/// nodes they eliminate, so the sweeps address the block where it lies, with
/// no permuted copy in or out.
///
/// Thread-safety contract: construction does all mutation; every solve entry
/// is const and touches only caller-provided (or per-call) buffers, so one
/// factor may serve any number of concurrent solvers without locking.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "linalg/csr.hpp"

namespace pdn3d::exec {
class ThreadPool;
}

namespace pdn3d::linalg {

/// Right-hand sides per pass over the factor in SparseCholesky::solve_block.
/// Eight take the cost per right-hand side to about 0.4 of a solve() on the
/// paper benchmarks and four to about 0.5, while 16 or 32 add nothing (32
/// loses on wide-io; docs/SOLVER.md). It is not an option.
inline constexpr std::size_t kSolveBlock = 8;

/// Calls @p f with std::integral_constant<std::size_t, W> for W = @p width
/// (1 .. kSolveBlock), so a loop over a block's right-hand sides compiles at
/// the block's width.
template <typename F>
void at_width(std::size_t width, F&& f) {
  using std::integral_constant;
  switch (width) {
    case 1: f(integral_constant<std::size_t, 1>{}); break;
    case 2: f(integral_constant<std::size_t, 2>{}); break;
    case 3: f(integral_constant<std::size_t, 3>{}); break;
    case 4: f(integral_constant<std::size_t, 4>{}); break;
    case 5: f(integral_constant<std::size_t, 5>{}); break;
    case 6: f(integral_constant<std::size_t, 6>{}); break;
    case 7: f(integral_constant<std::size_t, 7>{}); break;
    default: f(integral_constant<std::size_t, kSolveBlock>{}); break;
  }
}

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
  /// (not SPD; the message names the step the serial loop stops at, at any
  /// thread count), when a cancellation is requested, or when the fill-ratio
  /// guard trips, std::length_error when L would outgrow its 32-bit indices,
  /// and std::invalid_argument when the pattern of @p a is not symmetric.
  explicit SparseCholesky(const Csr& a, const SparseCholeskyOptions& options = {});

  /// Factor under an explicit permutation @p perm (new index k corresponds
  /// to old index perm[k]); for tests that compare orderings. Additionally
  /// throws std::invalid_argument on a malformed permutation.
  SparseCholesky(const Csr& a, std::vector<std::size_t> perm,
                 const SparseCholeskyOptions& options = {});

  /// Solve A x = b. @p x and @p b must have size dimension() and may alias
  /// each other.
  void solve(std::span<const double> b, std::span<double> x) const;

  /// Allocating convenience overload.
  [[nodiscard]] std::vector<double> solve(std::span<const double> b) const;

  /// Solve A X = B in place for a block of @p width right-hand sides (1 ..
  /// kSolveBlock), stored node-major in the original node order: @p y holds
  /// entry i of right-hand side r at i * width + r, B on entry and X on
  /// return. The factor is swept once for the block, and each solution is
  /// bitwise identical to the one solve() produces for the same right-hand
  /// side: every right-hand side keeps solve()'s arithmetic order. Throws
  /// std::invalid_argument on a width outside that range or a block that is
  /// not width node vectors long.
  void solve_block(std::span<double> y, std::size_t width) const;

  [[nodiscard]] std::size_t dimension() const { return n_; }
  /// Structural nonzeros of L (diagonal included).
  [[nodiscard]] std::size_t factor_nnz() const { return row_idx_.size(); }
  /// nnz(L) / nnz(lower triangle of A, diagonal included).
  [[nodiscard]] double fill_ratio() const { return fill_ratio_; }
  /// L's values and row indices (the nodes they eliminate), column by
  /// column, diagonal first: what a test pins to hold the factor's bits.
  [[nodiscard]] std::span<const double> factor_values() const {
    return {values_.get(), row_idx_.size()};
  }
  [[nodiscard]] std::span<const std::uint32_t> factor_rows() const { return row_idx_; }

 private:
  /// The symbolic and numeric phases under perm_; the numeric phase runs on
  /// @p pool when given.
  void factor(const Csr& a, const SparseCholeskyOptions& options, exec::ThreadPool* pool);
  /// Both triangular sweeps over @p y, @p Width right-hand sides stored
  /// node-major in the original order (entry i of right-hand side r at
  /// i * Width + r).
  template <std::size_t Width>
  void sweep(double* y) const;
  /// The forward sweep, one column of L at a time.
  template <std::size_t Width>
  void forward_by_columns(double* y) const;
  /// The forward sweep, one supernode at a time: the same subtractions in
  /// the same order for every entry, with each row below a supernode loaded
  /// and stored once.
  template <std::size_t Width>
  void forward_by_supernodes(double* y) const;
  /// Narrower blocks sweep forward by columns: a row below a supernode
  /// holds too few right-hand sides to repay the strided reads of L. On the
  /// paper benchmarks the supernodal sweep costs 0.85-0.9x per right-hand
  /// side at width 8, about the same at 4, and 1.1-1.25x at 1 and 2.
  static constexpr std::size_t kRowWiseWidth = 4;

  std::size_t n_ = 0;
  double fill_ratio_ = 0.0;
  std::vector<std::size_t> perm_;  ///< new -> old: column j eliminates node perm_[j]
  /// First column of each supernode, then n: a run of columns that share
  /// their rows below the last of them.
  std::vector<std::uint32_t> super_;
  // L column-compressed, diagonal first in each column, rows increasing in
  // elimination order. Once factored, each row index is the node it
  // eliminates (perm_ applied). Each value is written once, by the thread
  // that factors its supernode, so the values start uninitialized.
  std::vector<std::uint32_t> col_ptr_;
  std::vector<std::uint32_t> row_idx_;
  std::unique_ptr<double[]> values_;
};

}  // namespace pdn3d::linalg
