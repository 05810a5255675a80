#pragma once

/// @file schur.hpp
/// @brief Stack-aware hierarchical solver: per-block Schur macromodels over a
/// small reduced interface system, plus low-rank (Woodbury) design-delta
/// updates.
///
/// A 3D DRAM stack is a set of near-repeated per-die meshes coupled only
/// through a few hundred TSV/C4 interface nodes (the paper's Wide I/O mesh:
/// 7110 nodes, 494 interface). Order the system [per-block interiors;
/// interface] and the conductance matrix becomes
///
///     A = [ A_II  A_IB ]      with A_II block-diagonal per die.
///         [ A_BI  A_BB ]
///
/// SchurMacromodel eliminates each block's interior onto its interface slice
/// once -- a per-block SparseCholesky factor, the interior-to-interface
/// coupling solves W_b = A_II,b^-1 E_b, and the dense interface contribution
/// C_b = E_b^T W_b -- then factors the small reduced system
/// S = A_BB - sum_b C_b. Every subsequent solve is one triangular pair per
/// block, a reduced solve, and a back-substitution: no full-mesh
/// factorization ever again.
///
/// The per-block data depends only on the block's sub-mesh in canonical
/// local numbering, so it is keyed by an FNV-1a sub-mesh fingerprint and
/// shared through a SchurBlockCache -- across the identical middle dies of
/// one stack and across the design points of a sweep that leave a die
/// untouched. WoodburyUpdate goes further for design deltas that touch only
/// a few nodes (TSV placement/count tweaks, C4/TSV resistance variation): it
/// reuses a neighboring point's *entire* macromodel, including the reduced
/// factorization, through the Woodbury identity with a dense LU of the small
/// capture matrix.
///
/// Accuracy discipline: these classes make no accuracy promise of their own.
/// The irdrop solver ladder verifies the true residual of every answer
/// against the current conductance matrix and escalates on failure, exactly
/// as for every other rung (see docs/SOLVER.md).
///
/// Thread-safety: SchurMacromodel and SchurBlock are immutable after
/// construction; solves are const and touch only caller-owned scratch.
/// SchurBlockCache is internally synchronized (shared_mutex); concurrent
/// builders racing on one fingerprint each build bitwise-identical blocks
/// and the first insert wins, so results never depend on the race.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <span>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/dense.hpp"
#include "linalg/sparse_chol.hpp"

namespace pdn3d::linalg {

struct SchurOptions {
  /// Fill guard forwarded to every per-block and reduced-system
  /// factorization (see SparseCholeskyOptions).
  double max_fill_ratio = 96.0;
  /// Decline meshes whose interface exceeds this fraction of all nodes: the
  /// reduced system would not be "small" and a global factor is the better
  /// tool. The paper's stacks sit at 3-7%.
  double max_interface_fraction = 0.25;
};

/// Immutable interior-elimination data of one block (die), in canonical
/// local numbering. Shared across stacks via SchurBlockCache.
struct SchurBlock {
  std::uint64_t fingerprint = 0;  ///< sub-mesh fingerprint this was built from
  std::size_t interior_count = 0;
  std::size_t interface_count = 0;     ///< local interface slots
  SparseCholesky factor;               ///< A_II,b under AMD
  /// E_b = A(interior, interface) as triplets (interior local, slot, value).
  std::vector<std::size_t> e_row;
  std::vector<std::size_t> e_col;
  std::vector<double> e_val;
  DenseMatrix w;  ///< A_II,b^-1 E_b (interior_count x interface_count)
  DenseMatrix c;  ///< E_b^T W_b   (interface_count x interface_count)

  SchurBlock(std::uint64_t fp, std::size_t interiors, std::size_t interfaces,
             SparseCholesky fac)
      : fingerprint(fp), interior_count(interiors), interface_count(interfaces),
        factor(std::move(fac)) {}
};

/// Process/platform-shared cache of SchurBlocks keyed by sub-mesh
/// fingerprint. Thread-safe; entries are immutable once inserted.
class SchurBlockCache {
 public:
  [[nodiscard]] std::shared_ptr<const SchurBlock> find(std::uint64_t fingerprint) const;
  /// Insert wins only when the fingerprint is new; returns the cached entry
  /// either way (losers of a build race adopt the winner's block).
  std::shared_ptr<const SchurBlock> insert(std::shared_ptr<const SchurBlock> block);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t hits() const;    ///< find() calls that returned a block
  [[nodiscard]] std::size_t misses() const;  ///< find() calls that returned null

 private:
  mutable std::shared_mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<const SchurBlock>> blocks_;
  mutable std::size_t hits_ = 0;
  mutable std::size_t misses_ = 0;
};

/// Per-solve scratch for SchurMacromodel / WoodburyUpdate. Never share one
/// across concurrent solves.
struct SchurScratch {
  std::vector<double> interior;   ///< per-block local RHS / solution slices
  std::vector<double> reduced;    ///< reduced-system RHS / solution
  std::vector<double> work;       ///< triangular-sweep workspace
  std::vector<double> update;     ///< Woodbury small-vector workspace
};

class SchurMacromodel {
 public:
  /// Build the hierarchical macromodel of SPD matrix @p a partitioned by
  /// @p block_of (block id per node, contiguous 0..B-1). Interface nodes are
  /// detected from the matrix: any node with a nonzero coupling into another
  /// block. Blocks are fetched from @p cache by sub-mesh fingerprint when
  /// available and inserted after a build (null cache = private blocks).
  /// Throws std::runtime_error when a guard declines the mesh (single block,
  /// interface fraction, fill guard, non-SPD block) -- the caller's rung
  /// fails and its ladder escalates.
  SchurMacromodel(const Csr& a, std::span<const int> block_of, const SchurOptions& options,
                  SchurBlockCache* cache);

  /// Solve A x = b: per-block interior solves, reduced interface solve, then
  /// back-substitution. @p b and @p x must have size dimension() and may
  /// alias. Fixed arithmetic order -- bitwise deterministic at any thread
  /// count.
  void solve(std::span<const double> b, std::span<double> x, SchurScratch& scratch) const;

  /// Batched solve: @p b and @p x hold @p count right-hand sides back to
  /// back (RHS-major). Per-block factors are swept with batched triangular
  /// solves. Each solution is bitwise identical to solve() of that slice.
  void solve_batch(std::span<const double> b, std::span<double> x, std::size_t count,
                   SchurScratch& scratch) const;

  [[nodiscard]] std::size_t dimension() const { return n_; }
  [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }
  [[nodiscard]] std::size_t interface_count() const { return interface_.size(); }
  /// Blocks served from the cache during construction (of block_count()).
  [[nodiscard]] std::size_t blocks_reused() const { return blocks_reused_; }
  /// The matrix this macromodel was built from (Woodbury delta detection).
  [[nodiscard]] const Csr& matrix() const { return a_; }
  [[nodiscard]] std::span<const int> block_of() const { return block_of_; }

 private:
  struct BlockSlot {
    std::shared_ptr<const SchurBlock> data;
    std::vector<std::size_t> interior_nodes;  ///< local interior -> global node
    std::vector<std::size_t> interface_slots; ///< local slot -> reduced index
  };

  Csr a_;                       ///< source matrix (kept for delta detection)
  std::vector<int> block_of_;
  std::size_t n_ = 0;
  std::vector<std::size_t> interface_;      ///< reduced index -> global node
  std::vector<std::size_t> reduced_index_;  ///< global node -> reduced index (or npos)
  std::vector<BlockSlot> blocks_;
  std::size_t blocks_reused_ = 0;
  // optional only because the factor is built after the blocks in the ctor
  // body; always engaged once construction returns.
  std::optional<SparseCholesky> reduced_;  ///< factor of S = A_BB - sum C_b
};

/// Low-rank design-delta overlay: solves A1 x = b where
/// A1 = A0 + P D P^T touches only the m nodes in P, through the base
/// macromodel's factorizations plus a dense LU of the m x m capture matrix
/// K = I + D M (M = P^T A0^-1 P). Build cost is m base solves; per-solve
/// cost is one base solve plus small dense products -- which is what lets
/// neighboring sweep points reuse both the die factors and the reduced
/// factorization.
class WoodburyUpdate {
 public:
  /// @param base macromodel of A0 (shared; must outlive the update).
  /// @param a_new the perturbed matrix; must have base->dimension().
  /// @param max_rank decline deltas touching more nodes than this
  /// (std::runtime_error) -- beyond it a fresh macromodel build through the
  /// block cache is the cheaper path.
  /// Throws std::runtime_error when the delta is empty, too large, or the
  /// capture matrix is singular (rank-deficient update).
  WoodburyUpdate(std::shared_ptr<const SchurMacromodel> base, const Csr& a_new,
                 std::size_t max_rank);

  /// Solve A1 x = b. @p b / @p x sized dimension(); may alias.
  void solve(std::span<const double> b, std::span<double> x, SchurScratch& scratch) const;

  /// Batched RHS-major solve, slice-bitwise-identical to solve().
  void solve_batch(std::span<const double> b, std::span<double> x, std::size_t count,
                   SchurScratch& scratch) const;

  [[nodiscard]] std::size_t dimension() const { return base_->dimension(); }
  [[nodiscard]] std::size_t rank() const { return touched_.size(); }
  [[nodiscard]] const SchurMacromodel& base() const { return *base_; }

  /// Nodes whose matrix rows differ between @p a_new and @p a_base --
  /// the update rank a WoodburyUpdate of this pair would have.
  [[nodiscard]] static std::vector<std::size_t> touched_nodes(const Csr& a_base,
                                                              const Csr& a_new);

 private:
  std::shared_ptr<const SchurMacromodel> base_;
  std::vector<std::size_t> touched_;  ///< delta nodes, ascending
  DenseMatrix d_;                     ///< delta submatrix (m x m)
  DenseMatrix z_;                     ///< A0^-1 P (n x m)
  // optional only because the LU is built last in the ctor body; always
  // engaged once construction returns.
  std::optional<DenseLu> capture_;    ///< LU of K = I + D M
};

}  // namespace pdn3d::linalg
