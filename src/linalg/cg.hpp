#pragma once

/// @file cg.hpp
/// @brief Preconditioned conjugate gradient for the SPD nodal systems the
/// R-Mesh engine produces (this is our HSPICE substitute).
///
/// solve_cg never throws for data-dependent reasons: every failure mode --
/// non-finite right-hand side, divergence to NaN/Inf, stagnation, an
/// indefinite matrix -- is reported through CgResult::failure with a
/// human-readable detail string, so the solver escalation ladder
/// (irdrop::IrSolver) can retry on the sparse direct factor instead of the
/// sweep dying or silently consuming garbage.

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "linalg/csr.hpp"

namespace pdn3d::linalg {

class IncompleteCholesky;

/// Identity / incomplete-Cholesky preconditioner choice. The values are
/// pinned: the parameterized test instances are named by them, so a removed
/// choice retires its value (1 was Jacobi).
enum class Preconditioner { kNone = 0, kIncompleteCholesky = 2 };

struct CgOptions {
  double rel_tolerance = 1e-10;  ///< stop when ||r|| <= rel_tolerance * ||b||
  std::size_t max_iterations = 20000;
  Preconditioner preconditioner = Preconditioner::kIncompleteCholesky;
  /// Reuse an already-built IC(0) factor (non-owning; must outlive the call).
  /// Only consulted when preconditioner == kIncompleteCholesky; when null a
  /// fresh factorization is computed.
  const IncompleteCholesky* cached_ic = nullptr;
  /// Stagnation watchdog: fail if the best residual norm improves by less
  /// than stagnation_improvement over a window of stagnation_window
  /// iterations. 0 disables the check.
  std::size_t stagnation_window = 500;
  double stagnation_improvement = 1e-3;  ///< required fractional improvement
};

/// Why a CG solve did not produce a verified answer.
enum class CgFailure {
  kNone,               ///< converged
  kMaxIterations,      ///< hit max_iterations with residual above target
  kDivergedNonFinite,  ///< residual (or rhs) went NaN/Inf -- bail immediately
  kStagnated,          ///< residual stopped improving (watchdog window)
  kIndefinite,         ///< p'Ap <= 0: matrix not SPD on the Krylov subspace
  kCancelled,          ///< an exec::CancelScope on this thread requested a stop
};

[[nodiscard]] const char* to_string(CgFailure failure);

struct CgResult {
  std::vector<double> x;
  std::size_t iterations = 0;
  double residual_norm = 0.0;  ///< final ||b - Ax||
  bool converged = false;
  CgFailure failure = CgFailure::kNone;  ///< kNone iff converged (or trivial)
  std::string detail;                    ///< human-readable failure context
};

/// Reusable CG work vectors. A plain solve_cg call allocates four n-vectors;
/// a sweep of thousands of same-sized solves can instead keep one CgScratch
/// per evaluation context and amortize the allocations. Never share one
/// CgScratch between concurrent solves.
struct CgScratch {
  std::vector<double> r;
  std::vector<double> z;
  std::vector<double> p;
  std::vector<double> ap;
};

/// Solve A x = b for SPD A. Throws std::invalid_argument only on caller bugs
/// (size mismatch); data-dependent failures come back in CgResult. When
/// @p scratch is non-null its buffers are (re)used for the solve's work
/// vectors instead of allocating fresh ones.
CgResult solve_cg(const Csr& a, std::span<const double> b, const CgOptions& options = {},
                  CgScratch* scratch = nullptr);

}  // namespace pdn3d::linalg
