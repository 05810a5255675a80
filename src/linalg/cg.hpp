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

#include <array>
#include <cstddef>
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
  /// Initial guess (non-owning, n entries; empty starts at 0). The target
  /// stays relative to ||b||, so a guess near the solution only saves
  /// iterations: IrSolver starts at the unloaded rail v = VDD, which leaves
  /// just the sink currents as the first residual.
  std::span<const double> x0;
  Preconditioner preconditioner = Preconditioner::kIncompleteCholesky;
  /// Reuse an already-built IC(0) factor (non-owning; must outlive the call).
  /// Only consulted when preconditioner == kIncompleteCholesky; when null a
  /// fresh factorization is computed.
  const IncompleteCholesky* cached_ic = nullptr;
  /// Stagnation watchdog: fail if the best residual norm improves by less
  /// than stagnation_improvement over a window of stagnation_window
  /// iterations, measured from the starting residual. 0 disables the check.
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

/// One system of a lane solve (solve_cg_lanes).
struct CgSystem {
  const Csr* a = nullptr;
  std::span<const double> b;
  std::span<const double> x0;  ///< initial guess; empty starts at 0
  /// IC(0) of *a when the preconditioner is kIncompleteCholesky; null builds
  /// one for the solve, as solve_cg does without CgOptions::cached_ic.
  const IncompleteCholesky* ic = nullptr;
};

/// The systems of a lane solve, handed out on demand: whenever a lane is
/// free the solver asks for the next system, so a lane whose system
/// converges early takes the next one instead of idling until the slowest
/// lane is done.
class CgLaneFeed {
 public:
  virtual ~CgLaneFeed() = default;
  /// Fill @p system for @p lane, or return false when no system is left.
  /// Everything it points at must stay valid until finish() for that lane.
  virtual bool next(std::size_t lane, CgSystem& system) = 0;
  /// The system in @p lane is done; @p result is what solve_cg returns for it
  /// alone. result.x is valid during the call only.
  virtual void finish(std::size_t lane, CgResult& result) = 0;
};

/// Lanes of one lane solve. Three measured best on three of the paper's four
/// benchmarks and within the spread of four on the fourth (docs/SOLVER.md);
/// it is not an option.
inline constexpr std::size_t kCgLanes = 3;

/// Work buffers of a lane solve: the lane-interleaved CG vectors, per-lane
/// set-up vectors and results. A plain solve_cg call allocates them; a sweep
/// keeps one CgScratch per pool chunk and reuses it across thousands of
/// same-sized solves. Never share one between concurrent solves.
struct CgScratch {
  std::vector<double> x;   ///< iterates, entry i of lane l at i * lanes + l
  std::vector<double> r;   ///< residuals, interleaved like x
  std::vector<double> z;   ///< preconditioned residuals
  std::vector<double> p;   ///< search directions
  std::vector<double> ap;  ///< A p
  std::vector<double> r0;  ///< one lane's starting residual / true residual
  std::vector<double> z0;  ///< one lane's starting preconditioned residual
  std::array<CgResult, kCgLanes> results;
};

/// Solve A x = b for SPD A, starting from options.x0. Throws
/// std::invalid_argument only on caller bugs (size mismatch); data-dependent
/// failures come back in CgResult. When
/// @p scratch is non-null its buffers are (re)used for the solve's work
/// vectors instead of allocating fresh ones. This is the one-lane case of
/// solve_cg_lanes.
CgResult solve_cg(const Csr& a, std::span<const double> b, const CgOptions& options = {},
                  CgScratch* scratch = nullptr);

/// Solve every system @p feed hands out, min(kCgLanes, @p systems) at a time,
/// in lockstep: the lanes' vectors are interleaved node by node, so one pass
/// over the shared pattern does the SpMV, the IC(0) sweeps, the dot products
/// and the updates of every lane. Each lane keeps solve_cg's arithmetic
/// order, starting guess, health checks with their details, cancellation
/// poll, fault sites and counters, so every system's x, iteration count and
/// failure equal a solve_cg of it alone, bit for bit. Every system must have
/// the pattern of the first (std::invalid_argument otherwise); options.x0
/// and options.cached_ic are ignored (see CgSystem). @p systems only sizes
/// the lanes; the feed decides when the solve ends.
void solve_cg_lanes(CgLaneFeed& feed, std::size_t systems, const CgOptions& options,
                    CgScratch& scratch);

}  // namespace pdn3d::linalg
