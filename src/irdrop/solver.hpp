#pragma once

/// @file solver.hpp
/// @brief DC operating-point solver for a StackModel (the HSPICE substitute).
///
/// Nodal analysis with the ideal VDD rail eliminated: every supply tap of
/// conductance g contributes g to its node's diagonal and g*VDD to the RHS;
/// block currents are sinks on the RHS. The conductance matrix is SPD. The
/// matrix and the chosen rung's preconditioner or factor are built once per
/// design point and reused across memory states (only the RHS changes),
/// which is what makes LUT construction and co-optimization sweeps cheap.
///
/// Numerical health: construction runs the pdn mesh validator (floating
/// nodes, non-positive conductances, zero-tap dies) and throws a structured
/// core::ValidationError on defects. Each solve starts on the configured
/// rung and accepts its answer only after verifying the true residual. The
/// two production rungs back each other up: a failed IC-PCG solve escalates
/// to the sparse direct factor, and a failed or declined factor to IC-PCG.
/// Dense Cholesky is the reference a caller asks for explicitly; it is never
/// an escalation target. The result is that every solve is either
/// verified-correct or a structured, recoverable error (SolveOutcome /
/// core::NumericalError); never silent garbage.
///
/// The sparse-direct rung is the same-matrix/many-RHS fast path: a cached
/// sparse Cholesky factor built once per solver instance (once_flag), after
/// which every solve is two triangular sweeps. Cached designs, which serve
/// many states, start on it; one-shot callers keep ic-pcg. A factorization
/// the fill-ratio guard declines simply fails the rung and the solve
/// escalates to ic-pcg (see docs/SOLVER.md).

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "linalg/cg.hpp"
#include "linalg/csr.hpp"
#include "linalg/ichol.hpp"
#include "linalg/sparse_chol.hpp"
#include "pdn/stack_model.hpp"

namespace pdn3d::irdrop {

/// Solver rungs. The values are pinned: they key the solver micro-bench
/// series (bench/BENCH_solver.json), the parameterized test instances and
/// the `solver.rung_used` gauge, so removing a rung retires its value instead
/// of renumbering the rest. Values 0 (hierarchical macromodel), 3
/// (Jacobi-PCG) and 4 (RCM banded direct) are retired.
enum class SolverKind {
  kSparseDirect = 1,  ///< AMD-ordered sparse Cholesky: factor once, two sweeps per RHS
  kPcgIc = 2,         ///< IC(0)-preconditioned CG (default, fast)
  kDense = 5,         ///< dense Cholesky -- exact reference ("signoff") path, start only
};

/// One past the largest SolverKind value: the size of per-rung arrays indexed
/// by the value (slot 0, the retired value, stays zero).
inline constexpr std::size_t kSolverKindEnd = 6;

[[nodiscard]] const char* to_string(SolverKind kind);

struct IrSolverOptions {
  double cg_rel_tolerance = 1e-10;
  std::size_t cg_max_iterations = 20000;
  /// A rung's answer is accepted only if ||b - Gx|| / ||b|| is finite and at
  /// most this; otherwise the rung counts as failed and the solve escalates.
  double verify_rel_tol = 1e-7;
  /// Retry a failed ic-pcg or sparse-direct start on the other of the two.
  /// Off = fail fast on the configured kind only (used by tests that probe a
  /// single rung).
  bool escalate = true;
  /// Run the mesh validator at construction (throws core::ValidationError on
  /// defects). Off only for callers that already validated.
  bool validate = true;
  /// Fill guard for the sparse-direct factor: the factorization is declined
  /// (rung fails, solve escalates) when nnz(L) would exceed this multiple of
  /// the lower triangle of G. The paper's 3D stack meshes factor at fill 5-6
  /// under the factor's AMD ordering; the default admits them with an order
  /// of magnitude of headroom (see SparseCholeskyOptions).
  double max_fill_ratio = 96.0;
};

/// Per-rung retry counters, accumulated across all solves of this solver
/// instance. Surfaced through IrAnalyzer / Monte Carlo so sweeps can report
/// how often the ladder saved a design point. Counters are atomic: solving
/// is const and updates them from concurrent sweeps (Monte Carlo, future
/// threaded co-optimization), which used to tear under the plain mutable
/// size_t fields. Process-wide aggregates of the same events live in the
/// metrics registry under `solver.*` (see docs/OBSERVABILITY.md).
struct SolveTelemetry {
  std::atomic<std::size_t> solves{0};       ///< successful solves
  std::atomic<std::size_t> failures{0};     ///< solves that exhausted the ladder
  std::atomic<std::size_t> escalations{0};  ///< rung failures retried on the other rung
  std::array<std::atomic<std::size_t>, kSolverKindEnd> rung_attempts{};
  std::array<std::atomic<std::size_t>, kSolverKindEnd> rung_failures{};
};

/// One solve, fully specified. This is the single entry shape (the historical
/// span-based convenience trio was removed after its deprecation cycle).
/// @ref sinks is non-owning and must stay alive for the duration of the call.
struct SolveRequest {
  std::span<const double> sinks;  ///< per-node sink currents (amps, >= 0 draws)
  bool want_ir = false;           ///< return VDD - v (IR drop) instead of v
  /// Multi-RHS batch: @ref sinks holds batch_count sink vectors back to back
  /// (each node_count() long, RHS-major). SolveOutcome::x comes back in the
  /// same index order, each solution bitwise identical to a stand-alone solve
  /// of that slice. A batch succeeds only as a whole: if any right-hand side
  /// exhausts the ladder the outcome is the failure and x stays empty.
  std::size_t batch_count = 1;
};

/// Structured result of one solve attempt. `x` is written only after residual
/// verification succeeds on some rung -- callers can never observe a
/// partially-written or unverified solution, whether or not the solve
/// escalated first. For batched requests the scalar telemetry aggregates
/// across the batch (iterations and escalations sum, rel_residual is the
/// worst slice, kind_used is the last slice's rung).
struct SolveOutcome {
  core::Status status;     ///< ok, or kInputError / kNumericalFailure
  std::vector<double> x;   ///< node voltages (or IR drops); empty when !status.is_ok()
  SolverKind kind_used = SolverKind::kPcgIc;  ///< rung that produced x
  std::size_t iterations = 0;                 ///< CG iterations (0 for direct)
  double rel_residual = 0.0;                  ///< verified ||b - Gx|| / ||b||
  std::size_t escalations = 0;                ///< rungs that failed first

  [[nodiscard]] bool ok() const { return status.is_ok(); }
};

/// Per-solve work buffers (assembled RHS, verification product, CG vectors).
/// Solving allocates these fresh when none is supplied; a sweep keeps one
/// SolveScratch per evaluation context (see EvalContext) and reuses it across
/// thousands of same-sized solves. Never share one across concurrent solves.
struct SolveScratch {
  std::vector<double> rhs;  ///< supply_rhs - sinks
  std::vector<double> ax;   ///< G*x for residual verification
  linalg::CgScratch cg;
  std::vector<double> batch_rhs;  ///< batched fast-path right-hand sides
  std::vector<double> batch_x;    ///< batched fast-path solutions
  std::vector<double> direct;     ///< triangular-sweep workspace
};

class IrSolver {
 public:
  /// @throws core::ValidationError (a std::invalid_argument) when the mesh
  /// fails pre-solve validation.
  explicit IrSolver(const pdn::StackModel& model, SolverKind kind = SolverKind::kPcgIc,
                    IrSolverOptions options = {});

  /// The unified entry point. request.sinks must have model.node_count()
  /// entries (std::invalid_argument otherwise -- a caller bug); every
  /// data-dependent failure comes back in SolveOutcome::status. Thread-safe:
  /// concurrent solves on one IrSolver are supported as long as each caller
  /// passes its own @p scratch (or none).
  [[nodiscard]] SolveOutcome solve(const SolveRequest& request,
                                   SolveScratch* scratch = nullptr) const;

  [[nodiscard]] std::size_t node_count() const { return g_.dimension(); }
  [[nodiscard]] double vdd() const { return vdd_; }
  [[nodiscard]] const linalg::Csr& conductance_matrix() const { return g_; }
  /// The configured starting rung (a failed solve may still escalate past it).
  [[nodiscard]] SolverKind kind() const { return kind_; }

  /// True when the cached sparse-direct factor exists, building it on first
  /// call (once_flag; concurrent callers race safely). The LUT build calls it
  /// before fanning out, so the factor is built on the calling thread rather
  /// than inside one worker's first solve.
  [[nodiscard]] bool sparse_factor_available() const;

  /// Cumulative per-rung retry counters for this solver instance.
  [[nodiscard]] const SolveTelemetry& telemetry() const { return telemetry_; }

 private:
  struct RungResult {
    bool produced = false;   ///< rung ran and returned an x to verify
    std::vector<double> x;
    std::size_t iterations = 0;
    std::string detail;      ///< failure context when rejected
  };

  [[nodiscard]] RungResult run_rung(SolverKind kind, std::span<const double> rhs,
                                    SolveScratch& ws) const;
  [[nodiscard]] const linalg::IncompleteCholesky& ic() const;
  [[nodiscard]] const linalg::SparseCholesky* sparse(std::string* error) const;
  [[nodiscard]] SolveOutcome solve_one(std::span<const double> sinks, bool want_ir,
                                       SolveScratch& ws) const;
  [[nodiscard]] SolveOutcome solve_batch(const SolveRequest& request, SolveScratch& ws) const;

  SolverKind kind_;
  IrSolverOptions options_;
  double vdd_;
  linalg::Csr g_;
  std::vector<double> supply_rhs_;  ///< sum of g*VDD per node
  // The factors are immutable once built; call_once makes the lazy builds
  // safe under concurrent solves (the factors themselves are applied through
  // const, buffer-free-or-caller-buffered paths).
  mutable std::once_flag ic_once_;
  mutable std::unique_ptr<linalg::IncompleteCholesky> ic_;
  mutable std::once_flag sparse_once_;
  mutable std::unique_ptr<linalg::SparseCholesky> sparse_;
  mutable std::string sparse_error_;  ///< sticky decline reason (fill guard, not SPD)
  mutable SolveTelemetry telemetry_;
};

}  // namespace pdn3d::irdrop
