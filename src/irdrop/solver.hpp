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
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "linalg/cg.hpp"
#include "linalg/coo.hpp"
#include "linalg/csr.hpp"
#include "linalg/ichol.hpp"
#include "linalg/sparse_chol.hpp"
#include "pdn/stack_model.hpp"

namespace pdn3d::obs {
class TraceSpan;
}

namespace pdn3d::irdrop {

/// Solver rungs. The values are pinned: they key the solver micro-bench
/// series (bench/BENCH_solver.json) and the parameterized test instances, so
/// removing a rung retires its value instead of renumbering the rest. Values
/// 0 (hierarchical macromodel), 3 (Jacobi-PCG) and 4 (RCM banded direct) are
/// retired.
enum class SolverKind {
  kSparseDirect = 1,  ///< AMD-ordered sparse Cholesky: factor once, two sweeps per RHS
  kPcgIc = 2,         ///< IC(0)-preconditioned CG (default, fast)
  kDense = 5,         ///< dense Cholesky -- exact reference ("signoff") path, start only
};

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

/// One solve, fully specified. This is the single entry shape (the historical
/// span-based convenience trio was removed after its deprecation cycle).
/// @ref sinks is non-owning and must stay alive for the duration of the call.
struct SolveRequest {
  std::span<const double> sinks;  ///< per-node sink currents (amps, >= 0 draws)
  bool want_ir = false;           ///< return VDD - v (IR drop) instead of v
};

/// Structured result of one solve attempt. `x` is written only after residual
/// verification succeeds on some rung -- callers can never observe a
/// partially-written or unverified solution, whether or not the solve
/// escalated first. A block (IrSolver::solve_block) gets one outcome per
/// slice.
struct SolveOutcome {
  core::Status status;     ///< ok, or kInputError / kNumericalFailure
  /// Node voltages (or IR drops); empty when !status.is_ok(), and for a
  /// slice of solve_block() or solve_in_place(), whose solution stays in the
  /// thread's SolveWorkspace.
  std::vector<double> x;
  SolverKind kind_used = SolverKind::kPcgIc;  ///< rung that produced x
  std::size_t iterations = 0;                 ///< CG iterations (0 for direct)
  double rel_residual = 0.0;                  ///< verified ||b - Gx|| / ||b||
  std::size_t escalations = 0;                ///< rungs that failed first

  [[nodiscard]] bool ok() const { return status.is_ok(); }
};

/// A ladder's per-node work vectors: ic-pcg's rail start and CG buffers. A
/// thread's SolveWorkspace holds one for the ladders of its solves, and a
/// lane solve's members share their sweep chunk's (LaneScratch). Never share
/// one across concurrent solves.
struct SolveScratch {
  std::vector<double> rail; ///< ic-pcg's starting guess, VDD at every node
  linalg::CgScratch cg;
};

/// Writes the sink currents of a block's slices into @p block, node-major
/// (entry i of slice r at i * width + r). The block comes zeroed.
using SinkFill = std::function<void(std::span<double> block, std::size_t width)>;

/// One thread's solve buffers. Every solve on a thread, lone or block, runs
/// in the thread's one workspace (local()): a block of sink currents and a
/// block of solutions, each node-major (entry i of slice r at i * width + r),
/// room for one linalg::kSolveBlock-wide block of the largest design the
/// thread has solved; one slice's right-hand side for its ladder; and the
/// ladder's SolveScratch. Nothing in it is kept per slice. The blocks grow
/// (solver.workspace_grows) only when a thread meets a larger design, and
/// their pages are touched only as far as a block reaches. A workspace is
/// never shared between threads, and a solve that finds its thread's
/// workspace in use throws std::logic_error.
class SolveWorkspace {
 public:
  /// The calling thread's workspace, made on first use.
  [[nodiscard]] static SolveWorkspace& local();

  /// Doubles the workspace has room for: both blocks and the per-node
  /// vectors.
  [[nodiscard]] std::size_t capacity() const;

  /// The last block solved here (a lone solve is a block of one): node
  /// voltages, node-major at the block's width, in the columns of its
  /// accepted slices.
  [[nodiscard]] std::span<const double> solutions() const {
    return {x_.get(), nodes_ * width_};
  }
  /// Slice @p r of the last block as a vector: its node voltages, or IR
  /// drops when it was solved with want_ir; empty when the slice failed.
  [[nodiscard]] std::vector<double> solution(std::size_t r) const;

 private:
  friend class IrSolver;
  class Borrow;

  std::unique_ptr<double[]> sinks_;
  std::unique_ptr<double[]> x_;
  std::size_t block_capacity_ = 0;  ///< doubles in each block
  std::vector<double> slice_;       ///< one slice's right-hand side for its ladder
  SolveScratch ladder_;
  bool busy_ = false;

  // The last block.
  std::size_t nodes_ = 0;
  std::size_t width_ = 0;
  double vdd_ = 0.0;
  bool want_ir_ = false;
  std::array<bool, linalg::kSolveBlock> solved_{};
};

/// Where a mesh topology's conductances land in G: the pattern and the slot
/// of every stamped triplet (linalg::CooLayout), with the exact resistor
/// endpoints and tap nodes it was built from. Design points that differ
/// only in element values (a sweep's M2/M3 usage group) share one, and each
/// fills its own values into the slots.
class MeshStructure {
 public:
  /// True when @p model stamps exactly this topology: the same node count,
  /// resistor endpoints and tap nodes, in order.
  [[nodiscard]] bool matches(const pdn::StackModel& model) const;
  /// Rebuild for @p model's topology. @throws std::length_error past
  /// 32-bit node ids (IC(0) indexes with 32 bits too).
  void build(const pdn::StackModel& model);
  [[nodiscard]] const linalg::CooLayout& layout() const { return layout_; }

 private:
  std::size_t nodes_ = 0;
  std::vector<std::uint32_t> ends_;  ///< a, b of every resistor
  std::vector<std::uint32_t> taps_;
  linalg::CooLayout layout_;
};

class IrSolver;

/// The members of a lane solve (IrSolver::solve_lanes), set up on demand so
/// that only the members in flight are alive.
class LaneFeed {
 public:
  virtual ~LaneFeed() = default;
  /// The next member for @p lane: its solver, with @p sinks pointed at its
  /// sink currents (both valid until done() for the lane), or null when no
  /// member is left.
  virtual const IrSolver* next(std::size_t lane, std::span<const double>& sinks) = 0;
  /// The member in @p lane is solved: @p outcome is what solve() returns for
  /// it alone, bit for bit.
  virtual void done(std::size_t lane, SolveOutcome& outcome) = 0;
};

/// A sweep chunk's state for lane solves and for the solvers they run: the
/// structure of the last topology assembled, the lane CG buffers, each
/// lane's right-hand side and one SolveScratch for the members' ladders,
/// which run one at a time. Never share one between threads.
struct LaneScratch {
  MeshStructure structure;
  linalg::CgScratch cg;
  SolveScratch solve;
  std::array<std::vector<double>, linalg::kCgLanes> rhs;
};

class IrSolver {
 public:
  /// @param structure a sweep chunk's structure of the last topology it
  /// assembled: reused when @p model stamps the same topology, rebuilt in
  /// place otherwise; null builds a private one. Either way G is its values
  /// summed into the slots in stamp order, bit for bit CooBuilder::compress.
  /// @throws core::ValidationError (a std::invalid_argument) when the mesh
  /// fails pre-solve validation.
  explicit IrSolver(const pdn::StackModel& model, SolverKind kind = SolverKind::kPcgIc,
                    IrSolverOptions options = {}, MeshStructure* structure = nullptr);

  /// The unified entry point: a block of one slice in the calling thread's
  /// workspace, whose solution is copied into the outcome's x.
  /// request.sinks must have model.node_count() entries
  /// (std::invalid_argument otherwise -- a caller bug); every data-dependent
  /// failure comes back in SolveOutcome::status. Thread-safe: concurrent
  /// solves on one IrSolver are supported, each in its own thread's
  /// workspace.
  [[nodiscard]] SolveOutcome solve(const SolveRequest& request) const;

  /// solve() of the one slice @p fill writes, whose solution stays in the
  /// calling thread's workspace (SolveWorkspace::solutions(), width 1)
  /// instead of being copied out: the outcome's x stays empty.
  [[nodiscard]] SolveOutcome solve_in_place(const SinkFill& fill, bool want_ir) const;

  /// solve() of up to linalg::kSolveBlock single-RHS requests at once, the
  /// unit of the LUT and Monte Carlo sweeps and of coalesced evaluations, in
  /// the calling thread's workspace. @p fill writes the slices' sink
  /// currents; out[r] is what solve() of slice r alone returns, bit for bit,
  /// entry check, verification and counters included, and the slice's
  /// solution stays in the workspace (SolveWorkspace::solutions(),
  /// solution(r)). A sparse-direct start sweeps the cached factor once for
  /// the block and verifies every swept slice in one pass over G; only a
  /// slice that fails runs its ladder, alone and on copies, and so does
  /// every slice of another start or a declined factor. The block is one
  /// solver/solve_batch span, with a solver/solve child per slice that runs
  /// its ladder. Thread-safe like solve(); throws std::invalid_argument
  /// when out is empty or longer than kSolveBlock.
  void solve_block(const SinkFill& fill, bool want_ir, std::span<SolveOutcome> out) const;

  /// solve_block() of out.size() sink vectors stored back to back in
  /// @p sinks (RHS-major); throws std::invalid_argument unless @p sinks is
  /// out.size() node vectors long.
  void solve_block(std::span<const double> sinks, bool want_ir, std::span<SolveOutcome> out) const;

  /// Solve up to @p members single-RHS members through
  /// linalg::solve_cg_lanes: three IC-PCG solves in lockstep, a finished lane
  /// taking the feed's next member. Each member keeps solve()'s entry checks,
  /// residual verification and escalation ladder, so its outcome is bitwise
  /// what solve() of it alone returns. A member whose G pattern, start rung
  /// or CG options differ from the first member's is solved alone, by
  /// solve().
  static void solve_lanes(LaneFeed& feed, std::size_t members, bool want_ir,
                          LaneScratch& scratch);

  [[nodiscard]] std::size_t node_count() const { return g_.dimension(); }
  [[nodiscard]] double vdd() const { return vdd_; }
  [[nodiscard]] const linalg::Csr& conductance_matrix() const { return g_; }
  /// The configured starting rung (a failed solve may still escalate past it).
  [[nodiscard]] SolverKind kind() const { return kind_; }

  /// True when the cached sparse-direct factor exists, building it on first
  /// call (once_flag; concurrent callers race safely). The LUT build and the
  /// Monte Carlo sweep call it before fanning out, so the factor is built on
  /// the calling thread, where its numeric phase can use a pool, rather than
  /// inside one worker's first solve. False, too, when the build is
  /// cancelled; a later call builds it again.
  [[nodiscard]] bool sparse_factor_available() const;

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
  /// A block's entry: turns the sink currents of out.size() slices
  /// (node-major in @p sinks) into the right-hand sides supply_rhs - sinks,
  /// laid out alike in @p rhs, and gives each slice with a non-finite sink
  /// an input error naming its first such node (counted in solver.failures).
  void admit(const double* sinks, double* rhs, std::span<SolveOutcome> out) const;
  /// What a block's slices went through: verified with the block, or their
  /// own ladder.
  struct BlockTally {
    std::size_t verified = 0;
    std::size_t laddered = 0;
  };
  /// The body of every workspace solve: the sink currents of out.size()
  /// slices are in @p ws's sink block. Admits them, sweeps the factor on a
  /// sparse-direct start, verifies the swept slices, runs the ladder of each
  /// other admitted slice, and leaves every accepted solution in @p ws's
  /// solution block. @p lone: the slices' work is one solver/solve span, as
  /// for solve().
  BlockTally run_block(SolveWorkspace& ws, std::span<SolveOutcome> out, bool lone) const;
  /// The ladder over @p rhs. @p first, when given, is the start rung's
  /// result, already run in a lane or swept with its block. @p span is the
  /// solve's solver/solve span, which gets the accepted rung's attributes.
  [[nodiscard]] SolveOutcome ladder(std::span<const double> rhs, bool want_ir, SolveScratch& ws,
                                    RungResult* first, obs::TraceSpan& span) const;
  [[nodiscard]] linalg::CgOptions cg_options() const;
  /// A solve_cg result as the ic-pcg rung's result.
  [[nodiscard]] static RungResult pcg_rung(linalg::CgResult& result);

  class LaneAdapter;

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
  /// Sticky decline reason (fill guard, not SPD). A cancelled build sets
  /// none: it leaves sparse_once_ unset, so the next solve builds again.
  mutable std::string sparse_error_;
};

}  // namespace pdn3d::irdrop
