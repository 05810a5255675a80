#pragma once

/// @file analysis.hpp
/// @brief Memory-state -> IR-drop analysis on a built stack.
///
/// Binds a StackModel to its floorplans and power specs, precomputes the
/// block-to-mesh-node rasterization, and evaluates the IR drop of arbitrary
/// memory states. This is the engine every experiment in the paper runs on.

#include <optional>
#include <span>
#include <vector>

#include "floorplan/floorplan.hpp"
#include "irdrop/solver.hpp"
#include "pdn/stack_model.hpp"
#include "power/memory_state.hpp"
#include "power/power_model.hpp"

namespace pdn3d::irdrop {

/// Per-die IR statistics, in the paper's millivolt units.
struct DieIrStats {
  double max_mv = 0.0;
  double avg_mv = 0.0;
};

struct IrResult {
  std::vector<DieIrStats> dram_dies;  ///< bottom die first
  double dram_max_mv = 0.0;           ///< paper's "max IR drop" headline number
  double logic_max_mv = 0.0;          ///< host logic self-noise (0 off-chip)
  double total_power_mw = 0.0;        ///< stack total (DRAM dies only)
  double active_die_power_mw = 0.0;   ///< max per-die power among active dies

  // Numerical-health telemetry of the solve behind this result.
  SolverKind solver_kind = SolverKind::kPcgIc;  ///< rung that produced it
  std::size_t solver_iterations = 0;            ///< CG iterations (0 direct)
  std::size_t solver_escalations = 0;           ///< rungs that failed first
};

/// Power configuration for the analyzer.
struct PowerBinding {
  power::DiePowerSpec dram;
  power::LogicPowerSpec logic;
  double dram_scale = 1.0;  ///< benchmark power scaling
  bool logic_active = true; ///< inject logic power (ignored off-chip)
};

class IrAnalyzer {
 public:
  /// @param model built stack (kept by reference; must outlive the analyzer).
  /// @param dram_fp the (identical) DRAM die floorplan.
  /// @param logic_fp host floorplan; required when the model has a logic die.
  IrAnalyzer(const pdn::StackModel& model, const floorplan::Floorplan& dram_fp,
             const floorplan::Floorplan& logic_fp, PowerBinding power,
             SolverKind solver = SolverKind::kPcgIc);

  /// Full IR analysis of one memory state.
  [[nodiscard]] IrResult analyze(const power::MemoryState& state) const;

  /// analyze() with caller-owned work buffers -- the EvalContext hot path.
  /// @p scratch / @p sinks_buffer may be null (allocates locally). Thread-safe
  /// when each concurrent caller passes its own buffers.
  [[nodiscard]] IrResult analyze(const power::MemoryState& state, SolveScratch* scratch,
                                 std::vector<double>* sinks_buffer) const;

  /// Analyze many states through one multi-RHS solve (SolveRequest
  /// batch_count), amortizing the factorization across the group -- the
  /// service's request-coalescing hot path. Results come back in input order
  /// and every IrResult's voltages/statistics are bitwise identical to a
  /// stand-alone analyze() of that state (the solver's per-slice contract;
  /// the stats extraction is literally the same code). Per-result solver
  /// telemetry carries the batch aggregate (iterations/escalations sum,
  /// kind_used is the last slice's rung) -- rendered output never prints it
  /// for evaluate, so the byte-parity contract is unaffected. All-or-nothing:
  /// any slice exhausting the ladder throws core::NumericalError.
  [[nodiscard]] std::vector<IrResult> analyze_batch(
      std::span<const power::MemoryState> states) const;

  /// The per-node sink-current vector for a state (exposed for validation).
  [[nodiscard]] std::vector<double> injection(const power::MemoryState& state) const;

  /// injection() into a caller-owned buffer (resized and zeroed here).
  void injection_into(const power::MemoryState& state, std::vector<double>& sinks) const;

  /// Per-node IR drop (volts) over the whole stack for one state.
  [[nodiscard]] std::vector<double> ir_map(const power::MemoryState& state) const;

  /// Per-node voltages (volts) for one state -- input to crowding analysis.
  [[nodiscard]] std::vector<double> node_voltages(const power::MemoryState& state) const;

  /// Per-block IR statistics on one DRAM die -- the hotspot report that maps
  /// mesh results back onto the floorplan.
  struct BlockIr {
    const floorplan::Block* block = nullptr;
    double max_mv = 0.0;
    double avg_mv = 0.0;
  };
  /// Sorted hottest-first. @p die in [0, dram_die_count).
  [[nodiscard]] std::vector<BlockIr> block_report(const power::MemoryState& state, int die) const;

  [[nodiscard]] const IrSolver& solver() const { return solver_; }
  [[nodiscard]] const pdn::StackModel& model() const { return model_; }

 private:
  /// Shared per-state stats extraction: @p ir is one node_count()-long IR
  /// slice; @p outcome supplies the solver telemetry. Used by analyze() and
  /// analyze_batch() so their IrResults cannot diverge.
  [[nodiscard]] IrResult extract_stats(const power::MemoryState& state,
                                       std::span<const double> ir,
                                       const SolveOutcome& outcome) const;

  const pdn::StackModel& model_;
  const floorplan::Floorplan& dram_fp_;
  const floorplan::Floorplan& logic_fp_;
  PowerBinding power_;
  IrSolver solver_;

  /// Block index -> device-layer node ids, per DRAM die.
  std::vector<std::vector<std::vector<std::size_t>>> dram_block_nodes_;
  std::vector<std::vector<std::size_t>> logic_block_nodes_;
};

}  // namespace pdn3d::irdrop
