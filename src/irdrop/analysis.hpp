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

/// The load side of an IR analysis, fixed by a stack's device-layer grids:
/// every floorplan block rasterized onto its die's device-layer nodes, a
/// memory state's per-node sink currents, and the per-die statistics of a
/// solved IR map. It copies what it reads from the model, so it may outlive
/// the model; the design points of a sweep's usage group share one (fits()).
class LoadMap {
 public:
  /// @param dram_fp, logic_fp kept by reference; must outlive the map.
  LoadMap(const pdn::StackModel& model, const floorplan::Floorplan& dram_fp,
          const floorplan::Floorplan& logic_fp, PowerBinding power);

  /// True when @p model has this map's node count, supply voltage, dies and
  /// device-layer grid geometry, so that a map built from @p model would
  /// inject and measure exactly like this one.
  [[nodiscard]] bool fits(const pdn::StackModel& model) const;

  /// The per-node sink currents of @p state into @p sinks (resized, zeroed).
  void injection_into(const power::MemoryState& state, std::vector<double>& sinks) const;
  /// The same into @p sinks, one entry per node (zeroed here).
  void injection_into(const power::MemoryState& state, std::span<double> sinks) const;

  /// The statistics of one solved IR map (@p ir, one entry per node);
  /// @p outcome supplies the solver telemetry.
  [[nodiscard]] IrResult stats(const power::MemoryState& state, std::span<const double> ir,
                               const SolveOutcome& outcome) const;

  /// The end of an analysis of @p state: counts the state and turns its
  /// solve's outcome (IR drops) into the IrResult, or throws
  /// core::NumericalError when the solve failed. IrAnalyzer::analyze ends
  /// here, and so do a block's states (IrAnalyzer::result) and a sweep's lane
  /// solve (IrSolver::solve_lanes).
  [[nodiscard]] IrResult result(const power::MemoryState& state, SolveOutcome& outcome) const;

  /// Device-layer nodes of every block of DRAM die @p die, in floorplan order.
  [[nodiscard]] const std::vector<std::vector<std::size_t>>& dram_block_nodes(int die) const {
    return dram_block_nodes_[static_cast<std::size_t>(die)];
  }

 private:
  const floorplan::Floorplan& dram_fp_;
  const floorplan::Floorplan& logic_fp_;
  PowerBinding power_;
  std::size_t node_count_ = 0;
  double vdd_ = 0.0;
  std::vector<pdn::LayerGrid> dram_grids_;  ///< device grid of each DRAM die
  std::optional<pdn::LayerGrid> logic_grid_;

  /// Block index -> device-layer node ids, per DRAM die.
  std::vector<std::vector<std::vector<std::size_t>>> dram_block_nodes_;
  std::vector<std::vector<std::size_t>> logic_block_nodes_;
};

class IrAnalyzer {
 public:
  /// @param model built stack (kept by reference; must outlive the analyzer).
  /// @param dram_fp the (identical) DRAM die floorplan.
  /// @param logic_fp host floorplan; required when the model has a logic die.
  IrAnalyzer(const pdn::StackModel& model, const floorplan::Floorplan& dram_fp,
             const floorplan::Floorplan& logic_fp, PowerBinding power,
             SolverKind solver = SolverKind::kPcgIc);

  /// Full IR analysis of one memory state. A sweep passes one @p scratch per
  /// pool chunk and reuses its buffers across the chunk's states; null
  /// allocates locally. Thread-safe when each concurrent caller passes its own
  /// scratch (or none). Throws core::NumericalError when every solver rung
  /// fails.
  [[nodiscard]] IrResult analyze(const power::MemoryState& state,
                                 SolveScratch* scratch = nullptr) const;

  /// The solves of analyze() for up to linalg::kSolveBlock states, in one
  /// pass over the solver's cached factor (IrSolver::solve_block): the unit
  /// of the LUT and Monte Carlo sweeps. @p outcomes (one per state) receive
  /// what analyze(states[i], &scratch) solves, bit for bit; result() turns
  /// each into the IrResult analyze() returns, or throws what it throws. The
  /// block is one irdrop/analyze_batch span.
  void solve_block(std::span<const power::MemoryState> states, SolveScratch& scratch,
                   std::span<SolveOutcome> outcomes) const;

  /// The end of analyze() for a state solved by solve_block().
  [[nodiscard]] IrResult result(const power::MemoryState& state, SolveOutcome& outcome) const {
    return load_.result(state, outcome);
  }

  /// Analyze many states, linalg::kSolveBlock per solve_block() -- the
  /// service's request-coalescing path. Results come back in input order,
  /// each bitwise identical to a stand-alone analyze() of that state, solver
  /// telemetry included. All-or-nothing: a state whose solve fails throws
  /// its core::NumericalError.
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
  /// The one-state solve behind analyze(), ir_map() and node_voltages():
  /// the injection goes into the scratch block, which the solve turns into
  /// its right-hand side.
  [[nodiscard]] SolveOutcome solve_state(const power::MemoryState& state, bool want_ir,
                                         SolveScratch* scratch) const;

  const pdn::StackModel& model_;
  const floorplan::Floorplan& dram_fp_;
  IrSolver solver_;  ///< before load_: the mesh is validated before it is rasterized
  LoadMap load_;
};

}  // namespace pdn3d::irdrop
