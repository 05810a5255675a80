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
  /// Adds the sink currents of @p state to entries 0, @p stride, 2 * stride,
  /// ... of @p sinks, one per node: one slice of a node-major block.
  void inject(const power::MemoryState& state, double* sinks, std::size_t stride) const;

  /// The statistics of states.size() solved slices, node-major in @p x
  /// (entry i of slice r at i * states.size() + r): node voltages, or IR
  /// drops when @p drops. out[r] gets slice r's, with outcomes[r]'s solver
  /// telemetry, when outcomes[r] succeeded. One pass over the device-layer
  /// nodes serves every slice, and each slice's drops (vdd - x) are summed
  /// in node order, as for a lone map, so a slice's result is bit for bit
  /// the same at any width.
  void summarize(std::span<const power::MemoryState> states,
                 std::span<const SolveOutcome> outcomes, std::span<const double> x, bool drops,
                 std::span<IrResult> out) const;

  /// The end of an analysis of @p state from its solve's outcome (IR drops
  /// in outcome.x): counts the state and returns its IrResult, or throws
  /// core::NumericalError when the solve failed. A sweep's lane solve
  /// (IrSolver::solve_lanes) ends here.
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

  /// summarize()'s pass at width W.
  template <std::size_t W, bool kDrops>
  void summarize_at(const double* x, std::span<IrResult> out) const;

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

  /// Full IR analysis of one memory state, solved and summarized in the
  /// calling thread's workspace (IrSolver::solve_in_place). Thread-safe.
  /// Throws core::NumericalError when every solver rung fails.
  [[nodiscard]] IrResult analyze(const power::MemoryState& state) const;

  /// analyze() of up to linalg::kSolveBlock states as one block: one pass
  /// over the solver's cached factor and one verification pass over G
  /// (IrSolver::solve_block), then one statistics pass over the block
  /// (LoadMap::summarize), all in the calling thread's workspace.
  /// outcomes[i] receives state i's solve status and telemetry, and
  /// results[i], when that solve succeeded, its statistics; result() turns
  /// each pair into what analyze(states[i]) returns, or throws what it
  /// throws. The block is one irdrop/analyze_batch span.
  void solve_block(std::span<const power::MemoryState> states,
                   std::span<SolveOutcome> outcomes, std::span<IrResult> results) const;

  /// The end of analyze() for a state of solve_block(): counts it and
  /// returns @p stats, or throws core::NumericalError when @p outcome failed.
  [[nodiscard]] const IrResult& result(SolveOutcome& outcome, const IrResult& stats) const;

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
  /// The solved map of one state behind ir_map() and node_voltages().
  [[nodiscard]] std::vector<double> solved_map(const power::MemoryState& state,
                                               bool want_ir) const;

  const pdn::StackModel& model_;
  const floorplan::Floorplan& dram_fp_;
  IrSolver solver_;  ///< before load_: the mesh is validated before it is rasterized
  LoadMap load_;
};

}  // namespace pdn3d::irdrop
