#include "irdrop/analysis.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/units.hpp"

namespace pdn3d::irdrop {

namespace {

/// Block rect (die-local mm) -> global frame using the grid's origin.
floorplan::Rect to_global(const floorplan::Rect& r, const pdn::LayerGrid& g) {
  return {r.x0 + g.x0, r.y0 + g.y0, r.x1 + g.x0, r.y1 + g.y0};
}

/// The grid fields rasterization and statistics read.
bool same_geometry(const pdn::LayerGrid& a, const pdn::LayerGrid& b) {
  return a.base == b.base && a.nx == b.nx && a.ny == b.ny && a.x0 == b.x0 && a.y0 == b.y0 &&
         a.dx == b.dx && a.dy == b.dy;
}

}  // namespace

LoadMap::LoadMap(const pdn::StackModel& model, const floorplan::Floorplan& dram_fp,
                 const floorplan::Floorplan& logic_fp, PowerBinding power)
    : dram_fp_(dram_fp), logic_fp_(logic_fp), power_(power), node_count_(model.node_count()),
      vdd_(model.vdd()) {
  // Rasterize every block of every die onto its device layer once.
  PDN3D_TRACE_SPAN("irdrop/rasterize");
  dram_block_nodes_.resize(static_cast<std::size_t>(model.dram_die_count()));
  for (int d = 0; d < model.dram_die_count(); ++d) {
    const pdn::LayerGrid& g = model.device_grid(d);
    dram_grids_.push_back(g);
    auto& per_block = dram_block_nodes_[static_cast<std::size_t>(d)];
    per_block.reserve(dram_fp_.blocks().size());
    for (const auto& b : dram_fp_.blocks()) {
      per_block.push_back(g.nodes_in(to_global(b.rect, g)));
    }
  }
  if (model.has_logic()) {
    const pdn::LayerGrid& g = model.device_grid(pdn::kLogicDie);
    logic_grid_ = g;
    logic_block_nodes_.reserve(logic_fp_.blocks().size());
    for (const auto& b : logic_fp_.blocks()) {
      logic_block_nodes_.push_back(g.nodes_in(to_global(b.rect, g)));
    }
  }
}

bool LoadMap::fits(const pdn::StackModel& model) const {
  if (model.node_count() != node_count_ || model.vdd() != vdd_ ||
      model.dram_die_count() != static_cast<int>(dram_grids_.size()) ||
      model.has_logic() != logic_grid_.has_value()) {
    return false;
  }
  for (int d = 0; d < model.dram_die_count(); ++d) {
    if (!same_geometry(model.device_grid(d), dram_grids_[static_cast<std::size_t>(d)])) {
      return false;
    }
  }
  return !logic_grid_ || same_geometry(model.device_grid(pdn::kLogicDie), *logic_grid_);
}

void LoadMap::injection_into(const power::MemoryState& state, std::vector<double>& sinks) const {
  sinks.resize(node_count_);
  injection_into(state, std::span<double>(sinks));
}

void LoadMap::injection_into(const power::MemoryState& state, std::span<double> sinks) const {
  if (state.die_count() != static_cast<int>(dram_grids_.size())) {
    throw std::invalid_argument("IrAnalyzer: memory state die count mismatch");
  }
  if (sinks.size() != node_count_) throw std::invalid_argument("IrAnalyzer: sink vector size");
  std::fill(sinks.begin(), sinks.end(), 0.0);
  const double vdd = vdd_;

  const auto add_block_power = [&](const std::vector<std::size_t>& nodes, double watts) {
    if (nodes.empty() || watts <= 0.0) return;
    const double amps_per_node = watts / vdd / static_cast<double>(nodes.size());
    for (std::size_t n : nodes) sinks[n] += amps_per_node;
  };

  for (std::size_t d = 0; d < dram_grids_.size(); ++d) {
    const auto blocks = power::dram_die_power(dram_fp_, state.dies[d], state.io_activity,
                                              power_.dram, power_.dram_scale);
    const auto& per_block = dram_block_nodes_[d];
    for (const auto& bp : blocks) {
      // Find the block's index within the floorplan (blocks are stored in
      // insertion order and BlockPower points into the same vector).
      const std::size_t idx = static_cast<std::size_t>(bp.block - dram_fp_.blocks().data());
      add_block_power(per_block[idx], bp.power_w);
    }
  }

  if (logic_grid_ && power_.logic_active) {
    const auto blocks = power::logic_die_power(logic_fp_, power_.logic);
    for (const auto& bp : blocks) {
      const std::size_t idx = static_cast<std::size_t>(bp.block - logic_fp_.blocks().data());
      add_block_power(logic_block_nodes_[idx], bp.power_w);
    }
  }
}

IrResult LoadMap::stats(const power::MemoryState& state, std::span<const double> ir,
                        const SolveOutcome& outcome) const {
  IrResult out;
  out.solver_kind = outcome.kind_used;
  out.solver_iterations = outcome.iterations;
  out.solver_escalations = outcome.escalations;
  out.dram_dies.resize(dram_grids_.size());
  for (std::size_t d = 0; d < dram_grids_.size(); ++d) {
    const pdn::LayerGrid& g = dram_grids_[d];
    double max_v = 0.0;
    double sum = 0.0;
    for (std::size_t k = 0; k < g.size(); ++k) {
      const double v = ir[g.base + k];
      max_v = std::max(max_v, v);
      sum += v;
    }
    auto& stats = out.dram_dies[d];
    stats.max_mv = util::to_mV(max_v);
    stats.avg_mv = util::to_mV(sum / static_cast<double>(g.size()));
    out.dram_max_mv = std::max(out.dram_max_mv, stats.max_mv);
  }

  if (logic_grid_) {
    const pdn::LayerGrid& g = *logic_grid_;
    double max_v = 0.0;
    for (std::size_t k = 0; k < g.size(); ++k) max_v = std::max(max_v, ir[g.base + k]);
    out.logic_max_mv = util::to_mV(max_v);
  }

  for (std::size_t d = 0; d < dram_grids_.size(); ++d) {
    const auto& die = state.dies[d];
    const double die_mw = (die.active()
                               ? power_.dram.active_die_mw(state.io_activity, die.count())
                               : power_.dram.idle_mw) *
                          power_.dram_scale;
    out.total_power_mw += die_mw;
    if (die.active()) out.active_die_power_mw = std::max(out.active_die_power_mw, die_mw);
  }
  return out;
}

IrResult LoadMap::result(const power::MemoryState& state, SolveOutcome& outcome) const {
  static auto& m_states = obs::counter("analysis.states_analyzed");
  m_states.add(1);
  if (!outcome.ok()) throw core::NumericalError(std::move(outcome.status));
  return stats(state, outcome.x, outcome);
}

IrAnalyzer::IrAnalyzer(const pdn::StackModel& model, const floorplan::Floorplan& dram_fp,
                       const floorplan::Floorplan& logic_fp, PowerBinding power, SolverKind solver)
    : model_(model), dram_fp_(dram_fp), solver_(model, solver),
      load_(model, dram_fp, logic_fp, power) {}

std::vector<double> IrAnalyzer::injection(const power::MemoryState& state) const {
  std::vector<double> sinks;
  injection_into(state, sinks);
  return sinks;
}

void IrAnalyzer::injection_into(const power::MemoryState& state,
                                std::vector<double>& sinks) const {
  load_.injection_into(state, sinks);
}

SolveOutcome IrAnalyzer::solve_state(const power::MemoryState& state, bool want_ir,
                                     SolveScratch* scratch) const {
  SolveScratch local;
  SolveScratch& ws = scratch != nullptr ? *scratch : local;
  injection_into(state, ws.block);
  return solver_.solve({.sinks = ws.block, .want_ir = want_ir}, &ws);
}

std::vector<double> IrAnalyzer::ir_map(const power::MemoryState& state) const {
  SolveOutcome outcome = solve_state(state, true, nullptr);
  if (!outcome.ok()) throw core::NumericalError(std::move(outcome.status));
  return std::move(outcome.x);
}

std::vector<double> IrAnalyzer::node_voltages(const power::MemoryState& state) const {
  SolveOutcome outcome = solve_state(state, false, nullptr);
  if (!outcome.ok()) throw core::NumericalError(std::move(outcome.status));
  return std::move(outcome.x);
}

std::vector<IrAnalyzer::BlockIr> IrAnalyzer::block_report(const power::MemoryState& state,
                                                          int die) const {
  if (die < 0 || die >= model_.dram_die_count()) {
    throw std::out_of_range("IrAnalyzer::block_report: die out of range");
  }
  const std::vector<double> ir = ir_map(state);
  const auto& per_block = load_.dram_block_nodes(die);

  std::vector<BlockIr> out;
  out.reserve(per_block.size());
  for (std::size_t b = 0; b < per_block.size(); ++b) {
    BlockIr entry;
    entry.block = &dram_fp_.blocks()[b];
    double sum = 0.0;
    for (const std::size_t n : per_block[b]) {
      entry.max_mv = std::max(entry.max_mv, util::to_mV(ir[n]));
      sum += util::to_mV(ir[n]);
    }
    if (!per_block[b].empty()) entry.avg_mv = sum / static_cast<double>(per_block[b].size());
    out.push_back(entry);
  }
  std::sort(out.begin(), out.end(),
            [](const BlockIr& a, const BlockIr& b) { return a.max_mv > b.max_mv; });
  return out;
}

IrResult IrAnalyzer::analyze(const power::MemoryState& state, SolveScratch* scratch) const {
  PDN3D_TRACE_SPAN("irdrop/analyze");
  SolveOutcome outcome = solve_state(state, true, scratch);
  return load_.result(state, outcome);
}

void IrAnalyzer::solve_block(std::span<const power::MemoryState> states, SolveScratch& scratch,
                             std::span<SolveOutcome> outcomes) const {
  if (outcomes.size() != states.size()) {
    throw std::invalid_argument("IrAnalyzer::solve_block: one outcome per state");
  }
  PDN3D_TRACE_SPAN("irdrop/analyze_batch");
  const std::size_t n = model_.node_count();
  scratch.block.resize(n * states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    load_.injection_into(states[i], std::span(scratch.block).subspan(i * n, n));
  }
  solver_.solve_block(scratch.block, true, scratch, outcomes);
}

std::vector<IrResult> IrAnalyzer::analyze_batch(
    std::span<const power::MemoryState> states) const {
  std::vector<IrResult> out;
  out.reserve(states.size());
  SolveScratch scratch;
  std::array<SolveOutcome, linalg::kSolveBlock> outcomes;
  for (std::size_t first = 0; first < states.size(); first += linalg::kSolveBlock) {
    const auto block = states.subspan(first, std::min(linalg::kSolveBlock, states.size() - first));
    solve_block(block, scratch, std::span(outcomes).first(block.size()));
    for (std::size_t i = 0; i < block.size(); ++i) out.push_back(result(block[i], outcomes[i]));
  }
  return out;
}

}  // namespace pdn3d::irdrop
