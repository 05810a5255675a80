#include "irdrop/analysis.hpp"

#include <algorithm>
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

}  // namespace

IrAnalyzer::IrAnalyzer(const pdn::StackModel& model, const floorplan::Floorplan& dram_fp,
                       const floorplan::Floorplan& logic_fp, PowerBinding power, SolverKind solver)
    : model_(model), dram_fp_(dram_fp), logic_fp_(logic_fp), power_(power),
      solver_(model, solver) {
  // Rasterize every block of every die onto its device layer once.
  dram_block_nodes_.resize(static_cast<std::size_t>(model_.dram_die_count()));
  for (int d = 0; d < model_.dram_die_count(); ++d) {
    const pdn::LayerGrid& g = model_.device_grid(d);
    auto& per_block = dram_block_nodes_[static_cast<std::size_t>(d)];
    per_block.reserve(dram_fp_.blocks().size());
    for (const auto& b : dram_fp_.blocks()) {
      per_block.push_back(g.nodes_in(to_global(b.rect, g)));
    }
  }
  if (model_.has_logic()) {
    const pdn::LayerGrid& g = model_.device_grid(pdn::kLogicDie);
    logic_block_nodes_.reserve(logic_fp_.blocks().size());
    for (const auto& b : logic_fp_.blocks()) {
      logic_block_nodes_.push_back(g.nodes_in(to_global(b.rect, g)));
    }
  }
}

std::vector<double> IrAnalyzer::injection(const power::MemoryState& state) const {
  std::vector<double> sinks;
  injection_into(state, sinks);
  return sinks;
}

void IrAnalyzer::injection_into(const power::MemoryState& state,
                                std::vector<double>& sinks) const {
  if (state.die_count() != model_.dram_die_count()) {
    throw std::invalid_argument("IrAnalyzer: memory state die count mismatch");
  }
  sinks.assign(model_.node_count(), 0.0);
  const double vdd = model_.vdd();

  const auto add_block_power = [&](const std::vector<std::size_t>& nodes, double watts) {
    if (nodes.empty() || watts <= 0.0) return;
    const double amps_per_node = watts / vdd / static_cast<double>(nodes.size());
    for (std::size_t n : nodes) sinks[n] += amps_per_node;
  };

  for (int d = 0; d < model_.dram_die_count(); ++d) {
    const auto blocks = power::dram_die_power(dram_fp_, state.dies[static_cast<std::size_t>(d)],
                                              state.io_activity, power_.dram, power_.dram_scale);
    const auto& per_block = dram_block_nodes_[static_cast<std::size_t>(d)];
    for (const auto& bp : blocks) {
      // Find the block's index within the floorplan (blocks are stored in
      // insertion order and BlockPower points into the same vector).
      const std::size_t idx = static_cast<std::size_t>(bp.block - dram_fp_.blocks().data());
      add_block_power(per_block[idx], bp.power_w);
    }
  }

  if (model_.has_logic() && power_.logic_active) {
    const auto blocks = power::logic_die_power(logic_fp_, power_.logic);
    for (const auto& bp : blocks) {
      const std::size_t idx = static_cast<std::size_t>(bp.block - logic_fp_.blocks().data());
      add_block_power(logic_block_nodes_[idx], bp.power_w);
    }
  }
}

std::vector<double> IrAnalyzer::ir_map(const power::MemoryState& state) const {
  const std::vector<double> sinks = injection(state);
  SolveOutcome outcome = solver_.solve({.sinks = sinks, .want_ir = true});
  if (!outcome.ok()) throw core::NumericalError(std::move(outcome.status));
  return std::move(outcome.x);
}

std::vector<double> IrAnalyzer::node_voltages(const power::MemoryState& state) const {
  const std::vector<double> sinks = injection(state);
  SolveOutcome outcome = solver_.solve({.sinks = sinks});
  if (!outcome.ok()) throw core::NumericalError(std::move(outcome.status));
  return std::move(outcome.x);
}

std::vector<IrAnalyzer::BlockIr> IrAnalyzer::block_report(const power::MemoryState& state,
                                                          int die) const {
  if (die < 0 || die >= model_.dram_die_count()) {
    throw std::out_of_range("IrAnalyzer::block_report: die out of range");
  }
  const std::vector<double> ir = ir_map(state);
  const auto& per_block = dram_block_nodes_[static_cast<std::size_t>(die)];

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

IrResult IrAnalyzer::analyze(const power::MemoryState& state) const {
  return analyze(state, nullptr, nullptr);
}

IrResult IrAnalyzer::analyze(const power::MemoryState& state, SolveScratch* scratch,
                             std::vector<double>* sinks_buffer) const {
  PDN3D_TRACE_SPAN("irdrop/analyze");
  static auto& m_states = obs::counter("analysis.states_analyzed");
  m_states.add(1);

  std::vector<double> local_sinks;
  std::vector<double>& sinks = sinks_buffer != nullptr ? *sinks_buffer : local_sinks;
  injection_into(state, sinks);
  SolveOutcome outcome = solver_.solve({.sinks = sinks, .want_ir = true}, scratch);
  if (!outcome.ok()) throw core::NumericalError(std::move(outcome.status));
  return extract_stats(state, outcome.x, outcome);
}

std::vector<IrResult> IrAnalyzer::analyze_batch(
    std::span<const power::MemoryState> states) const {
  PDN3D_TRACE_SPAN("irdrop/analyze_batch");
  static auto& m_states = obs::counter("analysis.states_analyzed");
  m_states.add(states.size());
  if (states.empty()) return {};

  // Pack the per-state injections back to back (RHS-major) for one
  // batch_count solve; the solver guarantees each solution slice is bitwise
  // identical to a stand-alone solve of that sink vector.
  const std::size_t n = model_.node_count();
  std::vector<double> sinks(n * states.size());
  std::vector<double> one;
  for (std::size_t i = 0; i < states.size(); ++i) {
    injection_into(states[i], one);
    std::copy(one.begin(), one.end(), sinks.begin() + static_cast<std::ptrdiff_t>(i * n));
  }

  SolveOutcome outcome =
      solver_.solve({.sinks = sinks, .want_ir = true, .batch_count = states.size()});
  if (!outcome.ok()) throw core::NumericalError(std::move(outcome.status));

  std::vector<IrResult> out;
  out.reserve(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    out.push_back(
        extract_stats(states[i], std::span<const double>(outcome.x).subspan(i * n, n), outcome));
  }
  return out;
}

IrResult IrAnalyzer::extract_stats(const power::MemoryState& state, std::span<const double> ir,
                                   const SolveOutcome& outcome) const {
  IrResult out;
  // Telemetry comes from the outcome of *this* request -- the deprecated
  // last_* accessors would report some concurrent solve's rung under a
  // threaded sweep. (For a batch, the outcome's scalars are the batch
  // aggregate; see analyze_batch.)
  out.solver_kind = outcome.kind_used;
  out.solver_iterations = outcome.iterations;
  out.solver_escalations = outcome.escalations;
  out.dram_dies.resize(static_cast<std::size_t>(model_.dram_die_count()));
  for (int d = 0; d < model_.dram_die_count(); ++d) {
    const pdn::LayerGrid& g = model_.device_grid(d);
    double max_v = 0.0;
    double sum = 0.0;
    for (std::size_t k = 0; k < g.size(); ++k) {
      const double v = ir[g.base + k];
      max_v = std::max(max_v, v);
      sum += v;
    }
    auto& stats = out.dram_dies[static_cast<std::size_t>(d)];
    stats.max_mv = util::to_mV(max_v);
    stats.avg_mv = util::to_mV(sum / static_cast<double>(g.size()));
    out.dram_max_mv = std::max(out.dram_max_mv, stats.max_mv);
  }

  if (model_.has_logic()) {
    const pdn::LayerGrid& g = model_.device_grid(pdn::kLogicDie);
    double max_v = 0.0;
    for (std::size_t k = 0; k < g.size(); ++k) max_v = std::max(max_v, ir[g.base + k]);
    out.logic_max_mv = util::to_mV(max_v);
  }

  for (int d = 0; d < model_.dram_die_count(); ++d) {
    const auto& die = state.dies[static_cast<std::size_t>(d)];
    const double die_mw = (die.active()
                               ? power_.dram.active_die_mw(state.io_activity, die.count())
                               : power_.dram.idle_mw) *
                          power_.dram_scale;
    out.total_power_mw += die_mw;
    if (die.active()) out.active_die_power_mw = std::max(out.active_die_power_mw, die_mw);
  }
  return out;
}

}  // namespace pdn3d::irdrop
