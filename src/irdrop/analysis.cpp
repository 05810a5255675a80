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
  if (sinks.size() != node_count_) throw std::invalid_argument("IrAnalyzer: sink vector size");
  std::fill(sinks.begin(), sinks.end(), 0.0);
  inject(state, sinks.data(), 1);
}

void LoadMap::inject(const power::MemoryState& state, double* sinks, std::size_t stride) const {
  if (state.die_count() != static_cast<int>(dram_grids_.size())) {
    throw std::invalid_argument("IrAnalyzer: memory state die count mismatch");
  }
  const double vdd = vdd_;

  const auto add_block_power = [&](const std::vector<std::size_t>& nodes, double watts) {
    if (nodes.empty() || watts <= 0.0) return;
    const double amps_per_node = watts / vdd / static_cast<double>(nodes.size());
    for (std::size_t n : nodes) sinks[n * stride] += amps_per_node;
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

template <std::size_t W, bool kDrops>
void LoadMap::summarize_at(const double* x, std::span<IrResult> out) const {
  const auto drop = [&](double v) { return kDrops ? v : vdd_ - v; };
  for (std::size_t d = 0; d < dram_grids_.size(); ++d) {
    const pdn::LayerGrid& g = dram_grids_[d];
    const double* row = x + g.base * W;
    double max_v[W] = {};
    double sum[W] = {};
    for (std::size_t k = 0; k < g.size(); ++k) {
      for (std::size_t r = 0; r < W; ++r) {
        const double v = drop(row[k * W + r]);
        max_v[r] = std::max(max_v[r], v);
        sum[r] += v;
      }
    }
    for (std::size_t r = 0; r < W; ++r) {
      auto& stats = out[r].dram_dies[d];
      stats.max_mv = util::to_mV(max_v[r]);
      stats.avg_mv = util::to_mV(sum[r] / static_cast<double>(g.size()));
      out[r].dram_max_mv = std::max(out[r].dram_max_mv, stats.max_mv);
    }
  }

  if (logic_grid_) {
    const pdn::LayerGrid& g = *logic_grid_;
    const double* row = x + g.base * W;
    double max_v[W] = {};
    for (std::size_t k = 0; k < g.size(); ++k) {
      for (std::size_t r = 0; r < W; ++r) max_v[r] = std::max(max_v[r], drop(row[k * W + r]));
    }
    for (std::size_t r = 0; r < W; ++r) out[r].logic_max_mv = util::to_mV(max_v[r]);
  }
}

void LoadMap::summarize(std::span<const power::MemoryState> states,
                        std::span<const SolveOutcome> outcomes, std::span<const double> x,
                        bool drops, std::span<IrResult> out) const {
  const std::size_t width = states.size();
  if (outcomes.size() != width || out.size() != width || width == 0 ||
      width > linalg::kSolveBlock || x.size() != node_count_ * width) {
    throw std::invalid_argument("LoadMap::summarize: block size mismatch");
  }
  for (IrResult& r : out) {
    r.dram_dies.resize(dram_grids_.size());
    r.dram_max_mv = 0.0;
    r.logic_max_mv = 0.0;
  }
  linalg::at_width(width, [&](auto w) {
    if (drops) {
      summarize_at<decltype(w)::value, true>(x.data(), out);
    } else {
      summarize_at<decltype(w)::value, false>(x.data(), out);
    }
  });

  for (std::size_t r = 0; r < width; ++r) {
    if (!outcomes[r].ok()) continue;
    IrResult& res = out[r];
    res.solver_kind = outcomes[r].kind_used;
    res.solver_iterations = outcomes[r].iterations;
    res.solver_escalations = outcomes[r].escalations;
    res.total_power_mw = 0.0;
    res.active_die_power_mw = 0.0;
    const power::MemoryState& state = states[r];
    for (std::size_t d = 0; d < dram_grids_.size(); ++d) {
      const auto& die = state.dies[d];
      const double die_mw = (die.active()
                                 ? power_.dram.active_die_mw(state.io_activity, die.count())
                                 : power_.dram.idle_mw) *
                            power_.dram_scale;
      res.total_power_mw += die_mw;
      if (die.active()) res.active_die_power_mw = std::max(res.active_die_power_mw, die_mw);
    }
  }
}

namespace {

/// The end of every analysis: counts the state, and throws the solve's
/// failure.
void finish_analysis(SolveOutcome& outcome) {
  static auto& m_states = obs::counter("analysis.states_analyzed");
  m_states.add(1);
  if (!outcome.ok()) throw core::NumericalError(std::move(outcome.status));
}

}  // namespace

IrResult LoadMap::result(const power::MemoryState& state, SolveOutcome& outcome) const {
  finish_analysis(outcome);
  IrResult out;
  summarize({&state, 1}, {&outcome, 1}, outcome.x, /*drops=*/true, {&out, 1});
  return out;
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

std::vector<double> IrAnalyzer::solved_map(const power::MemoryState& state, bool want_ir) const {
  SolveOutcome outcome = solver_.solve_in_place(
      [&](std::span<double> sinks, std::size_t) { load_.inject(state, sinks.data(), 1); },
      want_ir);
  if (!outcome.ok()) throw core::NumericalError(std::move(outcome.status));
  return SolveWorkspace::local().solution(0);
}

std::vector<double> IrAnalyzer::ir_map(const power::MemoryState& state) const {
  return solved_map(state, true);
}

std::vector<double> IrAnalyzer::node_voltages(const power::MemoryState& state) const {
  return solved_map(state, false);
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

IrResult IrAnalyzer::analyze(const power::MemoryState& state) const {
  PDN3D_TRACE_SPAN("irdrop/analyze");
  SolveOutcome outcome = solver_.solve_in_place(
      [&](std::span<double> sinks, std::size_t) { load_.inject(state, sinks.data(), 1); },
      /*want_ir=*/true);
  IrResult stats;
  load_.summarize({&state, 1}, {&outcome, 1}, SolveWorkspace::local().solutions(),
                  /*drops=*/false, {&stats, 1});
  finish_analysis(outcome);
  return stats;
}

void IrAnalyzer::solve_block(std::span<const power::MemoryState> states,
                             std::span<SolveOutcome> outcomes, std::span<IrResult> results) const {
  if (outcomes.size() != states.size() || results.size() != states.size()) {
    throw std::invalid_argument("IrAnalyzer::solve_block: one outcome and one result per state");
  }
  PDN3D_TRACE_SPAN("irdrop/analyze_batch");
  solver_.solve_block(
      [&](std::span<double> sinks, std::size_t width) {
        for (std::size_t r = 0; r < width; ++r) load_.inject(states[r], sinks.data() + r, width);
      },
      /*want_ir=*/true, outcomes);
  load_.summarize(states, outcomes, SolveWorkspace::local().solutions(), /*drops=*/false,
                  results);
}

const IrResult& IrAnalyzer::result(SolveOutcome& outcome, const IrResult& stats) const {
  finish_analysis(outcome);
  return stats;
}

std::vector<IrResult> IrAnalyzer::analyze_batch(
    std::span<const power::MemoryState> states) const {
  std::vector<IrResult> out;
  out.reserve(states.size());
  std::array<SolveOutcome, linalg::kSolveBlock> outcomes;
  std::array<IrResult, linalg::kSolveBlock> results;
  for (std::size_t first = 0; first < states.size(); first += linalg::kSolveBlock) {
    const std::size_t count = std::min(linalg::kSolveBlock, states.size() - first);
    solve_block(states.subspan(first, count), std::span(outcomes).first(count),
                std::span(results).first(count));
    for (std::size_t i = 0; i < count; ++i) out.push_back(result(outcomes[i], results[i]));
  }
  return out;
}

}  // namespace pdn3d::irdrop
