#include "transient/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/status.hpp"
#include "linalg/cg.hpp"
#include "linalg/coo.hpp"
#include "util/units.hpp"

namespace pdn3d::transient {

TransientSimulator::TransientSimulator(const pdn::StackModel& model, std::span<const double> caps,
                                       double dt_s)
    : model_(model), dc_solver_(model), dt_(dt_s) {
  const std::size_t n = model.node_count();
  if (caps.size() != n) throw std::invalid_argument("TransientSimulator: cap vector size");
  if (dt_s <= 0.0) throw std::invalid_argument("TransientSimulator: dt must be positive");

  cap_over_dt_.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) cap_over_dt_[i] = caps[i] / dt_;

  linalg::CooBuilder builder(n);
  for (const auto& r : model.resistors()) builder.stamp_conductance(r.a, r.b, 1.0 / r.ohms);
  supply_rhs_.assign(n, 0.0);
  for (const auto& t : model.taps()) {
    const double g = 1.0 / t.ohms;
    builder.stamp_to_ground(t.node, g);
    supply_rhs_[t.node] += g * model.vdd();
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (cap_over_dt_[i] > 0.0) builder.stamp_to_ground(i, cap_over_dt_[i]);
  }
  system_ = builder.compress();

  ic_system_ = std::make_unique<linalg::IncompleteCholesky>(system_);
}

std::vector<double> TransientSimulator::solve(std::size_t step, const std::vector<double>& rhs,
                                              const std::vector<double>& guess,
                                              linalg::CgScratch& scratch) const {
  // IC-PCG warm-started at the previous time step's solution.
  linalg::CgOptions opts;
  opts.rel_tolerance = 1e-9;
  opts.max_iterations = 5000;
  opts.x0 = guess;
  opts.cached_ic = ic_system_.get();
  linalg::CgResult result = linalg::solve_cg(system_, rhs, opts, &scratch);
  if (!result.converged) {
    throw core::NumericalError(core::Status::numerical_failure(
        "transient step " + std::to_string(step) + ": ic-pcg " +
        linalg::to_string(result.failure) + (result.detail.empty() ? "" : ": " + result.detail)));
  }
  return std::move(result.x);
}

double TransientSimulator::worst_dram_ir(std::span<const double> v) const {
  double worst = 0.0;
  for (int d = 0; d < model_.dram_die_count(); ++d) {
    const auto& g = model_.device_grid(d);
    for (std::size_t k = 0; k < g.size(); ++k) {
      worst = std::max(worst, model_.vdd() - v[g.base + k]);
    }
  }
  return util::to_mV(worst);
}

TransientResult TransientSimulator::step_response(std::span<const double> sinks,
                                                  double duration_s) const {
  const std::size_t n = system_.dimension();
  if (sinks.size() != n) throw std::invalid_argument("step_response: sink vector size");
  if (duration_s <= 0.0) throw std::invalid_argument("step_response: duration must be positive");

  TransientResult out;

  // DC reference (t -> inf): a verified solve of G alone, or a typed error.
  irdrop::SolveOutcome dc = dc_solver_.solve({.sinks = sinks});
  if (!dc.ok()) throw core::NumericalError(std::move(dc.status));
  out.dc_ir_mv = worst_dram_ir(dc.x);

  // Time march from the fully charged state.
  std::vector<double> v(n, model_.vdd());
  std::vector<double> rhs(n, 0.0);
  const auto steps = static_cast<std::size_t>(std::ceil(duration_s / dt_));
  out.time_ns.reserve(steps + 1);
  out.worst_ir_mv.reserve(steps + 1);
  out.time_ns.push_back(0.0);
  out.worst_ir_mv.push_back(0.0);

  bool settled = false;
  linalg::CgScratch scratch;
  for (std::size_t k = 1; k <= steps; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      rhs[i] = supply_rhs_[i] - sinks[i] + cap_over_dt_[i] * v[i];
    }
    v = solve(k, rhs, v, scratch);
    const double t_ns = static_cast<double>(k) * dt_ * 1e9;
    const double ir = worst_dram_ir(v);
    out.time_ns.push_back(t_ns);
    out.worst_ir_mv.push_back(ir);
    out.peak_ir_mv = std::max(out.peak_ir_mv, ir);
    if (!settled && out.dc_ir_mv > 0.0 && std::abs(ir - out.dc_ir_mv) <= 0.02 * out.dc_ir_mv) {
      out.settle_ns = t_ns;
      settled = true;
    }
  }
  if (!settled) out.settle_ns = out.time_ns.back();
  if (out.dc_ir_mv > 0.0) {
    out.overshoot_fraction = std::max(0.0, (out.peak_ir_mv - out.dc_ir_mv) / out.dc_ir_mv);
  }
  return out;
}

}  // namespace pdn3d::transient
