#include "transient/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/status.hpp"
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

std::vector<double> TransientSimulator::solve(const std::vector<double>& rhs,
                                              std::vector<double> x) const {
  // IC-PCG with a warm start (the previous time step's solution).
  const std::size_t n = system_.dimension();
  std::vector<double> r(n, 0.0);
  system_.multiply(x, r);
  for (std::size_t i = 0; i < n; ++i) r[i] = rhs[i] - r[i];
  std::vector<double> z(n, 0.0);
  std::vector<double> p(n, 0.0);
  std::vector<double> ap(n, 0.0);

  const double bnorm = linalg::norm2(rhs);
  if (bnorm == 0.0) return std::vector<double>(n, 0.0);
  const double target = 1e-9 * bnorm;
  if (linalg::norm2(r) <= target) return x;

  ic_system_->apply(r, z);
  p = z;
  double rz = linalg::dot(r, z);
  for (std::size_t it = 0; it < 5000; ++it) {
    system_.multiply(p, ap);
    const double pap = linalg::dot(p, ap);
    if (pap <= 0.0) break;
    const double alpha = rz / pap;
    linalg::axpy(alpha, p, x);
    linalg::axpy(-alpha, ap, r);
    if (linalg::norm2(r) <= target) return x;
    ic_system_->apply(r, z);
    const double rz_new = linalg::dot(r, z);
    const double beta = rz_new / rz;
    rz = rz_new;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  throw std::runtime_error("TransientSimulator: PCG did not converge");
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
  for (std::size_t k = 1; k <= steps; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      rhs[i] = supply_rhs_[i] - sinks[i] + cap_over_dt_[i] * v[i];
    }
    v = solve(rhs, std::move(v));
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
