#pragma once

/// @file simulator.hpp
/// @brief Transient (RC) droop simulation on the stack R-Mesh.
///
/// Backward-Euler integration of C dv/dt = -G v + b with the same nodal
/// system the DC engine uses plus per-node decap. The system matrix
/// (G + C/dt) is SPD, factorized once (IC(0)) and reused across time steps,
/// so a full step response costs a few hundred PCG solves at most. The DC
/// reference (t -> inf) is the DC engine itself: an irdrop::IrSolver that
/// validates the mesh at construction and returns a verified answer or a
/// typed error.
///
/// This extends the paper's DC analysis toward its AC remarks (bond wires
/// reaching off-chip decaps, local decap from sub-bank partitioning).

#include <memory>
#include <span>
#include <vector>

#include "irdrop/solver.hpp"
#include "linalg/cg.hpp"
#include "linalg/csr.hpp"
#include "linalg/ichol.hpp"
#include "pdn/stack_model.hpp"

namespace pdn3d::transient {

struct TransientResult {
  std::vector<double> time_ns;       ///< sample times
  std::vector<double> worst_ir_mv;   ///< max DRAM-node IR drop at each time
  double peak_ir_mv = 0.0;           ///< max over the whole window
  double dc_ir_mv = 0.0;             ///< steady-state (t -> inf) value
  double settle_ns = 0.0;            ///< first time within 2% of DC
  double overshoot_fraction = 0.0;   ///< (peak - dc) / dc, 0 when monotone
};

class TransientSimulator {
 public:
  /// @param caps per-node capacitance in farads (node_count entries).
  /// @param dt_s integration step (s). Accuracy ~ O(dt); 50 ps default-ish.
  /// @throws core::ValidationError (a std::invalid_argument) when the mesh
  /// fails pre-solve validation.
  TransientSimulator(const pdn::StackModel& model, std::span<const double> caps, double dt_s);

  /// Step response: all nodes start at VDD (idle), then @p sinks switch on at
  /// t = 0 and stay. Simulates for @p duration_s. Throws core::NumericalError
  /// when the DC reference solve or a time step's CG solve fails.
  [[nodiscard]] TransientResult step_response(std::span<const double> sinks,
                                              double duration_s) const;

  [[nodiscard]] double dt_seconds() const { return dt_; }

 private:
  /// One backward-Euler step: linalg::solve_cg on G + C/dt from @p guess
  /// (the previous step), or core::NumericalError naming the CG failure.
  [[nodiscard]] std::vector<double> solve(std::size_t step, const std::vector<double>& rhs,
                                          const std::vector<double>& guess,
                                          linalg::CgScratch& scratch) const;
  [[nodiscard]] double worst_dram_ir(std::span<const double> v) const;

  const pdn::StackModel& model_;
  irdrop::IrSolver dc_solver_;       ///< G alone, for the DC reference
  double dt_;
  std::vector<double> cap_over_dt_;  ///< C/dt per node
  std::vector<double> supply_rhs_;   ///< sum of g*VDD per node (DC part)
  linalg::Csr system_;               ///< G + C/dt
  std::unique_ptr<linalg::IncompleteCholesky> ic_system_;
};

}  // namespace pdn3d::transient
