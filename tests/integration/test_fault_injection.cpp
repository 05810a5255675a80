/// @file test_fault_injection.cpp
/// @brief Fault-injection suite: plant mesh/input defects and prove every one
/// is either caught by pre-solve validation or recovered by the solver
/// escalation ladder with a dense-verified answer -- never silent garbage.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/benchmarks.hpp"
#include "core/status.hpp"
#include "irdrop/solver.hpp"
#include "pdn/mesh_validator.hpp"
#include "pdn/stack_builder.hpp"

namespace pdn3d::irdrop {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// 6x2 ladder mesh with two taps -- small enough for the dense reference,
/// rich enough that PCG needs real iterations.
pdn::StackModel ladder_mesh() {
  pdn::StackModel m(1.2);
  pdn::LayerGrid g;
  g.nx = 6;
  g.ny = 2;
  g.dx = g.dy = 1.0;
  m.add_grid(g);
  m.set_dram_die_count(1);
  for (int j = 0; j < 2; ++j) {
    for (int i = 0; i + 1 < 6; ++i) {
      m.add_resistor(g.node(i, j), g.node(i + 1, j), 0.5 + 0.1 * i);
    }
  }
  for (int i = 0; i < 6; ++i) {
    m.add_resistor(g.node(i, 0), g.node(i, 1), 0.3, pdn::ElementKind::kVia);
  }
  m.add_tap(g.node(0, 0), 0.2);
  m.add_tap(g.node(5, 1), 0.4);
  return m;
}

TEST(FaultInjection, FloatingNodeCaughtAtConstruction) {
  pdn::StackModel m(1.0);
  pdn::LayerGrid g;
  g.nx = 4;
  g.ny = 1;
  g.dx = g.dy = 1.0;
  m.add_grid(g);
  m.set_dram_die_count(1);
  m.add_tap(0, 1.0);
  m.add_resistor(0, 1, 1.0);
  m.add_resistor(2, 3, 1.0);  // island with no path to the tap
  try {
    IrSolver solver(m);
    FAIL() << "floating island must not reach the solver";
  } catch (const core::ValidationError& e) {
    EXPECT_TRUE(e.report().has_check("floating-node")) << e.report().to_string();
  }
}

TEST(FaultInjection, NegativeViaResistanceCaughtAtConstruction) {
  auto m = ladder_mesh();
  // Resistors 10..15 are the via column (kVia); flip one negative.
  std::size_t via_index = 0;
  for (std::size_t i = 0; i < m.resistors().size(); ++i) {
    if (m.resistors()[i].kind == pdn::ElementKind::kVia) via_index = i;
  }
  m.perturb_resistor(via_index, -0.3);
  try {
    IrSolver solver(m);
    FAIL() << "negative via resistance must not reach the solver";
  } catch (const core::ValidationError& e) {
    EXPECT_TRUE(e.report().has_check("non-positive-conductance")) << e.report().to_string();
  }
}

TEST(FaultInjection, NegativeResistanceNeverSilentEvenUnvalidated) {
  // Same defect with validation opted out: defense in depth. The matrix
  // assembly's own stamping guard still refuses the negative conductance, so
  // the defect cannot reach a solver silently through any path.
  auto m = ladder_mesh();
  m.perturb_resistor(0, -0.5);
  IrSolverOptions opts;
  opts.validate = false;
  EXPECT_THROW(IrSolver(m, SolverKind::kPcgIc, opts), std::invalid_argument);
}

TEST(FaultInjection, NanSinkReportedWithNode) {
  const auto m = ladder_mesh();
  IrSolver solver(m);
  std::vector<double> sinks(m.node_count(), 0.01);
  sinks[7] = kNan;
  const auto outcome = solver.solve(SolveRequest{.sinks = sinks});
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status.code(), core::StatusCode::kInputError);
  EXPECT_NE(outcome.status.message().find("node 7"), std::string::npos);
}

TEST(FaultInjection, SingularSystemNeverSilent) {
  // Floating island carrying a load: the system is inconsistent, no rung can
  // solve it, and the ladder must say so.
  pdn::StackModel m(1.0);
  pdn::LayerGrid g;
  g.nx = 4;
  g.ny = 1;
  g.dx = g.dy = 1.0;
  m.add_grid(g);
  m.set_dram_die_count(1);
  m.add_tap(0, 1.0);
  m.add_resistor(0, 1, 1.0);
  m.add_resistor(2, 3, 1.0);
  IrSolverOptions opts;
  opts.validate = false;  // sneak past the front door
  opts.cg_max_iterations = 200;
  IrSolver solver(m, SolverKind::kPcgIc, opts);
  const std::vector<double> island_load = {0.0, 0.0, 1.0, 0.0};
  const auto outcome = solver.solve(SolveRequest{.sinks = island_load});
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status.code(), core::StatusCode::kNumericalFailure);
  EXPECT_GE(solver.telemetry().failures, 1u);
}

TEST(FaultInjection, LadderRecoversWhenPcgIsStarved) {
  // Starve IC-PCG of iterations; the solve must escalate to the sparse
  // factor and still match the dense reference to 1e-8.
  const auto m = ladder_mesh();
  IrSolverOptions starved;
  starved.cg_max_iterations = 1;
  IrSolver solver(m, SolverKind::kPcgIc, starved);
  const std::vector<double> sinks(m.node_count(), 0.01);
  const auto outcome = solver.solve(SolveRequest{.sinks = sinks});
  ASSERT_TRUE(outcome.ok()) << outcome.status.to_string();
  EXPECT_EQ(outcome.escalations, 1u);
  EXPECT_EQ(outcome.kind_used, SolverKind::kSparseDirect);

  const auto ref_outcome =
      IrSolver(m, SolverKind::kDense).solve(SolveRequest{.sinks = sinks});
  ASSERT_TRUE(ref_outcome.ok()) << ref_outcome.status.to_string();
  const auto& reference = ref_outcome.x;
  ASSERT_EQ(outcome.x.size(), reference.size());
  double ref_max = 0.0;
  for (double v : reference) ref_max = std::max(ref_max, std::abs(v));
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_NEAR(outcome.x[i], reference[i], 1e-8 * ref_max);
  }

  // Telemetry recorded the failed PCG rung and the recovery.
  const auto& t = solver.telemetry();
  EXPECT_EQ(t.solves, 1u);
  EXPECT_EQ(t.failures, 0u);
  EXPECT_EQ(t.escalations, 1u);
  EXPECT_GE(t.rung_failures[static_cast<std::size_t>(SolverKind::kPcgIc)], 1u);
  EXPECT_EQ(t.rung_failures[static_cast<std::size_t>(SolverKind::kSparseDirect)], 0u);
}

TEST(FaultInjection, FillRatioGuardDeclinesFactorAndLadderRecovers) {
  // A near-zero fill budget makes the sparse-direct factorization decline
  // every mesh; the configured sparse-direct start must escalate to IC-PCG
  // and still deliver a dense-verified answer, with the declined rung
  // visible in telemetry.
  const auto m = ladder_mesh();
  IrSolverOptions opts;
  opts.max_fill_ratio = 1e-9;
  IrSolver solver(m, SolverKind::kSparseDirect, opts);
  EXPECT_FALSE(solver.sparse_factor_available());

  const std::vector<double> sinks(m.node_count(), 0.01);
  const auto outcome = solver.solve(SolveRequest{.sinks = sinks});
  ASSERT_TRUE(outcome.ok()) << outcome.status.to_string();
  EXPECT_GE(outcome.escalations, 1u);
  EXPECT_NE(outcome.kind_used, SolverKind::kSparseDirect);

  const auto ref_outcome =
      IrSolver(m, SolverKind::kDense).solve(SolveRequest{.sinks = sinks});
  ASSERT_TRUE(ref_outcome.ok()) << ref_outcome.status.to_string();
  const auto& reference = ref_outcome.x;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_NEAR(outcome.x[i], reference[i], 1e-8);
  }

  const auto& t = solver.telemetry();
  EXPECT_GE(t.rung_failures[static_cast<std::size_t>(SolverKind::kSparseDirect)], 1u);
  EXPECT_GE(t.escalations, 1u);
  EXPECT_EQ(t.failures, 0u);
}

TEST(FaultInjection, SingularSubmatrixFailsSparseFactorAndFallsThrough) {
  // A loaded floating island sneaked past validation: the sparse Cholesky
  // factor build hits a non-positive pivot and the rung fails over to
  // IC-PCG, which (correctly) cannot solve the inconsistent system either --
  // the outcome is a structured numerical failure, never silent garbage.
  pdn::StackModel m(1.0);
  pdn::LayerGrid g;
  g.nx = 4;
  g.ny = 1;
  g.dx = g.dy = 1.0;
  m.add_grid(g);
  m.set_dram_die_count(1);
  m.add_tap(0, 1.0);
  m.add_resistor(0, 1, 1.0);
  m.add_resistor(2, 3, 1.0);  // island: its 2x2 submatrix is singular
  IrSolverOptions opts;
  opts.validate = false;  // sneak past the front door
  opts.cg_max_iterations = 200;
  IrSolver solver(m, SolverKind::kSparseDirect, opts);
  EXPECT_FALSE(solver.sparse_factor_available());

  const std::vector<double> island_load = {0.0, 0.0, 1.0, 0.0};
  const auto outcome = solver.solve(SolveRequest{.sinks = island_load});
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status.code(), core::StatusCode::kNumericalFailure);
  EXPECT_TRUE(outcome.x.empty());

  const auto& t = solver.telemetry();
  EXPECT_GE(t.rung_failures[static_cast<std::size_t>(SolverKind::kSparseDirect)], 1u);
  EXPECT_GE(t.failures, 1u);
}

TEST(FaultInjection, PerturbedBenchmarkStackIsCaught) {
  // Full-size paper benchmark, one TSV flipped to NaN deep in the mesh: the
  // validator must still find it.
  const auto bench = core::make_benchmark(core::BenchmarkKind::kStackedDdr3OffChip);
  auto built = pdn::build_stack(bench.stack, bench.baseline);
  std::size_t tsv_index = built.model.resistors().size();
  for (std::size_t i = 0; i < built.model.resistors().size(); ++i) {
    if (built.model.resistors()[i].kind == pdn::ElementKind::kTsv) {
      tsv_index = i;
      break;
    }
  }
  ASSERT_LT(tsv_index, built.model.resistors().size()) << "benchmark has no TSVs";
  built.model.perturb_resistor(tsv_index, kNan);
  const auto report = pdn::validate_stack_model(built.model);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has_check("non-finite-conductance"));
  EXPECT_THROW(IrSolver solver(built.model), core::ValidationError);
}

TEST(FaultInjection, HealthyBenchmarkStillValidates) {
  // Control: the same benchmark unperturbed passes validation and solves on
  // the first rung.
  const auto bench = core::make_benchmark(core::BenchmarkKind::kStackedDdr3OffChip);
  const auto built = pdn::build_stack(bench.stack, bench.baseline);
  EXPECT_TRUE(pdn::validate_stack_model(built.model).ok());
  IrSolver solver(built.model);
  const std::vector<double> sinks(built.model.node_count(), 0.0);
  const auto outcome = solver.solve(SolveRequest{.sinks = sinks});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.escalations, 0u);
  EXPECT_EQ(outcome.kind_used, SolverKind::kPcgIc);
}

}  // namespace
}  // namespace pdn3d::irdrop
