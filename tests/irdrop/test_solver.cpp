#include "irdrop/solver.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/benchmarks.hpp"
#include "irdrop/analysis.hpp"
#include "obs/metrics.hpp"
#include "pdn/stack_builder.hpp"
#include "power/memory_state.hpp"
#include "util/log.hpp"

namespace pdn3d::irdrop {
namespace {

/// Test conveniences over the unified entry point: solve and return the
/// voltages (or IR drops), throwing on data-dependent failure like the CLI's
/// error path would.
std::vector<double> solve_voltages(const IrSolver& solver, std::span<const double> sinks) {
  SolveOutcome outcome = solver.solve(SolveRequest{.sinks = sinks});
  if (!outcome.ok()) throw core::NumericalError(std::move(outcome.status));
  return std::move(outcome.x);
}

std::vector<double> solve_drops(const IrSolver& solver, std::span<const double> sinks) {
  SolveOutcome outcome = solver.solve(SolveRequest{.sinks = sinks, .want_ir = true});
  if (!outcome.ok()) throw core::NumericalError(std::move(outcome.status));
  return std::move(outcome.x);
}

/// 8x3 mesh with one corner tap: IC(0) is inexact here, so a starved CG
/// (max_iterations = 1) genuinely fails and exercises the escalation ladder.
pdn::StackModel starvable_mesh() {
  pdn::StackModel m(1.2);
  pdn::LayerGrid g;
  g.nx = 8;
  g.ny = 3;
  g.dx = g.dy = 1.0;
  m.add_grid(g);
  m.set_dram_die_count(1);
  for (int j = 0; j < 3; ++j) {
    for (int i = 0; i + 1 < 8; ++i) m.add_resistor(g.node(i, j), g.node(i + 1, j), 0.4);
  }
  for (int j = 0; j + 1 < 3; ++j) {
    for (int i = 0; i < 8; ++i) m.add_resistor(g.node(i, j), g.node(i, j + 1), 0.7);
  }
  m.add_tap(g.node(0, 0), 0.2);
  return m;
}

/// Hand-built models with analytically known solutions.
pdn::StackModel two_node_divider() {
  // VDD --1ohm-- n0 --2ohm-- n1, 1A drawn at n1.
  pdn::StackModel m(1.5);
  pdn::LayerGrid g;
  g.nx = 2;
  g.ny = 1;
  g.dx = g.dy = 1.0;
  m.add_grid(g);
  m.set_dram_die_count(1);
  m.add_tap(0, 1.0);
  m.add_resistor(0, 1, 2.0);
  return m;
}

class SolverKinds : public ::testing::TestWithParam<SolverKind> {};

TEST_P(SolverKinds, SeriesDividerExact) {
  const auto m = two_node_divider();
  IrSolver solver(m, GetParam());
  std::vector<double> sinks = {0.0, 1.0};  // 1 A at the far node
  const auto v = solve_voltages(solver, sinks);
  // All current flows through both resistors: v0 = 1.5 - 1*1, v1 = v0 - 2*1.
  EXPECT_NEAR(v[0], 0.5, 1e-9);
  EXPECT_NEAR(v[1], -1.5, 1e-9);
  const auto ir = solve_drops(solver, sinks);
  EXPECT_NEAR(ir[1], 3.0, 1e-9);
}

TEST_P(SolverKinds, ParallelPathsShareCurrent) {
  // VDD taps at both ends of a 3-node chain; 1A in the middle splits evenly.
  pdn::StackModel m(1.0);
  pdn::LayerGrid g;
  g.nx = 3;
  g.ny = 1;
  g.dx = g.dy = 1.0;
  m.add_grid(g);
  m.set_dram_die_count(1);
  m.add_tap(0, 1.0);
  m.add_tap(2, 1.0);
  m.add_resistor(0, 1, 1.0);
  m.add_resistor(1, 2, 1.0);
  IrSolver solver(m, GetParam());
  const auto ir = solve_drops(solver, std::vector<double>{0.0, 1.0, 0.0});
  // Symmetric: each branch carries 0.5 A through 2 ohm total.
  EXPECT_NEAR(ir[1], 1.0, 1e-9);
  EXPECT_NEAR(ir[0], 0.5, 1e-9);
  EXPECT_NEAR(ir[2], 0.5, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SolverKinds,
                         ::testing::Values(SolverKind::kSparseDirect, SolverKind::kPcgIc,
                                           SolverKind::kDense));

TEST(IrSolver, NoTapsRejected) {
  pdn::StackModel m(1.0);
  pdn::LayerGrid g;
  g.nx = 2;
  g.ny = 1;
  g.dx = g.dy = 1.0;
  m.add_grid(g);
  m.add_resistor(0, 1, 1.0);
  EXPECT_THROW(IrSolver solver(m), std::invalid_argument);
}

TEST(IrSolver, SinkSizeMismatchThrows) {
  const auto m = two_node_divider();
  IrSolver solver(m);
  EXPECT_THROW((void)solver.solve(SolveRequest{.sinks = std::vector<double>{1.0}}),
               std::invalid_argument);
}

TEST(IrSolver, ZeroCurrentMeansNoDrop) {
  const auto m = two_node_divider();
  IrSolver solver(m);
  const auto ir = solve_drops(solver, std::vector<double>{0.0, 0.0});
  EXPECT_NEAR(ir[0], 0.0, 1e-12);
  EXPECT_NEAR(ir[1], 0.0, 1e-12);
}

TEST(IrSolver, SuperpositionHolds) {
  const auto m = two_node_divider();
  IrSolver solver(m);
  const auto a = solve_drops(solver, std::vector<double>{0.5, 0.0});
  const auto b = solve_drops(solver, std::vector<double>{0.0, 0.25});
  const auto ab = solve_drops(solver, std::vector<double>{0.5, 0.25});
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(ab[i], a[i] + b[i], 1e-10);
  }
}

TEST(IrSolver, DensePathMatchesIterative) {
  // Small random-ish ladder network.
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
  for (int i = 0; i < 6; ++i) m.add_resistor(g.node(i, 0), g.node(i, 1), 0.3);
  m.add_tap(g.node(0, 0), 0.2);
  m.add_tap(g.node(5, 1), 0.4);

  std::vector<double> sinks(m.node_count(), 0.01);
  const auto vi = solve_voltages(IrSolver(m, SolverKind::kPcgIc), sinks);
  const auto vd = solve_voltages(IrSolver(m, SolverKind::kDense), sinks);
  for (std::size_t i = 0; i < vi.size(); ++i) {
    EXPECT_NEAR(vi[i], vd[i], 1e-8);
  }
}

TEST(IrSolver, ConductanceMatrixSymmetric) {
  const auto m = two_node_divider();
  IrSolver solver(m);
  EXPECT_TRUE(solver.conductance_matrix().is_symmetric());
}

TEST(IrSolver, ValidationErrorCarriesStructuredReport) {
  pdn::StackModel m(1.0);
  pdn::LayerGrid g;
  g.nx = 2;
  g.ny = 1;
  g.dx = g.dy = 1.0;
  m.add_grid(g);
  m.add_resistor(0, 1, 1.0);  // no taps
  try {
    IrSolver solver(m);
    FAIL() << "expected ValidationError";
  } catch (const core::ValidationError& e) {
    EXPECT_TRUE(e.report().has_check("no-supply-taps"));
  }
}

TEST(IrSolver, MinimalChecksSurviveValidateOptOut) {
  pdn::StackModel m(1.0);
  pdn::LayerGrid g;
  g.nx = 2;
  g.ny = 1;
  g.dx = g.dy = 1.0;
  m.add_grid(g);
  m.add_resistor(0, 1, 1.0);
  IrSolverOptions opts;
  opts.validate = false;
  EXPECT_THROW(IrSolver(m, SolverKind::kPcgIc, opts), std::invalid_argument);
}

TEST(IrSolver, EscalationLadderRecoversStarvedPcg) {
  const auto m = starvable_mesh();
  IrSolverOptions starved;
  starved.cg_max_iterations = 1;
  IrSolver solver(m, SolverKind::kPcgIc, starved);
  std::vector<double> sinks(m.node_count(), 0.01);
  const util::LogLevel level = util::log_level();
  util::set_log_level(util::LogLevel::kWarn);
  testing::internal::CaptureStderr();
  const auto outcome = solver.solve(SolveRequest{.sinks = sinks});
  const std::string warning = testing::internal::GetCapturedStderr();
  util::set_log_level(level);
  ASSERT_TRUE(outcome.ok()) << outcome.status.to_string();
  // IC-PCG starves; the sparse factor produces the verified answer.
  EXPECT_EQ(outcome.escalations, 1u);
  EXPECT_EQ(outcome.kind_used, SolverKind::kSparseDirect);
  // The recovery warning says why the skipped rung failed.
  EXPECT_NE(warning.find("recovered by"), std::string::npos) << warning;
  EXPECT_NE(warning.find("ic-pcg: max-iterations"), std::string::npos) << warning;

  // And the recovered answer matches an unstarved reference solve.
  const auto reference = solve_voltages(IrSolver(m), sinks);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_NEAR(outcome.x[i], reference[i], 1e-8);
  }
}

TEST(IrSolver, EscalationCanBeDisabled) {
  const auto m = starvable_mesh();
  IrSolverOptions opts;
  opts.cg_max_iterations = 1;
  opts.escalate = false;
  IrSolver solver(m, SolverKind::kPcgIc, opts);
  const auto outcome =
      solver.solve(SolveRequest{.sinks = std::vector<double>(m.node_count(), 0.01)});
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status.code(), core::StatusCode::kNumericalFailure);
  // Only the configured rung was tried.
  const auto& t = solver.telemetry();
  EXPECT_EQ(t.rung_attempts[static_cast<std::size_t>(SolverKind::kPcgIc)], 1u);
  EXPECT_EQ(t.rung_attempts[static_cast<std::size_t>(SolverKind::kSparseDirect)], 0u);
  EXPECT_EQ(t.failures, 1u);
}

TEST(IrSolver, TelemetryAccumulatesAcrossSolves) {
  const auto m = two_node_divider();
  IrSolver solver(m);
  (void)solver.solve(SolveRequest{.sinks = std::vector<double>{0.0, 1.0}});
  (void)solver.solve(SolveRequest{.sinks = std::vector<double>{0.5, 0.0}});
  const auto& t = solver.telemetry();
  EXPECT_EQ(t.solves, 2u);
  EXPECT_EQ(t.failures, 0u);
  EXPECT_EQ(t.escalations, 0u);
  EXPECT_EQ(t.rung_attempts[static_cast<std::size_t>(SolverKind::kPcgIc)], 2u);
}

TEST(IrSolver, ExplicitDenseStartIgnoresEscalationLimit) {
  // Dense is never an escalation target, so nothing caps it: a caller who
  // asked for the signoff path gets it regardless of dimension.
  const auto m = two_node_divider();
  IrSolver solver(m, SolverKind::kDense);
  const auto outcome = solver.solve(SolveRequest{.sinks = std::vector<double>{0.0, 1.0}});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.kind_used, SolverKind::kDense);
  EXPECT_EQ(outcome.iterations, 0u);  // direct rungs report no iterations
}

TEST(IrSolver, WantIrIsExactVoltageComplement) {
  // want_ir must be a pure post-processing of the same solve: ir = vdd - v,
  // bitwise, never a second (possibly differently-converged) solve.
  const auto m = two_node_divider();
  IrSolver solver(m);
  const std::vector<double> sinks = {0.0, 1.0};

  const auto outcome = solver.solve(SolveRequest{.sinks = sinks});
  ASSERT_TRUE(outcome.ok());
  const auto ir = solver.solve(SolveRequest{.sinks = sinks, .want_ir = true});
  ASSERT_TRUE(ir.ok());
  ASSERT_EQ(ir.x.size(), outcome.x.size());
  for (std::size_t i = 0; i < ir.x.size(); ++i) {
    EXPECT_EQ(ir.x[i], m.vdd() - outcome.x[i]);
  }
}

TEST(IrSolver, FailedSolveLeavesNoPartialResult) {
  // Callers must never observe partially-written results: a failed outcome
  // carries an empty solution vector, not a half-filled one.
  const auto m = starvable_mesh();
  IrSolverOptions opts;
  opts.cg_max_iterations = 1;
  opts.escalate = false;
  IrSolver solver(m, SolverKind::kPcgIc, opts);
  const auto outcome = solver.solve(
      SolveRequest{.sinks = std::vector<double>(m.node_count(), 0.01), .want_ir = true});
  EXPECT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.x.empty());
}

TEST(IrSolver, CallerScratchReuseIsBitwiseStable) {
  const auto m = starvable_mesh();
  IrSolver solver(m);
  const std::vector<double> sinks(m.node_count(), 0.01);
  const auto fresh = solver.solve(SolveRequest{.sinks = sinks});
  ASSERT_TRUE(fresh.ok());
  SolveScratch scratch;
  for (int rep = 0; rep < 3; ++rep) {
    const auto reused = solver.solve(SolveRequest{.sinks = sinks}, &scratch);
    ASSERT_TRUE(reused.ok());
    ASSERT_EQ(reused.x.size(), fresh.x.size());
    for (std::size_t i = 0; i < fresh.x.size(); ++i) EXPECT_EQ(reused.x[i], fresh.x[i]);
  }
}

TEST(IrSolver, SolverKindNamesStable) {
  // The rung names appear in failure trails and CLI output; keep them fixed.
  EXPECT_STREQ(to_string(SolverKind::kSparseDirect), "sparse-direct");
  EXPECT_STREQ(to_string(SolverKind::kPcgIc), "ic-pcg");
  EXPECT_STREQ(to_string(SolverKind::kDense), "dense-cholesky");
}

TEST(IrSolver, RungCountersAreTheThreeLiveRungs) {
  // A failing solve registers both per-rung counter families. They key the
  // run report's rung_attempts / rung_failures, so a retired rung value must
  // not leave a stray name behind.
  const auto m = starvable_mesh();
  IrSolverOptions opts;
  opts.cg_max_iterations = 1;
  opts.escalate = false;
  ASSERT_FALSE(IrSolver(m, SolverKind::kPcgIc, opts)
                   .solve(SolveRequest{.sinks = std::vector<double>(m.node_count(), 0.01)})
                   .ok());
  const std::set<std::string> live = {"dense-cholesky", "ic-pcg", "sparse-direct"};
  for (const std::string_view prefix : {"solver.rung_attempts.", "solver.rung_failures."}) {
    std::set<std::string> registered;
    for (const auto& [name, value] : obs::MetricsRegistry::instance().snapshot().counters) {
      if (name.starts_with(prefix)) registered.insert(name.substr(prefix.size()));
    }
    EXPECT_EQ(registered, live) << prefix;
  }
}

TEST(IrSolver, SparseDirectMatchesIterativeOnLadderNetwork) {
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
  for (int i = 0; i < 6; ++i) m.add_resistor(g.node(i, 0), g.node(i, 1), 0.3);
  m.add_tap(g.node(0, 0), 0.2);
  m.add_tap(g.node(5, 1), 0.4);

  IrSolver sparse(m, SolverKind::kSparseDirect);
  EXPECT_EQ(sparse.kind(), SolverKind::kSparseDirect);
  EXPECT_TRUE(sparse.sparse_factor_available());

  std::vector<double> sinks(m.node_count(), 0.01);
  const auto outcome = sparse.solve(SolveRequest{.sinks = sinks});
  ASSERT_TRUE(outcome.ok()) << outcome.status.to_string();
  EXPECT_EQ(outcome.kind_used, SolverKind::kSparseDirect);
  EXPECT_EQ(outcome.iterations, 0u);  // direct rungs report no iterations

  const auto vi = solve_voltages(IrSolver(m, SolverKind::kPcgIc), sinks);
  for (std::size_t i = 0; i < vi.size(); ++i) {
    EXPECT_NEAR(outcome.x[i], vi[i], 1e-8);
  }
}

TEST(IrSolver, BenchmarkBaselinesFactorAtLowFill) {
  // The sparse-direct factor orders itself by approximate minimum degree,
  // which keeps the four paper stacks near fill 6. A bandwidth ordering
  // leaves them at 43-74x, so a silent fallback to one fails this bound.
  for (const auto& b : core::all_benchmarks()) {
    const auto built = pdn::build_stack(b.stack, b.baseline);
    const std::uint64_t builds_before = obs::counter("solver.factor_builds").value();
    const IrSolver solver(built.model, SolverKind::kSparseDirect);
    ASSERT_TRUE(solver.sparse_factor_available()) << b.name;
    ASSERT_EQ(obs::counter("solver.factor_builds").value(), builds_before + 1) << b.name;
    EXPECT_LE(obs::gauge("solver.factor_fill_ratio").value(), 10.0) << b.name;
  }
}

TEST(IrSolver, BatchedSolveBitwiseMatchesIndividualSolvesInIndexOrder) {
  const auto m = starvable_mesh();
  IrSolver solver(m, SolverKind::kSparseDirect);
  const std::size_t n = m.node_count();

  constexpr std::size_t kBatch = 4;
  std::vector<double> sinks(n * kBatch, 0.0);
  for (std::size_t r = 0; r < kBatch; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      sinks[r * n + i] = 0.001 * static_cast<double>(r * 7 + i % 5);
    }
  }

  const auto batch = solver.solve(SolveRequest{.sinks = sinks, .batch_count = kBatch});
  ASSERT_TRUE(batch.ok()) << batch.status.to_string();
  ASSERT_EQ(batch.x.size(), n * kBatch);
  EXPECT_EQ(batch.kind_used, SolverKind::kSparseDirect);

  for (std::size_t r = 0; r < kBatch; ++r) {
    const auto one = solver.solve(
        SolveRequest{.sinks = std::span<const double>(sinks.data() + r * n, n)});
    ASSERT_TRUE(one.ok());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(batch.x[r * n + i], one.x[i]) << "slice " << r << " node " << i;
    }
  }
}

TEST(IrSolver, BatchedIrConversionPerSlice) {
  const auto m = two_node_divider();
  IrSolver solver(m, SolverKind::kSparseDirect);
  const std::vector<double> sinks = {0.0, 1.0, 0.0, 0.5};  // two 2-node slices
  const auto v = solver.solve(SolveRequest{.sinks = sinks, .batch_count = 2});
  const auto ir = solver.solve(SolveRequest{.sinks = sinks, .want_ir = true, .batch_count = 2});
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(ir.ok());
  ASSERT_EQ(ir.x.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ir.x[i], m.vdd() - v.x[i]);
  }
}

TEST(IrSolver, BatchRequestValidation) {
  const auto m = two_node_divider();
  IrSolver solver(m);
  const std::vector<double> sinks = {0.0, 1.0, 0.0};  // not a multiple of n=2
  EXPECT_THROW((void)solver.solve(SolveRequest{.sinks = sinks, .batch_count = 2}),
               std::invalid_argument);
  EXPECT_THROW((void)solver.solve(SolveRequest{.sinks = sinks, .batch_count = 0}),
               std::invalid_argument);
}

TEST(IrSolver, BatchFailsAsAWhole) {
  // All-or-nothing: one bad slice fails the batch, and the failure names it.
  const auto m = two_node_divider();
  IrSolver solver(m, SolverKind::kSparseDirect);
  std::vector<double> sinks = {0.0, 1.0, 0.0, 1.0, 0.0, 1.0};
  sinks[2 * 2 + 1] = std::numeric_limits<double>::quiet_NaN();  // slice 2
  const auto outcome = solver.solve(SolveRequest{.sinks = sinks, .batch_count = 3});
  EXPECT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.x.empty());
  EXPECT_EQ(outcome.status.code(), core::StatusCode::kInputError);
  EXPECT_NE(outcome.status.message().find("slice 2"), std::string::npos)
      << outcome.status.message();
}

TEST(IrSolver, DeclinedSparseFactorFallsDownLadder) {
  // A fill guard of ~zero declines the factorization; the configured
  // sparse-direct start must escalate to ic-pcg and still return a verified
  // answer. The escalation builds IC(0) through the same accessor as an
  // ic-pcg start, so that build is timed (and traced) exactly once.
  const auto m = starvable_mesh();
  IrSolverOptions opts;
  opts.max_fill_ratio = 1e-9;
  const auto precond_builds = [] {
    return obs::MetricsRegistry::instance()
        .snapshot()
        .histograms["solver.precond_build_seconds"]
        .count;
  };
  const std::uint64_t builds_before = precond_builds();
  IrSolver solver(m, SolverKind::kSparseDirect, opts);
  EXPECT_FALSE(solver.sparse_factor_available());

  const std::vector<double> sinks(m.node_count(), 0.01);
  const auto outcome = solver.solve(SolveRequest{.sinks = sinks});
  ASSERT_TRUE(outcome.ok()) << outcome.status.to_string();
  EXPECT_EQ(outcome.escalations, 1u);
  EXPECT_EQ(outcome.kind_used, SolverKind::kPcgIc);
  EXPECT_EQ(precond_builds(), builds_before + 1);
  ASSERT_TRUE(solver.solve(SolveRequest{.sinks = sinks}).ok());
  EXPECT_EQ(precond_builds(), builds_before + 1);  // built once, then reused
  EXPECT_EQ(solver.telemetry().rung_attempts[static_cast<std::size_t>(SolverKind::kDense)], 0u);

  const auto reference = solve_voltages(IrSolver(m), sinks);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_NEAR(outcome.x[i], reference[i], 1e-8);
  }
}

TEST(IrSolver, BothRungsFailingIsATypedFailureNamingBoth) {
  // Starved CG and a declined factor: whichever rung starts, the other one is
  // tried once and dense never is.
  const auto m = starvable_mesh();
  IrSolverOptions opts;
  opts.cg_max_iterations = 1;
  opts.max_fill_ratio = 1e-9;
  for (const SolverKind start : {SolverKind::kPcgIc, SolverKind::kSparseDirect}) {
    IrSolver solver(m, start, opts);
    const auto outcome =
        solver.solve(SolveRequest{.sinks = std::vector<double>(m.node_count(), 0.01)});
    ASSERT_FALSE(outcome.ok()) << to_string(start);
    EXPECT_EQ(outcome.status.code(), core::StatusCode::kNumericalFailure);
    EXPECT_TRUE(outcome.x.empty());
    EXPECT_EQ(outcome.escalations, 1u);
    const std::string& message = outcome.status.message();
    EXPECT_NE(message.find("ic-pcg: max-iterations"), std::string::npos) << message;
    EXPECT_NE(message.find("sparse-direct: sparse factorization declined"), std::string::npos)
        << message;
    const auto& t = solver.telemetry();
    EXPECT_EQ(t.rung_attempts[static_cast<std::size_t>(SolverKind::kDense)], 0u);
    EXPECT_EQ(t.failures, 1u);
  }
}

TEST(IrSolver, BaselineStacksSolveOnTheirFirstRung) {
  // The traffic assumption behind a two-rung ladder: every paper benchmark
  // solves its default state on whichever production rung it starts on.
  for (const auto& b : core::all_benchmarks()) {
    const auto built = pdn::build_stack(b.stack, b.baseline);
    const PowerBinding power{.dram = b.dram_power,
                             .logic = b.logic_power,
                             .dram_scale = b.power_scale};
    const auto state =
        power::parse_memory_state(b.default_state, b.stack.dram_spec, b.default_io_activity);
    for (const SolverKind start : {SolverKind::kPcgIc, SolverKind::kSparseDirect}) {
      const IrAnalyzer analyzer(built.model, b.stack.dram_fp, b.stack.logic_fp, power, start);
      const IrResult r = analyzer.analyze(state);
      EXPECT_EQ(r.solver_kind, start) << b.name << " " << to_string(start);
      EXPECT_EQ(r.solver_escalations, 0u) << b.name << " " << to_string(start);
    }
  }
}

}  // namespace
}  // namespace pdn3d::irdrop
