#include "irdrop/solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <thread>
#include <vector>

#include "core/benchmarks.hpp"
#include "exec/cancel.hpp"
#include "exec/thread_pool.hpp"
#include "faults/faults.hpp"
#include "irdrop/analysis.hpp"
#include "linalg/coo.hpp"
#include "obs/metrics.hpp"
#include "pdn/stack_builder.hpp"
#include "power/memory_state.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

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

/// Registry counters (docs/OBSERVABILITY.md) read as deltas from
/// construction, so the expectations hold whatever the other tests of this
/// binary solved first.
class CounterDeltas {
 public:
  [[nodiscard]] std::uint64_t operator()(const std::string& name) {
    return obs::counter(name).value() - start_.counters[name];
  }

 private:
  obs::MetricsSnapshot start_ = obs::MetricsRegistry::instance().snapshot();
};

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
  CounterDeltas delta;
  const auto outcome =
      solver.solve(SolveRequest{.sinks = std::vector<double>(m.node_count(), 0.01)});
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status.code(), core::StatusCode::kNumericalFailure);
  // Only the configured rung was tried.
  EXPECT_EQ(delta("solver.rung_attempts.ic-pcg"), 1u);
  EXPECT_EQ(delta("solver.rung_attempts.sparse-direct"), 0u);
  EXPECT_EQ(delta("solver.failures"), 1u);
}

TEST(IrSolver, TelemetryAccumulatesAcrossSolves) {
  const auto m = two_node_divider();
  IrSolver solver(m);
  CounterDeltas delta;
  (void)solver.solve(SolveRequest{.sinks = std::vector<double>{0.0, 1.0}});
  (void)solver.solve(SolveRequest{.sinks = std::vector<double>{0.5, 0.0}});
  EXPECT_EQ(delta("solver.solves"), 2u);
  EXPECT_EQ(delta("solver.failures"), 0u);
  EXPECT_EQ(delta("ladder.escalations"), 0u);
  EXPECT_EQ(delta("solver.rung_attempts.ic-pcg"), 2u);
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
  // Each solve runs in this thread's one workspace.
  for (int rep = 0; rep < 3; ++rep) {
    const auto reused = solver.solve(SolveRequest{.sinks = sinks});
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
  // One block through the cached factor: out[r] is solve() of slice r.
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

  std::array<SolveOutcome, kBatch> batch;
  solver.solve_block(sinks, false, batch);
  // The slices' solutions, read before the lone solves reuse the workspace.
  std::array<std::vector<double>, kBatch> x;
  for (std::size_t r = 0; r < kBatch; ++r) x[r] = SolveWorkspace::local().solution(r);

  for (std::size_t r = 0; r < kBatch; ++r) {
    ASSERT_TRUE(batch[r].ok()) << batch[r].status.to_string();
    EXPECT_EQ(batch[r].kind_used, SolverKind::kSparseDirect);
    const auto one = solver.solve(
        SolveRequest{.sinks = std::span<const double>(sinks.data() + r * n, n)});
    ASSERT_TRUE(one.ok());
    ASSERT_EQ(x[r].size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(x[r][i], one.x[i]) << "slice " << r << " node " << i;
    }
  }
}

TEST(IrSolver, BatchedIrConversionPerSlice) {
  const auto m = two_node_divider();
  IrSolver solver(m, SolverKind::kSparseDirect);
  const std::vector<double> sinks = {0.0, 1.0, 0.0, 0.5};  // two 2-node slices
  std::array<SolveOutcome, 2> v;
  std::array<SolveOutcome, 2> ir;
  std::array<std::vector<double>, 2> v_x;
  std::array<std::vector<double>, 2> ir_x;
  solver.solve_block(sinks, false, v);
  for (std::size_t r = 0; r < 2; ++r) v_x[r] = SolveWorkspace::local().solution(r);
  solver.solve_block(sinks, true, ir);
  for (std::size_t r = 0; r < 2; ++r) ir_x[r] = SolveWorkspace::local().solution(r);
  for (std::size_t r = 0; r < 2; ++r) {
    ASSERT_TRUE(v[r].ok());
    ASSERT_TRUE(ir[r].ok());
    ASSERT_EQ(ir_x[r].size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) EXPECT_EQ(ir_x[r][i], m.vdd() - v_x[r][i]);
  }
}

/// An analyzer on the off-chip baseline; @p power scales its loads.
struct BaselineAnalyzer {
  core::Benchmark bench = core::make_benchmark(core::BenchmarkKind::kStackedDdr3OffChip);
  pdn::BuiltStack built = pdn::build_stack(bench.stack, bench.baseline);
  IrAnalyzer analyzer;

  explicit BaselineAnalyzer(PowerBinding power = {})
      : analyzer(built.model, bench.stack.dram_fp, bench.stack.logic_fp, power,
                 SolverKind::kSparseDirect) {}

  [[nodiscard]] power::MemoryState state(std::string_view s) const {
    return power::parse_memory_state(s, bench.stack.dram_spec, -1.0);
  }
};

TEST(IrSolver, BatchRequestValidation) {
  // A malformed state anywhere in analyze_batch rejects the whole batch,
  // like a block whose size does not match its outcomes.
  const BaselineAnalyzer f;
  const auto good = f.state("0-0-0-2");
  const auto bad = f.state("0-0-2");  // one die short
  for (std::size_t at = 0; at < 3; ++at) {
    std::vector<power::MemoryState> states(3, good);
    states[at] = bad;
    EXPECT_THROW((void)f.analyzer.analyze_batch(states), std::invalid_argument) << "at " << at;
  }

  const IrSolver& solver = f.analyzer.solver();
  const std::size_t n = solver.node_count();
  std::array<SolveOutcome, linalg::kSolveBlock + 1> out;
  std::vector<double> block(n * 2, 0.0);
  EXPECT_THROW(solver.solve_block(block, false, std::span(out).first(3)), std::invalid_argument);
  EXPECT_THROW(solver.solve_block(block, false, std::span(out).first(0)), std::invalid_argument);
  block.assign(n * out.size(), 0.0);
  EXPECT_THROW(solver.solve_block(block, false, out), std::invalid_argument);
}

TEST(IrSolver, BatchFailsAsAWhole) {
  // All-or-nothing: analyze_batch throws the NumericalError of the first
  // state whose solve fails, the one analyze() of that state throws, and
  // returns no partial results. An overflowing activity polynomial makes
  // the loads of states with active banks non-finite.
  PowerBinding power;
  power.dram.p1 = std::numeric_limits<double>::max();
  power.dram.p2 = std::numeric_limits<double>::max();
  power.dram_scale = 1e-300;
  const BaselineAnalyzer f(power);
  const std::vector<power::MemoryState> states = {f.state("0-0-0-0"), f.state("0-0-0-0"),
                                                  f.state("0-0-0-2"), f.state("0-0-0-0")};
  std::string alone;
  try {
    (void)f.analyzer.analyze(states[2]);
  } catch (const core::NumericalError& e) {
    alone = e.status().to_string();
  }
  ASSERT_FALSE(alone.empty()) << "state 2 must fail on its own";
  ASSERT_NO_THROW((void)f.analyzer.analyze(states[0]));
  try {
    (void)f.analyzer.analyze_batch(states);
    ADD_FAILURE() << "a batch with a failing state returned results";
  } catch (const core::NumericalError& e) {
    EXPECT_EQ(e.status().to_string(), alone);
  }
}

TEST(SparseCholesky, BenchmarkBatchSlicesMatchSolveAtEveryCount) {
  // Blocks of every width, on a paper stack's G: every slice of solve_block
  // is solve() of that slice alone, bit for bit.
  const core::Benchmark bench = core::make_benchmark(core::BenchmarkKind::kHmc);
  const auto built = pdn::build_stack(bench.stack, bench.baseline);
  const IrSolver solver(built.model, SolverKind::kSparseDirect);
  const linalg::SparseCholesky chol(solver.conductance_matrix());
  const std::size_t n = chol.dimension();
  util::Rng rng(23);
  for (std::size_t count = 1; count <= linalg::kSolveBlock; ++count) {
    std::vector<double> b(n * count);
    for (double& v : b) v = rng.next_double() * 2.0 - 1.0;
    std::vector<double> block(n * count);
    for (std::size_t r = 0; r < count; ++r) {
      for (std::size_t i = 0; i < n; ++i) block[i * count + r] = b[r * n + i];
    }
    chol.solve_block(block, count);
    for (std::size_t r = 0; r < count; ++r) {
      const auto one = chol.solve(std::span<const double>(b).subspan(r * n, n));
      std::vector<double> x(n);
      for (std::size_t i = 0; i < n; ++i) x[i] = block[i * count + r];
      EXPECT_EQ(0, std::memcmp(one.data(), x.data(), n * sizeof(double)))
          << "count " << count << " slice " << r;
    }
  }
}

TEST(IrSolver, BlockSliceWithNaNSinksFailsAloneAsSolveDoes) {
  // A NaN-sink slice in the middle of a block gets solve()'s status; the
  // slices around it keep the bits of their own lone solves.
  const auto m = starvable_mesh();
  const IrSolver solver(m, SolverKind::kSparseDirect);
  const std::size_t n = m.node_count();
  constexpr std::size_t kCount = 5;
  std::vector<double> sinks(n * kCount);
  for (std::size_t i = 0; i < sinks.size(); ++i) sinks[i] = 0.001 * static_cast<double>(i % 7);
  sinks[2 * n + 3] = std::numeric_limits<double>::quiet_NaN();

  CounterDeltas delta;
  std::array<SolveOutcome, kCount> out;
  solver.solve_block(sinks, true, out);
  EXPECT_EQ(delta("solver.failures"), 1u);
  EXPECT_EQ(delta("solver.rung_attempts.sparse-direct"), kCount - 1);
  // The slices' solutions, read before the lone solves reuse the workspace.
  std::array<std::vector<double>, kCount> x;
  for (std::size_t r = 0; r < kCount; ++r) x[r] = SolveWorkspace::local().solution(r);

  for (std::size_t r = 0; r < kCount; ++r) {
    const auto alone = solver.solve(
        SolveRequest{.sinks = std::span<const double>(sinks).subspan(r * n, n), .want_ir = true});
    EXPECT_EQ(out[r].status.to_string(), alone.status.to_string()) << "slice " << r;
    ASSERT_EQ(x[r].size(), alone.x.size()) << "slice " << r;
    if (!alone.x.empty()) {
      EXPECT_EQ(0, std::memcmp(x[r].data(), alone.x.data(), n * sizeof(double)))
          << "slice " << r;
    }
    EXPECT_EQ(out[r].kind_used, alone.kind_used) << "slice " << r;
    EXPECT_EQ(out[r].rel_residual, alone.rel_residual) << "slice " << r;
  }
  EXPECT_FALSE(out[2].ok());
  EXPECT_TRUE(x[2].empty());
}

TEST(IrSolver, BlockSlicesThatFailVerificationRunTheirLadderAlone) {
  // A verification tolerance below what the factor reaches rejects every
  // swept slice of a full block in the block pass; each then runs its ladder
  // alone and must end as solve() of it alone does: status, escalations,
  // rung, and the same rung and escalation counts.
  const auto m = starvable_mesh();
  const std::size_t n = m.node_count();
  constexpr std::size_t kCount = linalg::kSolveBlock;
  std::vector<double> sinks(n * kCount);
  for (std::size_t i = 0; i < sinks.size(); ++i) sinks[i] = 0.001 * static_cast<double>(i % 11);
  const std::vector<std::string> names = {
      "solver.rung_attempts.sparse-direct", "solver.rung_attempts.ic-pcg",
      "solver.rung_failures.sparse-direct", "solver.rung_failures.ic-pcg", "ladder.escalations"};
  const auto deltas = [&](CounterDeltas& delta) {
    std::vector<std::uint64_t> out;
    for (const std::string& name : names) out.push_back(delta(name));
    return out;
  };

  IrSolverOptions strict;
  strict.verify_rel_tol = 1e-300;
  const IrSolver solver(m, SolverKind::kSparseDirect, strict);
  std::array<SolveOutcome, kCount> out;
  CounterDeltas block_delta;
  solver.solve_block(sinks, false, out);
  const std::vector<std::uint64_t> block_counts = deltas(block_delta);
  for (std::size_t r = 0; r < kCount; ++r) {
    EXPECT_TRUE(SolveWorkspace::local().solution(r).empty()) << "slice " << r;
  }

  CounterDeltas alone_delta;
  for (std::size_t r = 0; r < kCount; ++r) {
    const auto alone =
        solver.solve(SolveRequest{.sinks = std::span<const double>(sinks).subspan(r * n, n)});
    ASSERT_FALSE(alone.ok());
    EXPECT_EQ(out[r].status.to_string(), alone.status.to_string()) << "slice " << r;
    EXPECT_EQ(out[r].escalations, alone.escalations) << "slice " << r;
    EXPECT_EQ(out[r].kind_used, alone.kind_used) << "slice " << r;
  }
  EXPECT_EQ(block_counts, deltas(alone_delta));
  EXPECT_EQ(block_counts.front(), kCount);  // one sparse-direct attempt per slice
  EXPECT_EQ(block_counts.back(), kCount);   // and one escalation each

  // A starved ic-pcg start runs every slice's ladder, which recovers on the
  // factor; each recovered solution lands in the block as solve() returns it.
  IrSolverOptions starved;
  starved.cg_max_iterations = 1;
  const IrSolver pcg(m, SolverKind::kPcgIc, starved);
  pcg.solve_block(sinks, true, out);
  std::array<std::vector<double>, kCount> x;
  for (std::size_t r = 0; r < kCount; ++r) x[r] = SolveWorkspace::local().solution(r);
  for (std::size_t r = 0; r < kCount; ++r) {
    const auto alone = pcg.solve(
        SolveRequest{.sinks = std::span<const double>(sinks).subspan(r * n, n), .want_ir = true});
    ASSERT_TRUE(alone.ok()) << alone.status.to_string();
    ASSERT_TRUE(out[r].ok()) << out[r].status.to_string();
    EXPECT_EQ(out[r].kind_used, SolverKind::kSparseDirect);
    EXPECT_EQ(out[r].escalations, alone.escalations);
    EXPECT_EQ(out[r].rel_residual, alone.rel_residual);
    ASSERT_EQ(x[r].size(), n);
    EXPECT_EQ(0, std::memcmp(x[r].data(), alone.x.data(), n * sizeof(double))) << "slice " << r;
  }
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
  CounterDeltas delta;
  const auto outcome = solver.solve(SolveRequest{.sinks = sinks});
  ASSERT_TRUE(outcome.ok()) << outcome.status.to_string();
  EXPECT_EQ(outcome.escalations, 1u);
  EXPECT_EQ(outcome.kind_used, SolverKind::kPcgIc);
  EXPECT_EQ(precond_builds(), builds_before + 1);
  ASSERT_TRUE(solver.solve(SolveRequest{.sinks = sinks}).ok());
  EXPECT_EQ(precond_builds(), builds_before + 1);  // built once, then reused
  EXPECT_EQ(delta("solver.rung_attempts.dense-cholesky"), 0u);

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
    CounterDeltas delta;
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
    EXPECT_EQ(delta("solver.rung_attempts.dense-cholesky"), 0u);
    EXPECT_EQ(delta("solver.failures"), 1u);
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

TEST(IrSolver, ZeroLoadSolvesAtTheRailInZeroIterations) {
  // ic-pcg starts at the unloaded rail v = VDD, which is already the answer
  // when nothing draws current: no iteration, and VDD bit for bit.
  for (const auto& b : core::all_benchmarks()) {
    const auto built = pdn::build_stack(b.stack, b.baseline);
    const IrSolver solver(built.model, SolverKind::kPcgIc);
    const std::vector<double> no_load(built.model.node_count(), 0.0);
    const auto outcome = solver.solve(SolveRequest{.sinks = no_load});
    ASSERT_TRUE(outcome.ok()) << b.name << ": " << outcome.status.to_string();
    EXPECT_EQ(outcome.kind_used, SolverKind::kPcgIc) << b.name;
    EXPECT_EQ(outcome.iterations, 0u) << b.name;
    for (const double v : outcome.x) ASSERT_EQ(v, built.model.vdd()) << b.name;
  }
}

TEST(IrSolver, RailStartTakesFewerIterationsThanAZeroStart) {
  // The same system (b = supply - sinks, same IC(0), same 1e-10 target)
  // solved by the ic-pcg rung from the rail and by a plain zero-start
  // linalg::solve_cg: the rail start needs fewer iterations, and its answer
  // passes the rung's 1e-7 residual verification.
  for (const auto& b : core::all_benchmarks()) {
    const auto built = pdn::build_stack(b.stack, b.baseline);
    const PowerBinding power{.dram = b.dram_power,
                             .logic = b.logic_power,
                             .dram_scale = b.power_scale};
    const IrAnalyzer analyzer(built.model, b.stack.dram_fp, b.stack.logic_fp, power);
    const auto state =
        power::parse_memory_state(b.default_state, b.stack.dram_spec, b.default_io_activity);
    const std::vector<double> sinks = analyzer.injection(state);
    const IrSolver& solver = analyzer.solver();
    const auto outcome = solver.solve(SolveRequest{.sinks = sinks});
    ASSERT_TRUE(outcome.ok()) << b.name << ": " << outcome.status.to_string();
    EXPECT_EQ(outcome.kind_used, SolverKind::kPcgIc) << b.name;
    EXPECT_EQ(outcome.escalations, 0u) << b.name;
    EXPECT_LE(outcome.rel_residual, IrSolverOptions{}.verify_rel_tol) << b.name;

    std::vector<double> rhs(sinks.size(), 0.0);
    for (const auto& t : built.model.taps()) rhs[t.node] += 1.0 / t.ohms * built.model.vdd();
    for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] -= sinks[i];
    const linalg::CgResult zero_start = linalg::solve_cg(solver.conductance_matrix(), rhs);
    ASSERT_TRUE(zero_start.converged) << b.name;
    EXPECT_LT(outcome.iterations, zero_start.iterations) << b.name;
  }
}

/// starvable_mesh()'s topology with every resistance scaled by @p scale and
/// the tap resistance by @p tap_scale: the same stamp sequence with new
/// values, like the points of a sweep's usage group.
pdn::StackModel scaled_mesh(double scale, double tap_scale) {
  const pdn::StackModel base = starvable_mesh();
  pdn::StackModel m(base.vdd());
  for (const pdn::LayerGrid& g : base.grids()) m.add_grid(g);
  m.set_dram_die_count(base.dram_die_count());
  for (const pdn::Resistor& r : base.resistors()) m.add_resistor(r.a, r.b, r.ohms * scale, r.kind);
  for (const pdn::SupplyTap& t : base.taps()) m.add_tap(t.node, t.ohms * tap_scale);
  return m;
}

TEST(MeshStructure, SharedStructureAssemblesTheCompressedMatrixBitForBit) {
  CounterDeltas delta;
  MeshStructure shared;
  for (const double scale : {1.0, 0.37, 2.9}) {
    const pdn::StackModel m = scaled_mesh(scale, 1.0 / scale);
    const IrSolver fresh(m);
    const IrSolver reused(m, SolverKind::kPcgIc, {}, &shared);
    const linalg::Csr& a = fresh.conductance_matrix();
    const linalg::Csr& b = reused.conductance_matrix();
    ASSERT_EQ(a.nnz(), b.nnz());
    EXPECT_TRUE(std::equal(a.row_ptr().begin(), a.row_ptr().end(), b.row_ptr().begin()));
    EXPECT_TRUE(std::equal(a.col_idx().begin(), a.col_idx().end(), b.col_idx().begin()));
    EXPECT_EQ(std::memcmp(a.values().data(), b.values().data(), a.nnz() * sizeof(double)), 0);
  }
  // Three fresh solvers built private structures; the shared one was built
  // once and reused twice.
  EXPECT_EQ(delta("solver.structure_builds"), 4u);
  EXPECT_EQ(delta("solver.structure_reuses"), 2u);

  // Another topology never reuses it: the structure is rebuilt in place.
  pdn::StackModel other = scaled_mesh(1.0, 1.0);
  other.add_tap(5, 0.3);
  EXPECT_FALSE(shared.matches(other));
  const IrSolver rebuilt(other, SolverKind::kPcgIc, {}, &shared);
  EXPECT_TRUE(shared.matches(other));
  EXPECT_EQ(delta("solver.structure_builds"), 5u);
}

/// linalg::coo_layout of @p m's stamp sequence: G[a][a], G[b][b], G[a][b],
/// G[b][a] per resistor, then G[v][v] per tap.
linalg::CooLayout stamped_layout(const pdn::StackModel& m) {
  std::vector<std::size_t> rows;
  std::vector<std::size_t> cols;
  for (const pdn::Resistor& r : m.resistors()) {
    rows.insert(rows.end(), {r.a, r.b, r.a, r.b});
    cols.insert(cols.end(), {r.a, r.b, r.b, r.a});
  }
  for (const pdn::SupplyTap& t : m.taps()) {
    rows.push_back(t.node);
    cols.push_back(t.node);
  }
  return linalg::coo_layout(m.node_count(), rows, cols);
}

/// A TSV-stitched-looking mesh of one nx x ny grid, drawn from @p seed as
/// the linalg pins' seeded meshes are: perturbed grid edges, random long
/// edges (a repeated pair is a parallel resistor) and four taps.
pdn::StackModel seeded_mesh(std::uint64_t seed, int nx, int ny) {
  util::Rng rng(seed);
  pdn::StackModel m(1.0);
  pdn::LayerGrid g;
  g.nx = nx;
  g.ny = ny;
  g.dx = g.dy = 1.0;
  m.add_grid(g);
  m.set_dram_die_count(1);
  const auto n = static_cast<std::size_t>(nx * ny);
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const auto k = static_cast<std::size_t>(j * nx + i);
      if (i + 1 < nx) m.add_resistor(k, k + 1, 1.0 / (0.5 + rng.next_double()));
      if (j + 1 < ny) m.add_resistor(k, k + static_cast<std::size_t>(nx), 1.0 / (0.5 + rng.next_double()));
    }
  }
  for (int e = 0; e < nx + ny; ++e) {
    const auto u = static_cast<std::size_t>(rng.next_double() * double(n - 1));
    const auto v = static_cast<std::size_t>(rng.next_double() * double(n - 1));
    if (u != v) m.add_resistor(u, v, 1.0 / (0.1 + rng.next_double()));
  }
  for (int t = 0; t < 4; ++t) {
    m.add_tap(static_cast<std::size_t>(rng.next_double() * double(n - 1)),
              1.0 / (0.05 + rng.next_double()));
  }
  return m;
}

TEST(MeshStructure, LayoutEqualsCooLayout) {
  // The structure is built from the resistor endpoints and taps directly;
  // its pattern and every stamp's slot must be coo_layout's of the stamp
  // sequence, and G must be CooBuilder::compress's bit for bit.
  std::vector<std::pair<std::string, pdn::StackModel>> models;
  for (const auto& b : core::all_benchmarks()) {
    models.emplace_back(b.name, pdn::build_stack(b.stack, b.baseline).model);
  }
  for (const auto& [seed, nx, ny] : {std::tuple{11, 9, 7}, {12, 17, 13}, {13, 30, 24}, {14, 41, 37}}) {
    models.emplace_back("seed " + std::to_string(seed), seeded_mesh(seed, nx, ny));
  }
  {
    // Parallel resistors, both ways round; taps alone on a node, twice on
    // one, on a resistor's node; and a node with no stamp at all.
    pdn::StackModel m(1.0);
    pdn::LayerGrid g;
    g.nx = 7;
    g.ny = 1;
    g.dx = g.dy = 1.0;
    m.add_grid(g);
    m.set_dram_die_count(1);
    m.add_resistor(0, 1, 2.0);
    m.add_resistor(1, 0, 3.0);
    m.add_resistor(0, 1, 5.0);
    m.add_resistor(1, 2, 1.0);
    m.add_resistor(2, 4, 1.5);
    m.add_tap(3, 0.5);
    m.add_tap(5, 0.25);
    m.add_tap(3, 0.75);
    m.add_tap(0, 1.0);
    models.emplace_back("parallel resistors, tap-only nodes", std::move(m));
  }
  for (const auto& [name, model] : models) {
    SCOPED_TRACE(name);
    MeshStructure structure;
    structure.build(model);
    const linalg::CooLayout& got = structure.layout();
    const linalg::CooLayout want = stamped_layout(model);
    EXPECT_EQ(got.pattern->n, want.pattern->n);
    EXPECT_EQ(got.pattern->row_ptr, want.pattern->row_ptr);
    EXPECT_EQ(got.pattern->col_idx, want.pattern->col_idx);
    EXPECT_EQ(got.slots, want.slots);
    EXPECT_TRUE(structure.matches(model));

    linalg::CooBuilder builder(model.node_count());
    for (const pdn::Resistor& r : model.resistors()) builder.stamp_conductance(r.a, r.b, 1.0 / r.ohms);
    for (const pdn::SupplyTap& t : model.taps()) builder.stamp_to_ground(t.node, 1.0 / t.ohms);
    const linalg::Csr compressed = builder.compress();
    IrSolverOptions options;
    options.validate = false;  // the small model has floating nodes on purpose
    const IrSolver solver(model, SolverKind::kPcgIc, options);
    const linalg::Csr& a = solver.conductance_matrix();
    ASSERT_EQ(a.nnz(), compressed.nnz());
    EXPECT_TRUE(std::equal(a.row_ptr().begin(), a.row_ptr().end(), compressed.row_ptr().begin()));
    EXPECT_TRUE(std::equal(a.col_idx().begin(), a.col_idx().end(), compressed.col_idx().begin()));
    EXPECT_EQ(std::memcmp(a.values().data(), compressed.values().data(), a.nnz() * sizeof(double)), 0);
  }
}

TEST(IrSolver, CancelledFactorBuildIsBuiltAgainByTheNextSolve) {
  // A watchdog cancellation during a cached design's first factor build is
  // no verdict on the matrix: the next solve, with no token, builds the
  // factor again and answers what a fresh solver does, bit for bit, and no
  // build failure is counted.
  const auto benches = core::all_benchmarks();
  const auto built = pdn::build_stack(benches.front().stack, benches.front().baseline);
  const std::vector<double> sinks(built.model.node_count(), 1e-4);
  const SolveOutcome fresh =
      IrSolver(built.model, SolverKind::kSparseDirect).solve({.sinks = sinks});
  ASSERT_TRUE(fresh.ok()) << fresh.status.to_string();
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    exec::set_default_thread_count(threads);
    const IrSolver solver(built.model, SolverKind::kSparseDirect);
    CounterDeltas delta;
    auto& faults = faults::Registry::instance();
    ASSERT_EQ(faults.configure("linalg.chol.stall=1.0:10000"), "");
    exec::CancelToken token;
    SolveOutcome cancelled;
    std::thread caller([&] {
      const exec::CancelScope scope(token);
      cancelled = solver.solve({.sinks = sinks});
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.cancel();
    caller.join();
    faults.reset();
    EXPECT_EQ(cancelled.status.code(), core::StatusCode::kCancelled) << cancelled.status.to_string();

    const SolveOutcome again = solver.solve({.sinks = sinks});
    ASSERT_TRUE(again.ok()) << again.status.to_string();
    EXPECT_EQ(again.kind_used, SolverKind::kSparseDirect);
    EXPECT_EQ(again.escalations, 0u);
    ASSERT_EQ(again.x.size(), fresh.x.size());
    EXPECT_EQ(std::memcmp(again.x.data(), fresh.x.data(), fresh.x.size() * sizeof(double)), 0);
    EXPECT_EQ(delta("solver.factor_build_failures"), 0u);
    EXPECT_EQ(delta("solver.factor_builds"), 1u);
  }
  exec::set_default_thread_count(0);
}

/// Hands out (solver, sinks) pairs in order; keeps each outcome.
class MemberFeed final : public LaneFeed {
 public:
  MemberFeed(const std::vector<std::unique_ptr<IrSolver>>& solvers,
             const std::vector<std::vector<double>>& sinks)
      : solvers_(solvers), sinks_(sinks), outcomes_(solvers.size()) {}
  const IrSolver* next(std::size_t lane, std::span<const double>& sinks) override {
    if (next_ == solvers_.size()) return nullptr;
    in_lane_[lane] = next_;
    sinks = sinks_[next_];
    return solvers_[next_++].get();
  }
  void done(std::size_t lane, SolveOutcome& outcome) override {
    outcomes_[in_lane_[lane]] = std::move(outcome);
  }
  [[nodiscard]] const std::vector<SolveOutcome>& outcomes() const { return outcomes_; }

 private:
  const std::vector<std::unique_ptr<IrSolver>>& solvers_;
  const std::vector<std::vector<double>>& sinks_;
  std::vector<SolveOutcome> outcomes_;
  std::size_t next_ = 0;
  std::array<std::size_t, linalg::kCgLanes> in_lane_{};
};

/// Solves five same-topology members alone and as lanes and expects the same
/// bits; returns the escalations of the solo solves.
std::uint64_t expect_lanes_equal_solve(const IrSolverOptions& options, bool want_ir) {
  LaneScratch scratch;
  std::vector<pdn::StackModel> models;
  for (const double scale : {1.0, 0.5, 1.7, 3.1, 0.8}) models.push_back(scaled_mesh(scale, scale));
  std::vector<std::unique_ptr<IrSolver>> solvers;
  std::vector<std::vector<double>> sinks;
  for (std::size_t k = 0; k < models.size(); ++k) {
    solvers.push_back(std::make_unique<IrSolver>(models[k], SolverKind::kPcgIc, options,
                                                 &scratch.structure));
    sinks.emplace_back(models[k].node_count(), 0.004 * static_cast<double>(k + 1));
  }
  sinks[1].assign(sinks[1].size(), 0.0);  // unloaded: the rail solves it
  sinks[3][2] = std::numeric_limits<double>::quiet_NaN();

  std::vector<SolveOutcome> alone;
  CounterDeltas solo_delta;
  for (std::size_t k = 0; k < solvers.size(); ++k) {
    alone.push_back(solvers[k]->solve({.sinks = sinks[k], .want_ir = want_ir}));
  }
  const std::uint64_t solo_escalations = solo_delta("ladder.escalations");
  const std::uint64_t solo_failures = solo_delta("solver.failures");

  CounterDeltas lane_delta;
  MemberFeed feed(solvers, sinks);
  IrSolver::solve_lanes(feed, solvers.size(), want_ir, scratch);
  EXPECT_EQ(lane_delta("ladder.escalations"), solo_escalations);
  EXPECT_EQ(lane_delta("solver.failures"), solo_failures);
  EXPECT_EQ(lane_delta("cg.lane_solves"), 1u);

  for (std::size_t k = 0; k < solvers.size(); ++k) {
    SCOPED_TRACE("member " + std::to_string(k));
    const SolveOutcome& lane = feed.outcomes()[k];
    EXPECT_EQ(lane.status.to_string(), alone[k].status.to_string());
    EXPECT_EQ(lane.kind_used, alone[k].kind_used);
    EXPECT_EQ(lane.iterations, alone[k].iterations);
    EXPECT_EQ(lane.escalations, alone[k].escalations);
    EXPECT_EQ(std::memcmp(&lane.rel_residual, &alone[k].rel_residual, sizeof(double)), 0);
    EXPECT_EQ(lane.x.size(), alone[k].x.size());
    if (lane.x.empty() || lane.x.size() != alone[k].x.size()) continue;
    EXPECT_EQ(std::memcmp(lane.x.data(), alone[k].x.data(), lane.x.size() * sizeof(double)), 0);
  }
  EXPECT_EQ(alone[3].status.code(), core::StatusCode::kInputError);
  EXPECT_EQ(alone[1].iterations, 0u);
  return solo_escalations;
}

TEST(IrSolverLanes, EveryMemberIsBitwiseItsSolve) {
  EXPECT_EQ(expect_lanes_equal_solve({}, true), 0u);
}

TEST(IrSolverLanes, StarvedMembersEscalateLikeTheirSolve) {
  IrSolverOptions starved;
  starved.cg_max_iterations = 1;
  const util::LogLevel level = util::log_level();
  util::set_log_level(util::LogLevel::kError);
  EXPECT_EQ(expect_lanes_equal_solve(starved, false), 3u);  // every loaded member but the rail one
  util::set_log_level(level);
}

}  // namespace
}  // namespace pdn3d::irdrop
