#include "transient/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/benchmarks.hpp"
#include "core/status.hpp"
#include "faults/faults.hpp"
#include "irdrop/analysis.hpp"
#include "pdn/stack_builder.hpp"
#include "transient/decap.hpp"

namespace pdn3d::transient {
namespace {

/// Single-node RC: VDD --R-- n0 with C at n0 and a current step I.
/// Analytic: IR(t) = I*R*(1 - exp(-t/RC)).
TEST(TransientSimulator, MatchesAnalyticRC) {
  pdn::StackModel m(1.0);
  pdn::LayerGrid g;
  g.die = 0;
  g.layer = 0;
  g.nx = 1;
  g.ny = 1;
  g.dx = g.dy = 1.0;
  m.add_grid(g);
  m.set_dram_die_count(1);
  const double R = 2.0;
  const double C = 1e-9;
  const double I = 0.1;
  m.add_tap(0, R);

  const std::vector<double> caps = {C};
  const double dt = 1e-11;  // RC/200
  TransientSimulator sim(m, caps, dt);
  const auto result = sim.step_response(std::vector<double>{I}, 10.0 * R * C);

  EXPECT_NEAR(result.dc_ir_mv, I * R * 1e3, 1e-6);
  EXPECT_NEAR(result.peak_ir_mv, I * R * 1e3, 0.01 * I * R * 1e3);

  // Check the waveform against the analytic exponential at a few times.
  for (std::size_t k = 10; k < result.time_ns.size(); k += 40) {
    const double t = result.time_ns[k] * 1e-9;
    const double expected_mv = I * R * (1.0 - std::exp(-t / (R * C))) * 1e3;
    EXPECT_NEAR(result.worst_ir_mv[k], expected_mv, 0.03 * I * R * 1e3);
  }

  // Settling time ~ 4 RC for 2%.
  EXPECT_NEAR(result.settle_ns, 3.9 * R * C * 1e9, 1.5);
  EXPECT_DOUBLE_EQ(result.overshoot_fraction, 0.0);
}

TEST(TransientSimulator, FullStackDroopApproachesDc) {
  const auto bench = core::make_benchmark(core::BenchmarkKind::kStackedDdr3OffChip);
  const auto built = pdn::build_stack(bench.stack, bench.baseline);
  irdrop::PowerBinding power;
  power.dram = bench.dram_power;
  power.logic = bench.logic_power;
  const irdrop::IrAnalyzer analyzer(built.model, bench.stack.dram_fp, bench.stack.logic_fp, power);
  const auto state = power::parse_memory_state("0-0-0-2", bench.stack.dram_spec);
  const auto sinks = analyzer.injection(state);
  const double dc = analyzer.analyze(state).dram_max_mv;

  const auto caps = assign_node_capacitance(built.model);
  TransientSimulator sim(built.model, caps, 1e-9);
  const auto result = sim.step_response(sinks, 500e-9);

  EXPECT_NEAR(result.dc_ir_mv, dc, 0.02 * dc);
  // The transient must end near DC and never stay below it forever.
  EXPECT_NEAR(result.worst_ir_mv.back(), dc, 0.05 * dc);
  EXPECT_LE(result.worst_ir_mv.front(), 1e-9);
  // Monotone-ish rise: the first sample after t=0 is below the final value.
  EXPECT_LT(result.worst_ir_mv[1], result.worst_ir_mv.back());
}

TEST(TransientSimulator, MoreDecapSlowsDroop) {
  const auto bench = core::make_benchmark(core::BenchmarkKind::kStackedDdr3OffChip);
  const auto built = pdn::build_stack(bench.stack, bench.baseline);
  irdrop::PowerBinding power;
  power.dram = bench.dram_power;
  power.logic = bench.logic_power;
  const irdrop::IrAnalyzer analyzer(built.model, bench.stack.dram_fp, bench.stack.logic_fp, power);
  const auto sinks =
      analyzer.injection(power::parse_memory_state("0-0-0-2", bench.stack.dram_spec));

  DecapConfig small;
  small.die_nf_per_mm2 = 0.02;
  small.tap_decap_nf = 0.0;
  DecapConfig big;
  big.die_nf_per_mm2 = 0.40;
  big.tap_decap_nf = 10.0;

  TransientSimulator sim_small(built.model, assign_node_capacitance(built.model, small), 1e-9);
  TransientSimulator sim_big(built.model, assign_node_capacitance(built.model, big), 1e-9);
  const auto r_small = sim_small.step_response(sinks, 200e-9);
  const auto r_big = sim_big.step_response(sinks, 200e-9);

  // With more decap the droop at a fixed early time is smaller.
  const std::size_t k = 5;  // 5 ns
  EXPECT_LT(r_big.worst_ir_mv[k], r_small.worst_ir_mv[k]);
  EXPECT_GE(r_big.settle_ns, r_small.settle_ns);
}

TEST(TransientSimulator, InputValidation) {
  const auto bench = core::make_benchmark(core::BenchmarkKind::kStackedDdr3OffChip);
  const auto built = pdn::build_stack(bench.stack, bench.baseline);
  const auto caps = assign_node_capacitance(built.model);
  EXPECT_THROW(TransientSimulator(built.model, caps, 0.0), std::invalid_argument);
  const std::vector<double> bad_caps(3, 1e-12);
  EXPECT_THROW(TransientSimulator(built.model, bad_caps, 1e-9), std::invalid_argument);

  TransientSimulator sim(built.model, caps, 1e-9);
  const std::vector<double> bad_sinks(3, 0.0);
  EXPECT_THROW(sim.step_response(bad_sinks, 1e-7), std::invalid_argument);
  const std::vector<double> sinks(built.model.node_count(), 0.0);
  EXPECT_THROW(sim.step_response(sinks, 0.0), std::invalid_argument);
}

TEST(TransientSimulator, FloatingIslandIsATypedValidationError) {
  // A loaded island with no path to the supply has no DC answer: the mesh is
  // refused at construction instead of yielding a DC droop without an error.
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
  const std::vector<double> caps(m.node_count(), 1e-12);
  try {
    const TransientSimulator sim(m, caps, 1e-11);
    const std::vector<double> island_load = {0.0, 0.0, 1e-3, 0.0};
    FAIL() << "floating island reached the DC reference: dc_ir_mv = "
           << sim.step_response(island_load, 1e-10).dc_ir_mv;
  } catch (const core::ValidationError& e) {
    EXPECT_TRUE(e.report().has_check("floating-node")) << e.report().to_string();
  }
}

TEST(TransientSimulator, PoisonedStepSolveIsATypedErrorAtOnce) {
  // Every CG solve starts from a NaN residual: the DC reference recovers on
  // the sparse factor, and the first time step fails on the spot with a
  // typed error naming the CG failure, instead of iterating to a cap.
  pdn::StackModel m(1.0);
  pdn::LayerGrid g;
  g.nx = 1;
  g.ny = 1;
  g.dx = g.dy = 1.0;
  m.add_grid(g);
  m.set_dram_die_count(1);
  m.add_tap(0, 2.0);
  const std::vector<double> caps = {1e-9};
  const TransientSimulator sim(m, caps, 1e-11);

  faults::Registry::instance().reset();
  ASSERT_EQ(faults::Registry::instance().configure("linalg.cg.nan=1.0"), "");
  try {
    (void)sim.step_response(std::vector<double>{0.1}, 2e-9);
    faults::Registry::instance().reset();
    FAIL() << "a poisoned step solve returned a waveform";
  } catch (const core::NumericalError& e) {
    faults::Registry::instance().reset();
    EXPECT_EQ(e.status().code(), core::StatusCode::kNumericalFailure);
    EXPECT_NE(e.status().message().find("transient step 1: ic-pcg diverged-non-finite"),
              std::string::npos)
        << e.status().to_string();
  }
}

}  // namespace
}  // namespace pdn3d::transient
