// Electromigration pass (irdrop::em_check): branch currents recovered from
// the solved voltages become current densities via per-layer / per-TSV
// cross-section geometry, checked against limits and summarized as Black's
// MTTF. Hand-computed densities pin the unit chain (A, um^2 -> MA/cm^2); the
// wide-io goldens pin the full pass at 1e-10 so a silent geometry or unit
// regression cannot slip through.

#include "irdrop/em.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/benchmarks.hpp"
#include "core/platform.hpp"
#include "irdrop/analysis.hpp"
#include "obs/metrics.hpp"
#include "pdn/stack_builder.hpp"

namespace pdn3d::irdrop {
namespace {

constexpr double kPi = 3.14159265358979323846;

// A 2-node model with one known branch current: VDD --1ohm-- n0 --2ohm-- n1,
// voltages chosen so the branch carries |0.8 - 0.2| / 2 = 0.3 A.
pdn::StackModel two_node_model(pdn::ElementKind kind, double usage, double thickness_um) {
  pdn::StackModel m(1.0);
  pdn::LayerGrid g;
  g.nx = 2;
  g.ny = 1;
  g.dx = g.dy = 1.0;
  g.vdd_usage = usage;
  g.thickness_um = thickness_um;
  m.add_grid(g);
  m.add_tap(0, 1.0);
  m.add_resistor(0, 1, 2.0, kind);
  return m;
}

TEST(EmCheck, TsvDensityFromDiameter) {
  const auto m = two_node_model(pdn::ElementKind::kTsv, 0.5, 0.3);
  tech::Technology tech;
  tech.em.tsv_diameter_um = 5.0;
  const std::vector<double> v = {0.8, 0.2};
  const auto rep = em_check(m, tech, v);

  const auto* tsv = rep.find(pdn::ElementKind::kTsv);
  ASSERT_NE(tsv, nullptr);
  EXPECT_EQ(tsv->current.count, 1u);
  EXPECT_DOUBLE_EQ(tsv->current.max_amps, 0.3);
  // J[MA/cm^2] = 100 * I[A] / area[um^2], area = pi/4 * d^2.
  const double area = kPi * 0.25 * 5.0 * 5.0;
  EXPECT_NEAR(tsv->max_j_ma_cm2, 100.0 * 0.3 / area, 1e-12);
  EXPECT_DOUBLE_EQ(tsv->limit_ma_cm2, tech.em.tsv_limit_ma_cm2);
  EXPECT_GT(tsv->mttf_hours, 0.0);
  EXPECT_EQ(rep.find(pdn::ElementKind::kC4), nullptr);  // kind absent, not zeroed
}

TEST(EmCheck, MeshDensityFromGridGeometry) {
  // An x-directed mesh segment's cross-section is usage * dy * thickness:
  // 0.5 * 1.0 mm * 1000 * 0.3 um = 150 um^2.
  const auto m = two_node_model(pdn::ElementKind::kMesh, 0.5, 0.3);
  const tech::Technology tech;
  const std::vector<double> v = {0.8, 0.2};
  const auto rep = em_check(m, tech, v);
  const auto* mesh = rep.find(pdn::ElementKind::kMesh);
  ASSERT_NE(mesh, nullptr);
  EXPECT_NEAR(mesh->max_j_ma_cm2, 100.0 * 0.3 / 150.0, 1e-12);
  EXPECT_DOUBLE_EQ(mesh->limit_ma_cm2, tech.em.wire_limit_ma_cm2);
}

TEST(EmCheck, LimitOverridesAndViolationCounting) {
  const auto m = two_node_model(pdn::ElementKind::kTsv, 0.5, 0.3);
  const tech::Technology tech;
  const std::vector<double> v = {0.8, 0.2};

  EmOptions opts;
  opts.tsv_limit_ma_cm2 = 1e-3;  // far below the ~1.5 MA/cm^2 the branch carries
  const auto rep = em_check(m, tech, v, opts);
  ASSERT_EQ(rep.kinds.size(), 1u);
  EXPECT_EQ(rep.total_violations, 1u);
  EXPECT_FALSE(rep.clean());
  EXPECT_DOUBLE_EQ(rep.kinds[0].limit_ma_cm2, 1e-3);
  EXPECT_GT(rep.worst_utilization, 1.0);

  // The ~1.5 MA/cm^2 branch also violates the default 0.5 MA/cm^2 TSV
  // limit, but a generous override clears it -- the limit is the only
  // thing that changed, so the verdict must follow it.
  EXPECT_FALSE(em_check(m, tech, v).clean());
  EmOptions generous;
  generous.tsv_limit_ma_cm2 = 10.0;
  EXPECT_TRUE(em_check(m, tech, v, generous).clean());
}

TEST(EmCheck, ZeroCrossSectionIsTypedError) {
  // A zero-diameter TSV tech entry must surface as std::invalid_argument --
  // never as a silent NaN/Inf density (the fault-injection contract).
  const auto m = two_node_model(pdn::ElementKind::kTsv, 0.5, 0.3);
  tech::Technology tech;
  tech.em.tsv_diameter_um = 0.0;
  const std::vector<double> v = {0.8, 0.2};
  EXPECT_THROW(em_check(m, tech, v), std::invalid_argument);

  // Same for a zero-thickness mesh layer.
  const auto mesh = two_node_model(pdn::ElementKind::kMesh, 0.5, 0.0);
  EXPECT_THROW(em_check(mesh, tech::Technology{}, v), std::invalid_argument);
}

TEST(EmCheck, VoltageSizeMismatchThrows) {
  const auto m = two_node_model(pdn::ElementKind::kMesh, 0.5, 0.3);
  const std::vector<double> bad = {1.0};
  EXPECT_THROW(em_check(m, tech::Technology{}, bad), std::invalid_argument);
}

TEST(BlackMttf, GoldenValuesAndProperties) {
  const tech::EmTech em;  // A=1e-8 h, n=2, Ea=0.9 eV
  // Golden values at the default 85 C parameters, pinned at 1e-10 relative.
  EXPECT_NEAR(black_mttf_hours(em, 1.0, 85.0), 46187.77706645921, 46187.0 * 1e-10);
  EXPECT_NEAR(black_mttf_hours(em, 2.0, 85.0), 11546.944266614802, 11546.0 * 1e-10);
  // n = 2: doubling J quarters the MTTF.
  EXPECT_NEAR(black_mttf_hours(em, 1.0, 85.0) / black_mttf_hours(em, 2.0, 85.0), 4.0, 1e-9);
  // Hotter junction, shorter life.
  EXPECT_LT(black_mttf_hours(em, 1.0, 125.0), black_mttf_hours(em, 1.0, 85.0));
  // J <= 0 is the "no stress" sentinel, not infinity.
  EXPECT_EQ(black_mttf_hours(em, 0.0, 85.0), 0.0);
  EXPECT_EQ(black_mttf_hours(em, -1.0, 85.0), 0.0);
  // Vanishing stress is capped to stay finite (JSON-safe gauges).
  EXPECT_LE(black_mttf_hours(em, 1e-30, 85.0), 1e30);
  // Below absolute zero is a caller bug.
  EXPECT_THROW((void)black_mttf_hours(em, 1.0, -300.0), std::invalid_argument);
}

// Full-pass goldens on the wide-io baseline at its default state. These pin
// the branch-current recovery, the per-kind geometry, and the MTTF chain end
// to end; any change here is a deliberate remodel, not drift.
TEST(EmCheck, WideIoGoldenNumbers) {
  const core::Platform p(core::make_benchmark(core::BenchmarkKind::kWideIo));
  const auto state = p.parse_state(p.benchmark().default_state, -1.0);
  const auto rep = p.em_check(p.benchmark().baseline, state);

  const auto near = [](double actual, double expected) {
    EXPECT_NEAR(actual, expected, std::abs(expected) * 1e-10) << "expected " << expected;
  };

  EXPECT_TRUE(rep.clean());
  EXPECT_DOUBLE_EQ(rep.temperature_c, 85.0);
  near(rep.worst_utilization, 0.498991965582396);
  near(rep.min_mttf_hours, 7419.9323608536033);

  const auto* mesh = rep.find(pdn::ElementKind::kMesh);
  ASSERT_NE(mesh, nullptr);
  EXPECT_EQ(mesh->current.count, 7660u);
  near(mesh->current.max_amps, 0.32143987367188537);
  near(mesh->max_j_ma_cm2, 0.10491534220684115);
  near(mesh->mttf_hours, 4196131.1915093875);

  const auto* via = rep.find(pdn::ElementKind::kVia);
  ASSERT_NE(via, nullptr);
  EXPECT_EQ(via->current.count, 3114u);
  near(via->max_j_ma_cm2, 2.49495982791198);
  near(via->avg_j_ma_cm2, 0.16964779149362705);
  near(via->mttf_hours, 7419.9323608536033);

  const auto* tsv = rep.find(pdn::ElementKind::kTsv);
  ASSERT_NE(tsv, nullptr);
  EXPECT_EQ(tsv->current.count, 640u);
  near(tsv->current.max_amps, 0.0026414843959903637);
  near(tsv->max_j_ma_cm2, 0.013452969559103228);

  const auto* c4 = rep.find(pdn::ElementKind::kC4);
  ASSERT_NE(c4, nullptr);
  EXPECT_EQ(c4->current.count, 110u);
  near(c4->max_j_ma_cm2, 0.0061444788771546814);

  const auto* rdl = rep.find(pdn::ElementKind::kRdlVia);
  ASSERT_NE(rdl, nullptr);
  EXPECT_EQ(rdl->current.count, 176u);
  near(rdl->max_j_ma_cm2, 0.0041486970121251687);

  // F2B bonding: no face-to-face via field in this stack.
  EXPECT_EQ(rep.find(pdn::ElementKind::kF2fVia), nullptr);
}

// Platform::em_check solves its state once: on_ir gets that solve's IR
// statistics, and the EM pass reads its node voltages, so both equal the
// separate analyze() and node_voltages() of the state bit for bit.
TEST(EmCheck, PlatformSolvesOnceForIrAndEm) {
  const core::Platform p(core::make_benchmark(core::BenchmarkKind::kWideIo));
  const auto& cfg = p.benchmark().baseline;
  const auto state = p.parse_state(p.benchmark().default_state, -1.0);
  const IrAnalyzer& analyzer = p.analyzer(cfg);
  const IrResult ir = analyzer.analyze(state);
  const EmReport separate =
      em_check(analyzer.model(), p.benchmark().stack.tech, analyzer.node_voltages(state));

  auto& solves = obs::counter("solver.solves");
  const std::uint64_t solves0 = solves.value();
  std::vector<IrResult> seen;
  const EmReport rep = p.em_check(cfg, state, {}, [&](const IrResult& r) { seen.push_back(r); });
  EXPECT_EQ(solves.value() - solves0, 1u);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].dram_max_mv, ir.dram_max_mv);
  EXPECT_EQ(seen[0].logic_max_mv, ir.logic_max_mv);
  EXPECT_EQ(rep.total_violations, separate.total_violations);
  EXPECT_EQ(rep.worst_utilization, separate.worst_utilization);
  EXPECT_EQ(rep.min_mttf_hours, separate.min_mttf_hours);
  ASSERT_EQ(rep.kinds.size(), separate.kinds.size());
  for (std::size_t k = 0; k < rep.kinds.size(); ++k) {
    SCOPED_TRACE(pdn::to_string(rep.kinds[k].kind));
    EXPECT_EQ(rep.kinds[k].current.max_amps, separate.kinds[k].current.max_amps);
    EXPECT_EQ(rep.kinds[k].current.avg_amps, separate.kinds[k].current.avg_amps);
    EXPECT_EQ(rep.kinds[k].max_j_ma_cm2, separate.kinds[k].max_j_ma_cm2);
    EXPECT_EQ(rep.kinds[k].avg_j_ma_cm2, separate.kinds[k].avg_j_ma_cm2);
    EXPECT_EQ(rep.kinds[k].mttf_hours, separate.kinds[k].mttf_hours);
  }
}

// The request-level temperature override flows through to every MTTF.
TEST(EmCheck, TemperatureOverrideScalesMttf) {
  const core::Platform p(core::make_benchmark(core::BenchmarkKind::kWideIo));
  const auto state = p.parse_state(p.benchmark().default_state, -1.0);
  EmOptions hot;
  hot.temperature_c = 125.0;
  const auto baseline = p.em_check(p.benchmark().baseline, state);
  const auto heated = p.em_check(p.benchmark().baseline, state, hot);
  EXPECT_DOUBLE_EQ(heated.temperature_c, 125.0);
  EXPECT_LT(heated.min_mttf_hours, baseline.min_mttf_hours);
}

}  // namespace
}  // namespace pdn3d::irdrop
