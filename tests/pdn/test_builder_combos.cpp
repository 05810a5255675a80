// Property sweep: every discrete design/packaging combination must build a
// connected, solvable network with a physically sane IR drop. This exercises
// all builder code paths (mounting x bonding x RDL x wire bonding x
// dedicated x TSV location).

#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "floorplan/logic_floorplan.hpp"
#include "irdrop/analysis.hpp"
#include "pdn/stack_builder.hpp"
#include "tech/presets.hpp"

namespace pdn3d::pdn {
namespace {

struct Combo {
  Mounting mounting;
  BondingStyle bonding;
  RdlMode rdl;
  bool wire_bonding;
  bool dedicated;
  TsvLocation location;
};

Combo decode(int index) {
  Combo c{};
  c.mounting = index % 2 == 0 ? Mounting::kOffChip : Mounting::kOnChip;
  index /= 2;
  c.bonding = index % 2 == 0 ? BondingStyle::kF2B : BondingStyle::kF2F;
  index /= 2;
  c.rdl = static_cast<RdlMode>(index % 3);
  index /= 3;
  c.wire_bonding = index % 2 == 1;
  index /= 2;
  c.dedicated = index % 2 == 1;
  index /= 2;
  c.location = static_cast<TsvLocation>(index % 3);
  return c;
}

constexpr int kComboCount = 2 * 2 * 3 * 2 * 2 * 3;  // 144

class BuilderCombos : public ::testing::TestWithParam<int> {};

bool connected_to_taps(const StackModel& m) {
  std::vector<std::size_t> parent(m.node_count());
  for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const auto& r : m.resistors()) parent[find(r.a)] = find(r.b);
  std::set<std::size_t> tap_roots;
  for (const auto& t : m.taps()) tap_roots.insert(find(t.node));
  for (std::size_t i = 0; i < m.node_count(); ++i) {
    if (tap_roots.find(find(i)) == tap_roots.end()) return false;
  }
  return true;
}

TEST_P(BuilderCombos, BuildsConnectedSolvableNetwork) {
  const Combo combo = decode(GetParam());

  StackSpec spec;
  floorplan::DramFloorplanSpec ds;
  ds.width_mm = 6.8;
  ds.height_mm = 6.7;
  ds.bank_cols = 4;
  ds.bank_rows = 2;
  spec.dram_spec = ds;
  spec.dram_fp = floorplan::make_dram_floorplan(ds);
  spec.logic_fp = floorplan::make_t2_floorplan();
  spec.num_dram_dies = 4;
  spec.tech = tech::ddr3_technology();

  PdnConfig cfg;
  cfg.mounting = combo.mounting;
  cfg.bonding = combo.bonding;
  cfg.rdl = combo.rdl;
  cfg.wire_bonding = combo.wire_bonding;
  cfg.dedicated_tsvs = combo.dedicated;
  cfg.tsv_location = combo.location;
  cfg.logic_tsv_location =
      combo.rdl != RdlMode::kNone ? TsvLocation::kCenter : combo.location;

  const auto built = build_stack(spec, cfg);
  ASSERT_TRUE(connected_to_taps(built.model)) << cfg.summary();
  // The builder counts its resistors before stamping them.
  EXPECT_EQ(built.model.resistor_capacity(), built.model.resistors().size()) << cfg.summary();

  irdrop::PowerBinding power;
  const irdrop::IrAnalyzer analyzer(built.model, spec.dram_fp, spec.logic_fp, power,
                                    irdrop::SolverKind::kSparseDirect);
  const auto state = power::parse_memory_state("0-0-0-2", ds);
  const auto r = analyzer.analyze(state);
  EXPECT_GT(r.dram_max_mv, 1.0) << cfg.summary();
  EXPECT_LT(r.dram_max_mv, 500.0) << cfg.summary();
  // The headline number is the max over dies (which die wins is design
  // dependent: wire bonds feed every die directly, and on-chip coupling can
  // push a lower die above the active one).
  double worst = 0.0;
  for (const auto& die : r.dram_dies) worst = std::max(worst, die.max_mv);
  EXPECT_DOUBLE_EQ(r.dram_max_mv, worst) << cfg.summary();
  // Every die sees a positive drop (idle dies still carry background power).
  for (const auto& die : r.dram_dies) {
    EXPECT_GT(die.max_mv, 0.0) << cfg.summary();
    EXPECT_GE(die.max_mv, die.avg_mv) << cfg.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(AllCombos, BuilderCombos, ::testing::Range(0, kComboCount));

}  // namespace
}  // namespace pdn3d::pdn
