#include "pdn/stack_builder.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <vector>

#include "core/benchmarks.hpp"
#include "floorplan/logic_floorplan.hpp"
#include "tech/presets.hpp"

namespace pdn3d::pdn {
namespace {

StackSpec ddr3_stack_spec() {
  StackSpec s;
  floorplan::DramFloorplanSpec ds;
  ds.width_mm = 6.8;
  ds.height_mm = 6.7;
  ds.bank_cols = 4;
  ds.bank_rows = 2;
  s.dram_spec = ds;
  s.dram_fp = floorplan::make_dram_floorplan(ds);
  s.logic_fp = floorplan::make_t2_floorplan();
  s.num_dram_dies = 4;
  s.tech = tech::ddr3_technology();
  return s;
}

bool network_is_connected(const StackModel& m) {
  // Union-find over resistors; every node must reach a tapped node.
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
  std::set<std::size_t> tapped_roots;
  for (const auto& t : m.taps()) tapped_roots.insert(find(t.node));
  for (std::size_t i = 0; i < m.node_count(); ++i) {
    if (tapped_roots.find(find(i)) == tapped_roots.end()) return false;
  }
  return true;
}

TEST(StackBuilder, OffChipStackStructure) {
  const auto spec = ddr3_stack_spec();
  const auto built = build_stack(spec, PdnConfig{});
  const StackModel& m = built.model;

  EXPECT_EQ(m.dram_die_count(), 4);
  EXPECT_FALSE(m.has_logic());
  EXPECT_TRUE(m.has_grid(kPackageDie, 0));
  for (int d = 0; d < 4; ++d) {
    EXPECT_TRUE(m.has_grid(d, 0));
    EXPECT_TRUE(m.has_grid(d, 1));
    EXPECT_FALSE(m.has_grid(d, 2));  // no RDL by default
  }
  EXPECT_GT(m.resistors().size(), 1000u);
  EXPECT_FALSE(m.taps().empty());
  EXPECT_TRUE(network_is_connected(m));
}

TEST(StackBuilder, OnChipAddsLogicGrids) {
  const auto spec = ddr3_stack_spec();
  PdnConfig cfg;
  cfg.mounting = Mounting::kOnChip;
  const auto built = build_stack(spec, cfg);
  EXPECT_TRUE(built.model.has_logic());
  EXPECT_TRUE(built.model.has_grid(kLogicDie, 1));
  EXPECT_TRUE(network_is_connected(built.model));
}

TEST(StackBuilder, RdlModesCreateExpectedLayers) {
  const auto spec = ddr3_stack_spec();
  PdnConfig cfg;
  cfg.rdl = RdlMode::kBottomOnly;
  const auto bottom = build_stack(spec, cfg);
  EXPECT_TRUE(bottom.model.has_grid(0, 2));
  EXPECT_FALSE(bottom.model.has_grid(1, 2));

  cfg.rdl = RdlMode::kAllDies;
  const auto all = build_stack(spec, cfg);
  for (int d = 0; d < 4; ++d) EXPECT_TRUE(all.model.has_grid(d, 2));
  EXPECT_TRUE(network_is_connected(all.model));
}

TEST(StackBuilder, F2fAddsDenseViaField) {
  const auto spec = ddr3_stack_spec();
  PdnConfig f2b;
  PdnConfig f2f;
  f2f.bonding = BondingStyle::kF2F;
  const auto nb = build_stack(spec, f2b).model.resistors().size();
  const auto nf = build_stack(spec, f2f).model.resistors().size();
  // The F2F via fields add roughly one resistor per pair-interface node.
  EXPECT_GT(nf, nb + 500u);
}

TEST(StackBuilder, WireBondingAddsSupplyTaps) {
  const auto spec = ddr3_stack_spec();
  PdnConfig plain;
  PdnConfig wb;
  wb.wire_bonding = true;
  const auto t0 = build_stack(spec, plain).model.taps().size();
  const auto t1 = build_stack(spec, wb).model.taps().size();
  // Up to 4 * wirebond_pads_per_side wires per die, bounded by the TSV count.
  const int wires_per_die = std::min(wb.tsv_count, 4 * spec.wirebond_pads_per_side);
  EXPECT_EQ(t1, t0 + static_cast<std::size_t>(4 * wires_per_die));
}

TEST(StackBuilder, MisalignedReportsC4Distance) {
  const auto spec = ddr3_stack_spec();
  PdnConfig aligned;
  aligned.align_tsvs_to_c4 = true;
  PdnConfig misaligned;
  misaligned.align_tsvs_to_c4 = false;
  EXPECT_DOUBLE_EQ(build_stack(spec, aligned).info.avg_c4_tsv_distance_mm, 0.0);
  EXPECT_GT(build_stack(spec, misaligned).info.avg_c4_tsv_distance_mm, 0.0);
}

TEST(StackBuilder, RejectsBadConfigs) {
  const auto spec = ddr3_stack_spec();
  PdnConfig cfg;
  cfg.tsv_count = 0;
  EXPECT_THROW(build_stack(spec, cfg), std::invalid_argument);

  StackSpec empty = spec;
  empty.num_dram_dies = 0;
  EXPECT_THROW(build_stack(empty, PdnConfig{}), std::invalid_argument);
}

TEST(StackBuilder, BuildInfoConsistent) {
  const auto spec = ddr3_stack_spec();
  PdnConfig cfg;
  cfg.tsv_count = 64;
  const auto built = build_stack(spec, cfg);
  EXPECT_EQ(built.info.tsvs_per_interface, 64);
  EXPECT_EQ(built.info.node_count, built.model.node_count());
  EXPECT_EQ(built.info.resistor_count, built.model.resistors().size());
}

TEST(StackBuilder, ResistorListIsSizedOnceOnTheBaselines) {
  // Every resistor is counted before it is stamped, so the list never
  // regrows: its capacity is its size.
  for (const auto& b : core::all_benchmarks()) {
    const auto built = build_stack(b.stack, b.baseline);
    EXPECT_EQ(built.model.resistor_capacity(), built.model.resistors().size()) << b.name;
    EXPECT_EQ(built.info.resistor_count, built.model.resistors().size()) << b.name;
  }
}

TEST(StackBuilder, SingleDieModelForValidation) {
  const auto spec = ddr3_stack_spec();
  const StackModel m = build_single_die(spec, PdnConfig{});
  EXPECT_EQ(m.dram_die_count(), 1);
  EXPECT_TRUE(m.has_grid(0, 0));
  EXPECT_TRUE(m.has_grid(0, 1));
  EXPECT_FALSE(m.has_grid(kPackageDie, 0));
  EXPECT_TRUE(network_is_connected(m));

  // Refinement multiplies node count by ~refine^2.
  const StackModel fine = build_single_die(spec, PdnConfig{}, 2);
  EXPECT_GT(fine.node_count(), 3 * m.node_count());
  EXPECT_THROW(build_single_die(spec, PdnConfig{}, 0), std::invalid_argument);
}

TEST(StackModel, ElementValidation) {
  StackModel m(1.5);
  LayerGrid g;
  g.nx = 2;
  g.ny = 1;
  g.dx = g.dy = 1.0;
  m.add_grid(g);
  EXPECT_THROW(m.add_resistor(0, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(m.add_resistor(0, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(m.add_resistor(0, 5, 1.0), std::out_of_range);
  EXPECT_THROW(m.add_tap(9, 1.0), std::out_of_range);
  EXPECT_THROW((void)m.grid(3, 0), std::out_of_range);
  m.add_resistor(0, 1, 2.0);
  m.add_tap(0, 0.1);
  EXPECT_EQ(m.resistors().size(), 1u);
  EXPECT_EQ(m.taps().size(), 1u);
}

}  // namespace
}  // namespace pdn3d::pdn
