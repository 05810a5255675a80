#include "tech/technology.hpp"

#include <gtest/gtest.h>

#include "tech/presets.hpp"

namespace pdn3d::tech {
namespace {

TEST(MetalLayer, SegmentResistanceScalesInverselyWithUsage) {
  MetalLayer m{"M3", 0.16, RouteDirection::kVertical, 0.2};
  EXPECT_DOUBLE_EQ(m.segment_resistance(0.2), 0.8);
  EXPECT_DOUBLE_EQ(m.segment_resistance(0.4), 0.4);
  EXPECT_GT(m.segment_resistance(0.1), m.segment_resistance(0.2));
}

TEST(MetalLayer, RejectsInvalidUsage) {
  MetalLayer m{"M2", 0.33, RouteDirection::kHorizontal, 0.1};
  EXPECT_THROW((void)m.segment_resistance(0.0), std::invalid_argument);
  EXPECT_THROW((void)m.segment_resistance(-0.1), std::invalid_argument);
  EXPECT_THROW((void)m.segment_resistance(1.5), std::invalid_argument);
  EXPECT_NO_THROW((void)m.segment_resistance(1.0));
}

TEST(Presets, DramStackShape) {
  const DieTechnology t = dram_20nm();
  EXPECT_EQ(t.layer_count(), 2u);
  EXPECT_EQ(t.layer(0).name, "M2");
  EXPECT_EQ(t.layer(1).name, "M3");
  // M2 (thin, mixed signal/power) must be more resistive than M3 (top power).
  EXPECT_GT(t.layer(0).sheet_resistance, t.layer(1).sheet_resistance);
  EXPECT_EQ(t.layer(0).direction, RouteDirection::kHorizontal);
  EXPECT_EQ(t.layer(1).direction, RouteDirection::kVertical);
  EXPECT_DOUBLE_EQ(t.vdd, 1.5);
}

TEST(Presets, LogicStackLessResistiveThanDram) {
  const DieTechnology logic = logic_28nm();
  const DieTechnology dram = dram_20nm();
  EXPECT_LT(logic.layer(0).sheet_resistance, dram.layer(0).sheet_resistance);
  EXPECT_LT(logic.layer(1).sheet_resistance, dram.layer(1).sheet_resistance);
}

TEST(Presets, VddVariants) {
  EXPECT_DOUBLE_EQ(ddr3_technology().dram.vdd, 1.5);
  EXPECT_DOUBLE_EQ(low_voltage_technology().dram.vdd, 1.2);
}

TEST(Presets, InterconnectOrdering) {
  const InterconnectTech ic = default_interconnect();
  // Via-last dedicated TSVs are lower-resistance than via-middle ones.
  EXPECT_LT(ic.dedicated_tsv_resistance, ic.tsv_resistance);
  // An F2F via field node is much lower-R than a TSV.
  EXPECT_LT(ic.f2f_via_resistance, ic.tsv_resistance);
  // Bond wires are the most resistive single element.
  EXPECT_GT(ic.wirebond_resistance, ic.tsv_resistance);
  // RDL is a thick low-resistance layer.
  EXPECT_LT(ic.rdl_sheet_resistance, 0.05);
}

TEST(RouteDirection, ToString) {
  EXPECT_EQ(to_string(RouteDirection::kHorizontal), "horizontal");
  EXPECT_EQ(to_string(RouteDirection::kVertical), "vertical");
  EXPECT_EQ(to_string(RouteDirection::kOmni), "omni");
}

}  // namespace
}  // namespace pdn3d::tech
