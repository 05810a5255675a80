#include "floorplan/dram_floorplan.hpp"

#include <gtest/gtest.h>

namespace pdn3d::floorplan {
namespace {

DramFloorplanSpec ddr3_spec() {
  DramFloorplanSpec s;
  s.width_mm = 6.8;
  s.height_mm = 6.7;
  s.bank_cols = 4;
  s.bank_rows = 2;
  return s;
}

TEST(DramFloorplan, Ddr3HasEightBanks) {
  const Floorplan fp = make_dram_floorplan(ddr3_spec());
  EXPECT_EQ(fp.bank_count(), 8);
  EXPECT_TRUE(fp.is_legal());
}

TEST(DramFloorplan, BankIndexingIsColumnMajor) {
  const auto spec = ddr3_spec();
  const Floorplan fp = make_dram_floorplan(spec);
  // Bank index = col * rows + row; banks of one column share x-extent.
  const Block& b0 = fp.bank(0);
  const Block& b1 = fp.bank(1);
  EXPECT_DOUBLE_EQ(b0.rect.x0, b1.rect.x0);
  EXPECT_LT(b0.rect.y0, b1.rect.y0);  // row 0 below row 1
  // Next column starts further right.
  const Block& b2 = fp.bank(2);
  EXPECT_GT(b2.rect.x0, b0.rect.x0);
}

TEST(DramFloorplan, HasPeripheryIoAndDecoders) {
  const Floorplan fp = make_dram_floorplan(ddr3_spec());
  EXPECT_EQ(fp.blocks_of_type(BlockType::kIoBlock).size(), 1u);
  EXPECT_EQ(fp.blocks_of_type(BlockType::kPeriphery).size(), 2u);
  EXPECT_EQ(fp.blocks_of_type(BlockType::kColDecoder).size(), 2u);
  // cols - 1 inter-column strips, each split above/below the center band.
  EXPECT_EQ(fp.blocks_of_type(BlockType::kRowDecoder).size(), 6u);
}

TEST(DramFloorplan, UtilizationReasonable) {
  const Floorplan fp = make_dram_floorplan(ddr3_spec());
  EXPECT_GT(fp.utilization(), 0.6);
  EXPECT_LT(fp.utilization(), 1.0);
}

TEST(DramFloorplan, MissingBankThrows) {
  const Floorplan fp = make_dram_floorplan(ddr3_spec());
  EXPECT_THROW((void)fp.bank(8), std::out_of_range);
  EXPECT_THROW((void)fp.bank(-1), std::out_of_range);
}

TEST(DramFloorplan, InterleavePairSpansColumn) {
  const auto spec = ddr3_spec();
  const auto pair = interleave_pair(spec, 0);
  EXPECT_EQ(pair.low, 0);
  EXPECT_EQ(pair.high, 1);
  const auto pair3 = interleave_pair(spec, 3);
  EXPECT_EQ(pair3.low, 6);
  EXPECT_EQ(pair3.high, 7);
  EXPECT_THROW(interleave_pair(spec, 4), std::out_of_range);
}

TEST(DramFloorplan, RejectsOddRows) {
  DramFloorplanSpec s = ddr3_spec();
  s.bank_rows = 3;
  EXPECT_THROW(make_dram_floorplan(s), std::invalid_argument);
}

TEST(DramFloorplan, RejectsTinyDie) {
  DramFloorplanSpec s = ddr3_spec();
  s.width_mm = 0.2;
  s.height_mm = 0.2;
  EXPECT_THROW(make_dram_floorplan(s), std::invalid_argument);
}

class DramFloorplanShapes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(DramFloorplanShapes, GeneratesLegalFloorplan) {
  DramFloorplanSpec s;
  s.width_mm = 7.2;
  s.height_mm = 6.4;
  s.bank_cols = GetParam().first;
  s.bank_rows = GetParam().second;
  const Floorplan fp = make_dram_floorplan(s);
  EXPECT_EQ(fp.bank_count(), s.bank_cols * s.bank_rows);
  EXPECT_TRUE(fp.is_legal());
  // Every bank index must resolve.
  for (int i = 0; i < fp.bank_count(); ++i) {
    EXPECT_EQ(fp.bank(i).bank_index, i);
  }
}

INSTANTIATE_TEST_SUITE_P(BenchmarkShapes, DramFloorplanShapes,
                         ::testing::Values(std::make_pair(4, 2),   // DDR3
                                           std::make_pair(4, 4),   // Wide I/O
                                           std::make_pair(8, 4),   // HMC
                                           std::make_pair(2, 2),   // small
                                           std::make_pair(1, 2))); // degenerate

}  // namespace
}  // namespace pdn3d::floorplan
