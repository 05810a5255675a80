#include "irdrop/lut.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "floorplan/logic_floorplan.hpp"
#include "pdn/stack_builder.hpp"
#include "tech/presets.hpp"
#include "util/checkpoint.hpp"

namespace pdn3d::irdrop {
namespace {

struct LutFixture {
  pdn::StackSpec spec;
  pdn::BuiltStack built;
  PowerBinding power;
  std::unique_ptr<IrAnalyzer> analyzer;

  LutFixture() {
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
    built = pdn::build_stack(spec, pdn::PdnConfig{});
    analyzer = std::make_unique<IrAnalyzer>(built.model, spec.dram_fp, spec.logic_fp, power);
  }
};

TEST(IrLut, CoversAllStates) {
  const LutFixture f;
  const auto lut = IrLut::build(*f.analyzer, f.spec.dram_spec, 2);
  EXPECT_EQ(lut.size(), 81u);  // 3^4
  EXPECT_EQ(lut.die_count(), 4);
  EXPECT_EQ(lut.max_per_die(), 2);
}

TEST(IrLut, MatchesDirectAnalysis) {
  const LutFixture f;
  const auto lut = IrLut::build(*f.analyzer, f.spec.dram_spec, 2, 1.0);
  const auto st = power::make_state_from_counts({0, 0, 0, 2}, f.spec.dram_spec, 1.0);
  EXPECT_NEAR(lut.max_ir_mv({0, 0, 0, 2}), f.analyzer->analyze(st).dram_max_mv, 1e-9);
}

TEST(IrLut, WorstCaseIsTopDiePair) {
  const LutFixture f;
  const auto lut = IrLut::build(*f.analyzer, f.spec.dram_spec, 2, 1.0);
  EXPECT_EQ(lut.worst_case_state(), (std::vector<int>{0, 0, 0, 2}));
  EXPECT_DOUBLE_EQ(lut.worst_case_mv(), lut.max_ir_mv({0, 0, 0, 2}));
}

TEST(IrLut, IdleStateIsSmallest) {
  const LutFixture f;
  const auto lut = IrLut::build(*f.analyzer, f.spec.dram_spec, 2);
  const double idle = lut.max_ir_mv({0, 0, 0, 0});
  EXPECT_LT(idle, lut.max_ir_mv({1, 0, 0, 0}));
  EXPECT_LT(idle, lut.worst_case_mv());
}

TEST(IrLut, DemandFactorScalesEntries) {
  const LutFixture f;
  const auto heavy = IrLut::build(*f.analyzer, f.spec.dram_spec, 2, 1.0);
  const auto light = IrLut::build(*f.analyzer, f.spec.dram_spec, 2, 0.5);
  EXPECT_GT(heavy.max_ir_mv({0, 0, 0, 2}), light.max_ir_mv({0, 0, 0, 2}));
  // Idle state unaffected.
  EXPECT_NEAR(heavy.max_ir_mv({0, 0, 0, 0}), light.max_ir_mv({0, 0, 0, 0}), 1e-9);
}

TEST(IrLut, RangeChecking) {
  const LutFixture f;
  const auto lut = IrLut::build(*f.analyzer, f.spec.dram_spec, 2);
  EXPECT_THROW((void)lut.max_ir_mv({0, 0, 0}), std::invalid_argument);
  EXPECT_THROW((void)lut.max_ir_mv({0, 0, 0, 3}), std::out_of_range);
  EXPECT_THROW((void)lut.max_ir_mv({0, 0, 0, -1}), std::out_of_range);
}

TEST(IrLut, SaveLoadRoundTrip) {
  const LutFixture f;
  const auto lut = IrLut::build(*f.analyzer, f.spec.dram_spec, 2, 0.8);
  std::ostringstream os;
  lut.save(os);
  std::istringstream is(os.str());
  const auto back = IrLut::load(is);
  EXPECT_EQ(back.size(), lut.size());
  EXPECT_EQ(back.die_count(), lut.die_count());
  for (const auto& probe : {std::vector<int>{0, 0, 0, 2}, std::vector<int>{1, 1, 1, 1},
                            std::vector<int>{2, 0, 1, 0}}) {
    EXPECT_NEAR(back.max_ir_mv(probe), lut.max_ir_mv(probe), 1e-4);
  }
}

TEST(IrLut, LoadRejectsMalformedInput) {
  const auto expect_throw = [](const char* text) {
    std::istringstream is(text);
    EXPECT_THROW(IrLut::load(is), std::runtime_error) << text;
  };
  expect_throw("");
  expect_throw("wrong header\n0-0 1.0\n");
  expect_throw("pdn3d-lut v1 dies=2 max=1\n0-0 1.0\n");          // incomplete
  expect_throw("pdn3d-lut v1 dies=2 max=1\n0-0-0 1.0\n");        // wrong die count
  expect_throw("pdn3d-lut v1 dies=2 max=1\n0-0\n");              // missing value
}

TEST(ParallelLut, BuildIsBitwiseIdenticalAcrossThreadCounts) {
  // Every LUT entry derives from its state key alone, so the parallel build
  // must reproduce the serial table exactly.
  const LutFixture f;
  const auto serial = IrLut::build(*f.analyzer, f.spec.dram_spec, 2, 1.0, 1);
  for (const int threads : {2, 8}) {
    const auto lut = IrLut::build(*f.analyzer, f.spec.dram_spec, 2, 1.0, threads);
    ASSERT_EQ(lut.size(), serial.size()) << threads;
    for (int a = 0; a <= 2; ++a) {
      for (int b = 0; b <= 2; ++b) {
        for (int c = 0; c <= 2; ++c) {
          for (int d = 0; d <= 2; ++d) {
            const std::vector<int> key = {a, b, c, d};
            EXPECT_EQ(lut.max_ir_mv(key), serial.max_ir_mv(key)) << threads;
          }
        }
      }
    }
  }
}

/// Every entry of a 4-die, 2-per-die table, in key order.
std::vector<double> entries(const IrLut& lut) {
  std::vector<double> out;
  for (int key = 0; key < 81; ++key) {
    out.push_back(lut.max_ir_mv({key % 3, key / 3 % 3, key / 9 % 3, key / 27 % 3}));
  }
  return out;
}

/// Keep the checkpoint's header and its first @p keep entries (index order).
void truncate_entries(const std::string& path, std::size_t keep) {
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), keep + 1);
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i <= keep; ++i) out << lines[i] << "\n";
}

TEST(ParallelLut, ResumeMidBlockIsBitwiseTheStraightRun) {
  // On the cached factor the build solves blocks of states. A checkpoint
  // cut inside a block replays its entries, and the block's other states
  // solve to the same bits at one and at eight threads.
  const LutFixture f;
  const IrAnalyzer analyzer(f.built.model, f.spec.dram_fp, f.spec.logic_fp, f.power,
                            SolverKind::kSparseDirect);
  const auto truth = entries(IrLut::build(analyzer, f.spec.dram_spec, 2, 1.0, 1));
  const std::string path = testing::TempDir() + "pdn3d_lut_blocks.ckpt";
  std::remove(path.c_str());
  const std::uint64_t key = util::checkpoint_key("lut-blocks-test");
  const auto run = [&](int threads, bool resume, std::uint64_t resumed) {
    auto ckpt = util::SweepCheckpoint::open(path, key, 81, resume);
    EXPECT_EQ(ckpt.resumed(), resumed);
    EXPECT_EQ(entries(IrLut::build(analyzer, f.spec.dram_spec, 2, 1.0, threads, &ckpt)), truth);
  };
  {
    SCOPED_TRACE("checkpointed, threads 8");
    run(8, false, 0);
  }
  ASSERT_NO_FATAL_FAILURE(truncate_entries(path, 13));
  {
    SCOPED_TRACE("resumed mid-block, threads 8");
    run(8, true, 13);
  }
  ASSERT_NO_FATAL_FAILURE(truncate_entries(path, 30));
  {
    SCOPED_TRACE("resumed mid-block, threads 1");
    run(1, true, 30);
  }
  std::remove(path.c_str());
}

TEST(ParallelLut, RejectsNegativeThreads) {
  const LutFixture f;
  EXPECT_THROW(IrLut::build(*f.analyzer, f.spec.dram_spec, 2, 1.0, -1),
               std::invalid_argument);
}

TEST(IrLut, BalancedStatesBeatConcentratedOnes) {
  // The architectural insight of Section 5.1: distributing the same number
  // of active banks across dies lowers the worst-case IR drop.
  const LutFixture f;
  const auto lut = IrLut::build(*f.analyzer, f.spec.dram_spec, 2, 1.0);
  EXPECT_LT(lut.max_ir_mv({1, 1, 1, 1}), lut.max_ir_mv({0, 0, 0, 2}));
  EXPECT_LT(lut.max_ir_mv({2, 2, 2, 2}), lut.max_ir_mv({0, 0, 0, 2}));
}

}  // namespace
}  // namespace pdn3d::irdrop
