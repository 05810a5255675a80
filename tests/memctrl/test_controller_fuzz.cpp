// Controller fuzz: across random workload seeds and policies, the simulator
// must uphold its invariants -- every request completes exactly once, metrics
// are internally consistent, and the IR-aware constraint is never exceeded.

#include <gtest/gtest.h>

#include "floorplan/logic_floorplan.hpp"
#include "irdrop/lut.hpp"
#include "memctrl/controller.hpp"
#include "memctrl/workload.hpp"
#include "pdn/stack_builder.hpp"
#include "tech/presets.hpp"

namespace pdn3d::memctrl {
namespace {

const irdrop::IrLut& fuzz_lut() {
  static const auto* holder = [] {
    struct Holder {
      pdn::StackSpec spec;
      pdn::BuiltStack built;
      irdrop::PowerBinding power;
      std::unique_ptr<irdrop::IrAnalyzer> analyzer;
      std::unique_ptr<irdrop::IrLut> lut;
    };
    auto* h = new Holder;
    floorplan::DramFloorplanSpec ds;
    ds.width_mm = 6.8;
    ds.height_mm = 6.7;
    ds.bank_cols = 4;
    ds.bank_rows = 2;
    h->spec.dram_spec = ds;
    h->spec.dram_fp = floorplan::make_dram_floorplan(ds);
    h->spec.logic_fp = floorplan::make_t2_floorplan();
    h->spec.num_dram_dies = 4;
    h->spec.tech = tech::ddr3_technology();
    h->built = pdn::build_stack(h->spec, pdn::PdnConfig{});
    h->analyzer = std::make_unique<irdrop::IrAnalyzer>(
        h->built.model, h->spec.dram_fp, h->spec.logic_fp, h->power,
        irdrop::SolverKind::kSparseDirect);
    h->lut = std::make_unique<irdrop::IrLut>(
        irdrop::IrLut::build(*h->analyzer, h->spec.dram_spec, 2, 0.8));
    return h;
  }();
  return *holder->lut;
}

class ControllerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ControllerFuzz, InvariantsHoldAcrossSeeds) {
  WorkloadConfig wc;
  wc.num_requests = 1500;
  wc.seed = GetParam();
  wc.streams = 1 + static_cast<int>(GetParam() % 5);
  wc.row_hit_rate = 0.5 + 0.4 * static_cast<double>(GetParam() % 3) / 2.0;
  wc.write_fraction = static_cast<double>(GetParam() % 4) / 10.0;
  const auto reqs = generate_workload(wc);

  SimConfig sim;
  sim.timing = dram::ddr3_1600_timing();
  sim.enable_refresh = GetParam() % 2 == 0;

  for (const bool aware : {false, true}) {
    PolicyConfig pc = aware ? ir_aware_policy(24.0, GetParam() % 2 ? SchedulingKind::kFcfs
                                                                   : SchedulingKind::kDistR)
                            : standard_policy();
    pc.lut = &fuzz_lut();
    const auto r = MemoryController(sim, pc).run(reqs);

    ASSERT_TRUE(r.feasible) << "seed " << GetParam() << " aware=" << aware;
    EXPECT_EQ(r.reads + r.writes, wc.num_requests);
    EXPECT_GE(r.activates, 1);
    EXPECT_GE(r.row_hit_fraction, 0.0);
    EXPECT_LE(r.row_hit_fraction, 1.0);
    EXPECT_GT(r.cycles, 0);
    // Arrival span lower-bounds the runtime; bus peak upper-bounds bandwidth.
    EXPECT_GE(r.cycles, (wc.num_requests - 1) * wc.arrival_interval);
    EXPECT_LE(r.bandwidth_reads_per_clk, 0.25 + 1e-9);
    if (aware) {
      EXPECT_LE(r.max_ir_mv, 24.0 + 1e-9) << "seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControllerFuzz,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u, 31415926u));

}  // namespace
}  // namespace pdn3d::memctrl
