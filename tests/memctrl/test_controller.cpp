#include "memctrl/controller.hpp"

#include "memctrl/workload.hpp"

#include <gtest/gtest.h>

#include "floorplan/logic_floorplan.hpp"
#include "irdrop/lut.hpp"
#include "pdn/stack_builder.hpp"
#include "tech/presets.hpp"

namespace pdn3d::memctrl {
namespace {

SimConfig ddr3_sim() {
  SimConfig c;
  c.timing = dram::ddr3_1600_timing();
  c.dies = 4;
  c.banks_per_die = 8;
  c.channels = 1;
  return c;
}

std::vector<Request> simple_requests(int n, int interval = 5) {
  std::vector<Request> out;
  for (int i = 0; i < n; ++i) {
    Request r;
    r.id = i;
    r.arrival = static_cast<dram::Cycle>(i) * interval;
    r.die = 0;
    r.bank = 0;
    r.row = 7;
    out.push_back(r);
  }
  return out;
}

/// A shared LUT fixture (built once -- it needs 81 R-Mesh solves).
const irdrop::IrLut& shared_lut() {
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
    h->analyzer = std::make_unique<irdrop::IrAnalyzer>(h->built.model, h->spec.dram_fp,
                                                       h->spec.logic_fp, h->power);
    h->lut = std::make_unique<irdrop::IrLut>(
        irdrop::IrLut::build(*h->analyzer, h->spec.dram_spec, 2, 0.8));
    return h;
  }();
  return *holder->lut;
}

TEST(Controller, CompletesAllRequests) {
  MemoryController mc(ddr3_sim(), standard_policy());
  const auto r = mc.run(simple_requests(100));
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.reads, 100);
  EXPECT_GT(r.cycles, 0);
  EXPECT_GT(r.runtime_us, 0.0);
}

TEST(Controller, SingleStreamIsRowHitDominated) {
  MemoryController mc(ddr3_sim(), standard_policy());
  const auto r = mc.run(simple_requests(500));
  EXPECT_GT(r.row_hit_fraction, 0.9);
  EXPECT_LT(r.activates, 50);
}

TEST(Controller, BandwidthBoundedByBusAndArrival) {
  MemoryController mc(ddr3_sim(), standard_policy());
  const auto r = mc.run(simple_requests(500, 5));
  EXPECT_LE(r.bandwidth_reads_per_clk, 0.25 + 1e-9);  // 4-cycle bursts
  EXPECT_LE(r.bandwidth_reads_per_clk, 0.2 + 1e-9);   // 5-cycle arrivals
}

TEST(Controller, RowConflictsForcePrecharges) {
  std::vector<Request> reqs;
  for (int i = 0; i < 100; ++i) {
    Request r;
    r.id = i;
    r.arrival = i * 10;
    r.die = 0;
    r.bank = 0;
    r.row = i % 2;  // ping-pong rows in one bank
    reqs.push_back(r);
  }
  MemoryController mc(ddr3_sim(), standard_policy());
  const auto r = mc.run(reqs);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.reads, 100);
  EXPECT_GT(r.activates, 50);
  EXPECT_LT(r.row_hit_fraction, 0.5);
}

TEST(Controller, WorkloadIntegration) {
  WorkloadConfig wc;
  wc.num_requests = 2000;
  MemoryController mc(ddr3_sim(), standard_policy());
  const auto r = mc.run(generate_workload(wc));
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.reads, 2000);
}

TEST(Controller, IrAwareRespectsConstraint) {
  WorkloadConfig wc;
  wc.num_requests = 3000;
  wc.streams = 2;
  auto pc = ir_aware_policy(24.0, SchedulingKind::kFcfs);
  pc.lut = &shared_lut();
  MemoryController mc(ddr3_sim(), pc);
  const auto r = mc.run(generate_workload(wc));
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.reads, 3000);
  EXPECT_LE(r.max_ir_mv, 24.0);
}

TEST(Controller, StandardExceedsWhatIrAwareAvoids) {
  WorkloadConfig wc;
  wc.num_requests = 3000;
  wc.streams = 2;
  auto pc = standard_policy();
  pc.lut = &shared_lut();  // reporting only
  MemoryController mc(ddr3_sim(), pc);
  const auto r = mc.run(generate_workload(wc));
  EXPECT_GT(r.max_ir_mv, 24.0);
}

TEST(Controller, TightConstraintIsInfeasible) {
  auto pc = ir_aware_policy(1.0, SchedulingKind::kFcfs);  // below any state
  pc.lut = &shared_lut();
  SimConfig sim = ddr3_sim();
  sim.stall_limit = 2000;
  MemoryController mc(sim, pc);
  const auto r = mc.run(simple_requests(10));
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.reads, 0);
}

TEST(Controller, RefreshWithNoAdmissibleStateIsInfeasible) {
  // Refreshes keep completing while no activation is admitted; they must
  // not reset the infeasibility timer, or the run never returns.
  auto pc = ir_aware_policy(1.0, SchedulingKind::kFcfs);  // below any state
  pc.lut = &shared_lut();
  SimConfig sim = ddr3_sim();
  sim.stall_limit = 2000;
  sim.enable_refresh = true;
  MemoryController mc(sim, pc);
  const auto r = mc.run(simple_requests(10));
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.reads, 0);
  EXPECT_GE(r.refreshes, 1);  // the first one falls due at cycle 1560
  // The last arrival (cycle 45) was the last progress.
  EXPECT_EQ(r.cycles, 45 + sim.stall_limit + 1);
}

TEST(Controller, DistRBalancesAcrossDies) {
  WorkloadConfig wc;
  wc.num_requests = 4000;
  wc.streams = 4;
  auto fcfs = ir_aware_policy(24.0, SchedulingKind::kFcfs);
  fcfs.lut = &shared_lut();
  auto distr = ir_aware_policy(24.0, SchedulingKind::kDistR);
  distr.lut = &shared_lut();
  const auto reqs = generate_workload(wc);
  const auto rf = MemoryController(ddr3_sim(), fcfs).run(reqs);
  const auto rd = MemoryController(ddr3_sim(), distr).run(reqs);
  EXPECT_TRUE(rf.feasible);
  EXPECT_TRUE(rd.feasible);
  EXPECT_LE(rd.runtime_us, rf.runtime_us * 1.001);  // DistR at least as fast
}

TEST(Controller, MoreChannelsNeverSlower) {
  WorkloadConfig wc;
  wc.num_requests = 2000;
  wc.streams = 4;
  const auto reqs = generate_workload(wc);
  SimConfig one = ddr3_sim();
  SimConfig four = ddr3_sim();
  four.channels = 4;
  const auto r1 = MemoryController(one, standard_policy()).run(reqs);
  const auto r4 = MemoryController(four, standard_policy()).run(reqs);
  EXPECT_LE(r4.cycles, r1.cycles);
}

TEST(Controller, IsolationCheckEnforcesConstraintDynamically) {
  // Without the isolated-projection check, a bank closure on another die can
  // push the remaining state above the constraint (see policy.cpp).
  WorkloadConfig wc;
  wc.num_requests = 4000;
  wc.streams = 3;
  auto strict = ir_aware_policy(24.0, SchedulingKind::kDistR);
  strict.lut = &shared_lut();
  auto naive = strict;
  naive.isolation_check = false;
  const auto reqs = generate_workload(wc);
  const auto rs = MemoryController(ddr3_sim(), strict).run(reqs);
  const auto rn = MemoryController(ddr3_sim(), naive).run(reqs);
  EXPECT_LE(rs.max_ir_mv, 24.0 + 1e-9);
  EXPECT_GT(rn.max_ir_mv, 24.0);  // the naive policy drifts above its limit
}

TEST(Controller, RejectsBadConfig) {
  SimConfig bad = ddr3_sim();
  bad.dies = 0;
  EXPECT_THROW(MemoryController(bad, standard_policy()), std::invalid_argument);
  auto pc = ir_aware_policy(24.0);
  pc.lut = nullptr;
  EXPECT_THROW(MemoryController(ddr3_sim(), pc), std::invalid_argument);
}

}  // namespace
}  // namespace pdn3d::memctrl
