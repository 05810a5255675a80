#include "memctrl/policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "util/rng.hpp"

namespace pdn3d::memctrl {
namespace {

TEST(PolicyFactories, StandardIsInOrderAndIrBlind) {
  const PolicyConfig pc = standard_policy();
  EXPECT_EQ(pc.ir_policy, IrPolicyKind::kStandard);
  EXPECT_EQ(pc.scheduling, SchedulingKind::kFcfs);
  EXPECT_FALSE(pc.out_of_order);
}

TEST(PolicyFactories, IrAwareScansQueue) {
  const PolicyConfig pc = ir_aware_policy(24.0, SchedulingKind::kDistR);
  EXPECT_EQ(pc.ir_policy, IrPolicyKind::kIrAware);
  EXPECT_EQ(pc.scheduling, SchedulingKind::kDistR);
  EXPECT_DOUBLE_EQ(pc.ir_constraint_mv, 24.0);
  EXPECT_TRUE(pc.out_of_order);
}

TEST(ActivationPolicy, StandardEnforcesTrrd) {
  const dram::TimingParams t = dram::ddr3_1600_timing();
  ActivationPolicy p(standard_policy(), t, 4, 2);
  const std::vector<int> idle = {0, 0, 0, 0};
  EXPECT_TRUE(p.allows(0, 0, idle));
  p.note_activate(0);
  EXPECT_FALSE(p.allows(t.tRRD - 1, 1, idle));
  EXPECT_TRUE(p.allows(t.tRRD, 1, idle));
}

TEST(ActivationPolicy, StandardEnforcesTfaw) {
  const dram::TimingParams t = dram::ddr3_1600_timing();
  ActivationPolicy p(standard_policy(), t, 4, 8);  // wide pump limit to isolate tFAW
  const std::vector<int> idle = {0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) p.note_activate(i * t.tRRD);
  // Four activates in the window: the fifth must wait for the window to pass
  // (tRRD alone would already allow it at 24 + tRRD = 32, but the first ACT
  // is still inside its tFAW window at cycle 25..31).
  EXPECT_FALSE(p.allows(3 * t.tRRD + t.tRRD - 1, 0, idle));
  EXPECT_TRUE(p.allows(t.tFAW, 0, idle));
}

TEST(ActivationPolicy, StandardTreatsStackAsOneDie) {
  const dram::TimingParams t = dram::ddr3_1600_timing();
  ActivationPolicy p(standard_policy(), t, 4, 2);
  // Two banks active on die 0: a 3D-unaware controller refuses die 1 too.
  const std::vector<int> two_on_die0 = {2, 0, 0, 0};
  EXPECT_FALSE(p.allows(1000, 1, two_on_die0));
  const std::vector<int> split = {1, 1, 0, 0};
  EXPECT_FALSE(p.allows(1000, 2, split));
}

TEST(ActivationPolicy, IrAwareRequiresLut) {
  const dram::TimingParams t = dram::ddr3_1600_timing();
  PolicyConfig pc = ir_aware_policy(24.0);
  pc.lut = nullptr;
  EXPECT_THROW(ActivationPolicy(pc, t, 4, 2), std::invalid_argument);
}

TEST(ActivationPolicy, ChargePumpLimitAlwaysEnforced) {
  const dram::TimingParams t = dram::ddr3_1600_timing();
  ActivationPolicy p(standard_policy(), t, 4, 2);
  const std::vector<int> maxed = {2, 0, 0, 0};
  EXPECT_FALSE(p.allows(1000, 0, maxed));
}

TEST(ScheduleOrder, FcfsSortsByArrival) {
  std::vector<Request> q(3);
  q[0].arrival = 30;
  q[1].arrival = 10;
  q[2].arrival = 20;
  std::vector<std::size_t> order;
  schedule_order(q, SchedulingKind::kFcfs, {0, 0, 0, 0}, order);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 0}));
}

TEST(ScheduleOrder, DistRPrefersLeastActiveDie) {
  std::vector<Request> q(2);
  q[0].arrival = 0;
  q[0].die = 0;  // older, but die 0 is busy
  q[1].arrival = 10;
  q[1].die = 2;  // younger, idle die
  std::vector<std::size_t> order;
  schedule_order(q, SchedulingKind::kDistR, {2, 0, 0, 0}, order);
  EXPECT_EQ(order.front(), 1u);
}

TEST(ScheduleOrder, DistRBreaksTiesByArrival) {
  std::vector<Request> q(2);
  q[0].arrival = 10;
  q[0].die = 1;
  q[1].arrival = 0;
  q[1].die = 3;
  std::vector<std::size_t> order;
  schedule_order(q, SchedulingKind::kDistR, {0, 0, 0, 0}, order);
  EXPECT_EQ(order.front(), 1u);
}

TEST(ScheduleOrder, StrictlyIncreasingArrivalsGiveTheUniqueSortedOrder) {
  // Distinct arrivals make each comparator a strict total order, so the
  // linear passes must land on the one order any correct sort gives.
  util::Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Request> q(static_cast<std::size_t>(rng.next_int(0, 40)));
    dram::Cycle arrival = 0;
    for (Request& r : q) {
      arrival += rng.next_int(1, 3);
      r.arrival = arrival;
      r.die = rng.next_int(0, 3);
    }
    const std::vector<int> active = {rng.next_int(0, 2), rng.next_int(0, 2), rng.next_int(0, 2),
                                     rng.next_int(0, 2)};
    std::vector<std::size_t> expected(q.size());
    std::iota(expected.begin(), expected.end(), std::size_t{0});
    std::vector<std::size_t> order;
    schedule_order(q, SchedulingKind::kFcfs, active, order);
    EXPECT_EQ(order, expected) << "trial " << trial;
    const auto load = [&](std::size_t i) { return active[static_cast<std::size_t>(q[i].die)]; };
    std::stable_sort(expected.begin(), expected.end(),
                     [&](std::size_t a, std::size_t b) { return load(a) < load(b); });
    schedule_order(q, SchedulingKind::kDistR, active, order);
    EXPECT_EQ(order, expected) << "trial " << trial;
  }
}

}  // namespace
}  // namespace pdn3d::memctrl
