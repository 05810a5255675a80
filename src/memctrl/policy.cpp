#include "memctrl/policy.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace pdn3d::memctrl {

PolicyConfig standard_policy() {
  PolicyConfig pc;
  pc.ir_policy = IrPolicyKind::kStandard;
  pc.scheduling = SchedulingKind::kFcfs;
  pc.out_of_order = false;
  return pc;
}

PolicyConfig ir_aware_policy(double constraint_mv, SchedulingKind scheduling) {
  PolicyConfig pc;
  pc.ir_policy = IrPolicyKind::kIrAware;
  pc.scheduling = scheduling;
  pc.ir_constraint_mv = constraint_mv;
  pc.out_of_order = true;
  return pc;
}

ActivationPolicy::ActivationPolicy(const PolicyConfig& config, const dram::TimingParams& timing,
                                   int dies, int max_active_per_die)
    : config_(config), timing_(&timing), max_active_per_die_(max_active_per_die) {
  (void)dies;
  recent_activates_.fill(dram::kNever);
  if (config_.ir_policy != IrPolicyKind::kIrAware) return;
  if (config_.lut == nullptr) {
    throw std::invalid_argument("ActivationPolicy: IR-aware policy requires a LUT");
  }
  // IR-drop-aware: admit iff the LUT says the *resulting* state meets the
  // constraint -- including every state reachable from it by other dies
  // closing their banks. Closing a die concentrates the shared I/O traffic
  // on the remaining ones (higher per-die activity), so the isolated
  // projection of each active die must also stay legal. The verdict depends
  // only on the state and the die, so it is decided here for every state in
  // the LUT, in key order (die d's count is digit d).
  const irdrop::IrLut& lut = *config_.lut;
  const auto lut_dies = static_cast<std::size_t>(lut.die_count());
  const int top = lut.max_per_die();
  const auto admits = [&](const std::vector<int>& next, std::vector<int>& isolated) {
    if (lut.max_ir_mv(next) > config_.ir_constraint_mv) return false;
    if (!config_.isolation_check) return true;
    for (std::size_t e = 0; e < next.size(); ++e) {
      if (next[e] == 0) continue;
      std::fill(isolated.begin(), isolated.end(), 0);
      isolated[e] = next[e];
      if (lut.max_ir_mv(isolated) > config_.ir_constraint_mv) return false;
    }
    return true;
  };
  admitted_.assign(lut.size() * lut_dies, 0);
  std::vector<int> state(lut_dies, 0);
  std::vector<int> isolated(lut_dies, 0);
  for (std::size_t key = 0; key < lut.size(); ++key) {
    for (std::size_t d = 0; d < lut_dies; ++d) {
      if (state[d] == top) continue;  // the resulting state is outside the LUT
      ++state[d];
      admitted_[key * lut_dies + d] = admits(state, isolated) ? 1 : 0;
      --state[d];
    }
    // Next state in key order: increment the mixed-radix counter.
    for (std::size_t d = 0; d < lut_dies && ++state[d] > top; ++d) state[d] = 0;
  }
}

bool ActivationPolicy::allows(dram::Cycle now, int die,
                              const std::vector<int>& active_per_die) const {
  const auto d = static_cast<std::size_t>(die);
  // Charge-pump limit: at most N interleaved banks per die, always enforced.
  if (active_per_die[d] >= max_active_per_die_) return false;

  if (config_.ir_policy == IrPolicyKind::kStandard) {
    // tRRD: minimum spacing between any two activates.
    if (last_activate_ != dram::kNever && now < last_activate_ + timing_->tRRD) return false;
    // tFAW: at most four activates in any tFAW window.
    int in_window = 0;
    for (const dram::Cycle c : recent_activates_) {
      if (c != dram::kNever && now < c + timing_->tFAW) ++in_window;
    }
    if (in_window >= 4) return false;
    // 3D-unaware interleave limit: the standard policy sees one "device",
    // so the per-die interleave cap applies to the whole stack.
    const int total = std::accumulate(active_per_die.begin(), active_per_die.end(), 0);
    if (total >= max_active_per_die_) return false;
    return true;
  }

  // IR-drop-aware: the constructor's verdict for this state and die. The
  // LUT lookup of the resulting state threw on a count outside the table;
  // key() and the top-count check throw the same.
  const std::size_t key = config_.lut->key(active_per_die);
  if (active_per_die[d] == config_.lut->max_per_die()) {
    throw std::out_of_range("IrLut: count out of range");
  }
  return admitted_[key * active_per_die.size() + d] != 0;
}

void ActivationPolicy::note_activate(dram::Cycle now) {
  last_activate_ = now;
  recent_activates_[next_recent_] = now;
  next_recent_ = (next_recent_ + 1) % recent_activates_.size();
}

void schedule_order(const std::vector<Request>& queue, SchedulingKind scheduling,
                    const std::vector<int>& active_per_die, std::vector<std::size_t>& order) {
  const auto die_load = [&](std::size_t i) {
    return active_per_die[static_cast<std::size_t>(queue[i].die)];
  };
  order.resize(queue.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // With strictly increasing arrivals (the controller's queue keeps arrival
  // order; only a trace can tie two) either comparator below is a strict
  // total order, so the sorted order is unique and linear passes give it:
  // the queue order itself for FCFS, one pass per die load for DistR.
  // Tied arrivals go through std::sort, which may permute the ties.
  const bool strictly_increasing =
      std::adjacent_find(queue.begin(), queue.end(), [](const Request& a, const Request& b) {
        return a.arrival >= b.arrival;
      }) == queue.end();
  if (strictly_increasing) {
    if (scheduling == SchedulingKind::kFcfs || queue.empty()) return;
    int lo = die_load(0);
    int hi = lo;
    for (std::size_t i = 1; i < queue.size(); ++i) {
      lo = std::min(lo, die_load(i));
      hi = std::max(hi, die_load(i));
    }
    std::size_t next = 0;
    for (int load = lo; load <= hi; ++load) {
      for (std::size_t i = 0; i < queue.size(); ++i) {
        if (die_load(i) == load) order[next++] = i;
      }
    }
    return;
  }
  if (scheduling == SchedulingKind::kFcfs) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return queue[a].arrival < queue[b].arrival;
    });
  } else {
    // DistR: fewest active banks on the target die first, then arrival.
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const int da = die_load(a);
      const int db = die_load(b);
      if (da != db) return da < db;
      return queue[a].arrival < queue[b].arrival;
    });
  }
}

}  // namespace pdn3d::memctrl
