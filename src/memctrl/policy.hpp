#pragma once

/// @file policy.hpp
/// @brief Read policies (Section 5.2).
///
/// Two orthogonal choices:
///  - IR policy: the JEDEC *standard* policy throttles row activations with
///    tRRD/tFAW and -- being unaware of 3D stacking -- applies the two-bank
///    interleave limit to the whole stack as if it were one die. The
///    *IR-drop-aware* policy instead admits an activation iff the resulting
///    memory state's LUT entry stays under the IR constraint (per-die
///    charge-pump limit still applies).
///  - Scheduling: FCFS (arrival order) vs distributed-read (DistR), which
///    prioritizes requests whose target die currently has the fewest active
///    banks, balancing reads across dies.

#include <array>
#include <cstdint>
#include <vector>

#include "dram/bank.hpp"
#include "irdrop/lut.hpp"
#include "memctrl/request.hpp"

namespace pdn3d::memctrl {

enum class IrPolicyKind {
  kStandard,  ///< tRRD + tFAW + stack-wide interleave limit; IR-blind
  kIrAware,   ///< LUT-checked activations under an IR constraint
};

enum class SchedulingKind { kFcfs, kDistR };

struct PolicyConfig {
  IrPolicyKind ir_policy = IrPolicyKind::kStandard;
  SchedulingKind scheduling = SchedulingKind::kFcfs;
  double ir_constraint_mv = 24.0;        ///< used by kIrAware
  /// Required for kIrAware and IR reporting. Read-only here: one LUT
  /// (precomputed in parallel by irdrop::IrLut::build, cached per design by
  /// core::Platform) can back any number of concurrent controller
  /// simulations without locking.
  const irdrop::IrLut* lut = nullptr;
  /// A 3D-aware controller scans the whole priority queue each cycle; the
  /// baseline JEDEC controller serves strictly in order (head-of-line).
  bool out_of_order = false;
  /// IR-aware admission also validates each die's isolated projection of the
  /// next state (other dies closing concentrates I/O traffic and raises the
  /// survivors' activity). Disabling this reproduces a naive LUT policy that
  /// can drift above its constraint -- see bench_ablation_policy.
  bool isolation_check = true;
};

/// The paper's baseline: JEDEC tRRD/tFAW limits, in-order FCFS service.
PolicyConfig standard_policy();

/// The paper's IR-drop-aware policy at @p constraint_mv with the chosen
/// scheduler (FCFS or DistR); scans the full queue.
PolicyConfig ir_aware_policy(double constraint_mv,
                             SchedulingKind scheduling = SchedulingKind::kFcfs);

/// Decides whether a new activation on @p die is admissible now.
class ActivationPolicy {
 public:
  /// An IR-aware policy decides here, once, every (memory state, die)
  /// admission its LUT covers; allows() then reads that table.
  ActivationPolicy(const PolicyConfig& config, const dram::TimingParams& timing, int dies,
                   int max_active_per_die);

  /// @param active_per_die current active-bank counts (Opening|Open).
  /// IR-aware: throws what the LUT lookup of the resulting state throws --
  /// std::out_of_range when a count leaves the table's range.
  [[nodiscard]] bool allows(dram::Cycle now, int die,
                            const std::vector<int>& active_per_die) const;

  /// Record an issued activation (for the tRRD/tFAW windows).
  void note_activate(dram::Cycle now);

  [[nodiscard]] const PolicyConfig& config() const { return config_; }

 private:
  PolicyConfig config_;
  const dram::TimingParams* timing_;
  int max_active_per_die_;
  dram::Cycle last_activate_ = dram::kNever;
  std::array<dram::Cycle, 4> recent_activates_;  ///< ring of the last 4 ACT times
  std::size_t next_recent_ = 0;                  ///< ring slot of the next ACT
  /// IR-aware: admitted_[key * dies + die] is 1 iff an activation on `die`
  /// from the state with LUT key `key` is admitted (die count at the LUT's
  /// top: 0, allows() throws before reading it).
  std::vector<std::uint8_t> admitted_;
};

/// Order request-queue indices by scheduling priority, highest first, into
/// @p order (overwritten; a buffer the caller reuses across cycles).
/// @param queue the pending requests; @param active_per_die current counts.
void schedule_order(const std::vector<Request>& queue, SchedulingKind scheduling,
                    const std::vector<int>& active_per_die, std::vector<std::size_t>& order);

}  // namespace pdn3d::memctrl
