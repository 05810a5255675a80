#pragma once

/// @file montecarlo.hpp
/// @brief Monte Carlo IR-drop analysis over random memory states.
///
/// The paper evaluates worst-case states (edge-column banks). A designer
/// usually also wants the *distribution*: how much margin does the worst
/// case carry over typical operation? This sampler draws random states --
/// random active-die subsets, random bank locations per die -- and reports
/// IR-drop percentiles.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "irdrop/analysis.hpp"

namespace pdn3d::util {
class SweepCheckpoint;
}

namespace pdn3d::irdrop {

/// Samples a Monte Carlo prefix (MonteCarloConfig::prefix) keeps at most:
/// 32 KiB of doubles. A run past it solves the samples beyond it, as a run
/// without a prefix does, and keeps none of them.
inline constexpr std::size_t kMaxPrefixSamples = 4096;

struct MonteCarloConfig {
  int samples = 200;
  int max_banks_per_die = 2;  ///< charge-pump interleave limit
  /// Workload I/O demand (activity = min(1, demand / active dies)).
  double io_demand = 1.0;
  /// Probability a die has any active banks in a sample.
  double die_active_probability = 0.5;
  std::uint64_t seed = 0xd1ce5eedULL;
  /// Worker threads for the sweep; 0 = exec::default_thread_count(). Each
  /// sample draws from its own counter-derived RNG stream
  /// (util::Rng::split(seed, sample)), so the distribution -- and every
  /// reported statistic -- is bitwise identical at any thread count.
  int threads = 0;
  /// Optional crash-safe checkpoint (non-owning). Samples found in it are
  /// loaded instead of recomputed; freshly computed samples are recorded.
  /// Because each sample's RNG stream is independent, a resumed run is
  /// bitwise identical to an uninterrupted one (docs/ROBUSTNESS.md).
  util::SweepCheckpoint* checkpoint = nullptr;
  /// Optional verified prefix of this config's sample stream (non-owning):
  /// element s is the max DRAM IR drop (mV) of sample s, for samples 0 to
  /// size() - 1, all solved on the same analyzer under every field above
  /// but `samples`, `threads` and `checkpoint`. Its samples are replayed,
  /// never solved. After a run that did not throw, the prefix grows by the
  /// samples the run solved from its end up to the first skipped one, and
  /// never past kMaxPrefixSamples: a skipped sample is never kept, so a
  /// transient failure never replays into a later run. Runs on one prefix
  /// must not overlap (core::Platform holds its design's mutex).
  std::vector<double>* prefix = nullptr;
};

struct MonteCarloResult {
  int samples = 0;  ///< samples that produced a verified solve
  double mean_mv = 0.0;
  double p50_mv = 0.0;
  double p95_mv = 0.0;
  double p99_mv = 0.0;
  double max_mv = 0.0;  ///< worst sampled state (not the analytic worst case)

  // Numerical-health telemetry: states the solver could not handle are
  // skipped (and counted) instead of aborting the whole distribution run.
  int skipped_samples = 0;   ///< solves that exhausted the ladder
  std::string last_failure;  ///< reason of the most recent skip
};

/// Run the sampler. The analyzer's stack determines die/bank counts.
/// Samples are solved linalg::kSolveBlock per pool task
/// (IrAnalyzer::solve_block); each comes out as analyze() of its state alone,
/// whichever run or block solved it, so a run that replays samples from a
/// prefix or a checkpoint returns the same result, bit for bit, as one that
/// solves them all.
MonteCarloResult sample_ir_distribution(const IrAnalyzer& analyzer,
                                        const floorplan::DramFloorplanSpec& spec,
                                        const MonteCarloConfig& config = {});

/// The memory state of sample @p sample, drawn from its own stream
/// (util::Rng::split(config.seed, sample)) on a stack of @p dies DRAM dies
/// with @p banks banks each; never all idle.
power::MemoryState draw_sample(const MonteCarloConfig& config, std::size_t sample, int dies,
                               int banks);

}  // namespace pdn3d::irdrop
