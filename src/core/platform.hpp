#pragma once

/// @file platform.hpp
/// @brief The integrated CAD/architecture platform (Figure 2) -- the public
/// facade tying floorplanning, PDN generation, R-Mesh analysis, the memory
/// controller, and the co-optimizer together for one benchmark.

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/benchmarks.hpp"
#include "irdrop/analysis.hpp"
#include "irdrop/em.hpp"
#include "irdrop/lut.hpp"
#include "irdrop/montecarlo.hpp"
#include "memctrl/controller.hpp"
#include "opt/cooptimizer.hpp"

namespace pdn3d::core {

class Platform {
 public:
  explicit Platform(Benchmark benchmark);

  [[nodiscard]] const Benchmark& benchmark() const { return bench_; }

  /// Parse a memory-state string against this benchmark's die floorplan.
  [[nodiscard]] power::MemoryState parse_state(std::string_view text,
                                               double io_activity = -1.0) const;

  /// IR analysis of @p state on the design point @p config (cached analyzer).
  [[nodiscard]] irdrop::IrResult analyze(const pdn::PdnConfig& config,
                                         const power::MemoryState& state) const;
  [[nodiscard]] irdrop::IrResult analyze(const pdn::PdnConfig& config, std::string_view state,
                                         double io_activity = -1.0) const;

  /// Max DRAM IR drop (mV) of the benchmark's default memory state -- the
  /// quantity the paper's tables quote and the co-optimizer minimizes.
  /// Uncached (one-shot) so design-space sweeps do not accumulate memory:
  /// measure_ir_group() with one member.
  [[nodiscard]] double measure_ir_mv(const pdn::PdnConfig& config) const;

  /// measure_ir_mv() of every config of a usage group (configs equal except
  /// for M2/M3 usage): each member's stack is built, validated and assembled
  /// on the group's shared mesh structure, and the members' IC-PCG solves
  /// run three at a time in lockstep (irdrop::IrSolver::solve_lanes). out[i]
  /// is measure_ir_mv(configs[i]) bit for bit, or holds the
  /// core::NumericalError / core::ValidationError it throws; a cancellation
  /// propagates. Only the members in flight are alive at once. @p scratch
  /// is one sweep chunk's, reused across the group.
  void measure_ir_group(std::span<const pdn::PdnConfig> configs,
                        std::span<opt::Measurement> out, irdrop::LaneScratch& scratch) const;

  /// Electromigration analysis of @p state on the design point @p config:
  /// one analyze() of the state on the cached analyzer, whose node voltages
  /// the irdrop::em_check post-solve pass then reads against this
  /// benchmark's technology. @p on_ir, when given, receives that solve's IR
  /// statistics before the EM pass runs, so a caller can write them out
  /// before an EM failure propagates; it must not solve on this thread,
  /// whose workspace holds the voltages.
  [[nodiscard]] irdrop::EmReport em_check(
      const pdn::PdnConfig& config, const power::MemoryState& state,
      const irdrop::EmOptions& options = {},
      const std::function<void(const irdrop::IrResult&)>& on_ir = {}) const;

  /// One-shot EM check of the benchmark's default memory state -- the
  /// co-optimizer's hard-constraint probe. Uncached like measure_ir_mv, so
  /// design-space sweeps do not accumulate memory.
  [[nodiscard]] irdrop::EmReport measure_em(const pdn::PdnConfig& config,
                                            const irdrop::EmOptions& options = {}) const;

  /// This benchmark's power configuration for an irdrop::IrAnalyzer built
  /// outside the design cache.
  [[nodiscard]] irdrop::PowerBinding power_binding() const;

  /// Build info (TSV placement diagnostics) for a config.
  [[nodiscard]] pdn::BuildInfo build_info(const pdn::PdnConfig& config) const;

  /// Complementary two-rail analysis (the paper analyzes VDD and notes the
  /// ground net "can be analyzed in complementary fashion"). The VSS grid is
  /// modeled as a mirrored network whose metal budget may differ by
  /// @p vss_metal_scale; the combined figure adds VDD droop and VSS bounce at
  /// the worst location (pessimistic colocation).
  struct RailPairResult {
    irdrop::IrResult vdd;
    irdrop::IrResult vss;
    double combined_worst_mv = 0.0;
  };
  [[nodiscard]] RailPairResult analyze_rail_pair(const pdn::PdnConfig& config,
                                                 const power::MemoryState& state,
                                                 double vss_metal_scale = 1.0) const;

  /// IR look-up table over memory states (cached per config).
  [[nodiscard]] const irdrop::IrLut& lut(const pdn::PdnConfig& config) const;

  /// Monte Carlo IR distribution of @p samples samples on the design point
  /// @p config: irdrop::sample_ir_distribution of the default
  /// irdrop::MonteCarloConfig on the cached analyzer, through the design's
  /// prefix (MonteCarloConfig::prefix). Samples the prefix holds replay,
  /// the rest are solved, and the prefix keeps the verified ones, up to
  /// irdrop::kMaxPrefixSamples. Runs on one design take turns, so no sample
  /// is solved twice; the result is bit for bit a run without the prefix.
  [[nodiscard]] irdrop::MonteCarloResult montecarlo(const pdn::PdnConfig& config,
                                                    int samples) const;

  /// The cached design's analyzer (built with the many-solves sparse-direct
  /// hint). Valid for the Platform's lifetime; safe for concurrent const use.
  [[nodiscard]] const irdrop::IrAnalyzer& analyzer(const pdn::PdnConfig& config) const;

  /// Run the memory-controller simulation on this benchmark's workload with
  /// the given policy. The LUT for @p config is built (or fetched) first.
  [[nodiscard]] memctrl::SimResult simulate(const pdn::PdnConfig& config,
                                            memctrl::PolicyConfig policy) const;

  /// Same, but replaying an explicit request stream (e.g. a trace).
  [[nodiscard]] memctrl::SimResult simulate(const pdn::PdnConfig& config,
                                            memctrl::PolicyConfig policy,
                                            std::vector<memctrl::Request> requests) const;

  /// Co-optimizer bound to this benchmark's design space + R-Mesh evaluator
  /// (a PlatformEvaluator). @p threads = 0 resolves
  /// exec::default_thread_count() for the sampling sweep.
  [[nodiscard]] opt::CoOptimizer make_cooptimizer(int threads = 0) const;

  /// Number of distinct design points currently cached.
  [[nodiscard]] std::size_t cache_size() const {
    const std::shared_lock<std::shared_mutex> lock(cache_mutex_);
    return cache_.size();
  }

 private:
  struct CachedDesign {
    pdn::BuiltStack built;
    std::unique_ptr<irdrop::IrAnalyzer> analyzer;
    std::mutex lut_mutex;  ///< guards the lazy LUT build below
    std::unique_ptr<irdrop::IrLut> lut;
    std::mutex montecarlo_mutex;  ///< held for a whole montecarlo() run
    std::vector<double> montecarlo_prefix;  ///< the default stream's verified prefix
  };

  [[nodiscard]] std::string cache_key(const pdn::PdnConfig& config) const;
  [[nodiscard]] CachedDesign& design(const pdn::PdnConfig& config) const;

  Benchmark bench_;
  /// Guards cache_ only. CachedDesign entries are heap-allocated, so the
  /// references design() hands out stay valid while the map grows; the
  /// analyzer inside is safe for concurrent const use by construction.
  mutable std::shared_mutex cache_mutex_;
  mutable std::map<std::string, std::unique_ptr<CachedDesign>> cache_;
};

/// opt::Evaluator over a Platform's one-shot R-Mesh measurement. fork()ed
/// siblings share the (const) platform; each holds its own lane scratch and
/// the measurements build and discard everything else per call, so siblings
/// never contend on mutable state.
class PlatformEvaluator final : public opt::Evaluator {
 public:
  /// @param platform must outlive the evaluator and all of its forks.
  explicit PlatformEvaluator(const Platform& platform) : platform_(&platform) {}
  [[nodiscard]] double measure(const pdn::PdnConfig& config) override {
    return platform_->measure_ir_mv(config);
  }
  void measure_group(std::span<const pdn::PdnConfig> configs,
                     std::span<opt::Measurement> out) override {
    platform_->measure_ir_group(configs, out, scratch_);
  }
  [[nodiscard]] std::unique_ptr<opt::Evaluator> fork() const override {
    return std::make_unique<PlatformEvaluator>(*platform_);
  }

 private:
  const Platform* platform_;
  irdrop::LaneScratch scratch_;
};

}  // namespace pdn3d::core
