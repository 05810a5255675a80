#pragma once

/// @file eval_context.hpp
/// @brief Per-thread evaluation handle over a shared IrAnalyzer.
///
/// The ownership rule of the parallel sweep engine in one sentence: platform
/// and stack data (the StackModel, the conductance matrix, the IC(0) and
/// sparse Cholesky factors, the block rasterization) are immutable and
/// shared; everything a solve writes (assembled RHS, CG work vectors,
/// verification products, the sink-current buffer, telemetry tallies) lives
/// in an EvalContext owned by exactly one thread at a time.
///
/// The intended pattern over a ThreadPool:
///
///   EvalContext root(analyzer);
///   pool.parallel_chunks(n, [&](std::size_t c, std::size_t begin, std::size_t end) {
///     EvalContext ctx = root.fork();        // per-chunk scratch, shared analyzer
///     for (std::size_t i = begin; i < end; ++i) results[i] = ctx.analyze(states[i]);
///   });
///
/// fork() is cheap (no matrix or factor copies). Contexts are not
/// thread-safe themselves -- that is the point: all mutable state is
/// confined to one, so no solve-path locking is needed at all.

#include <cstddef>
#include <vector>

#include "irdrop/analysis.hpp"
#include "irdrop/solver.hpp"
#include "power/memory_state.hpp"

namespace pdn3d::irdrop {

class EvalContext {
 public:
  /// @param analyzer shared, immutable; must outlive the context.
  explicit EvalContext(const IrAnalyzer& analyzer) : analyzer_(&analyzer) {}

  /// A fresh context over the same analyzer with its own (empty) scratch and
  /// zeroed stats. Hand one to each worker chunk of a parallel sweep.
  [[nodiscard]] EvalContext fork() const { return EvalContext(*analyzer_); }

  /// Full IR analysis of one memory state, reusing this context's buffers.
  /// Throws core::NumericalError when every solver rung fails.
  [[nodiscard]] IrResult analyze(const power::MemoryState& state);

  /// Raw solve through this context's scratch (the non-analysis entry).
  [[nodiscard]] SolveOutcome solve(const SolveRequest& request);

  [[nodiscard]] const IrAnalyzer& analyzer() const { return *analyzer_; }

  /// Context-local solve telemetry, merged by the sweep owner in a
  /// deterministic (chunk-index) order after the region completes.
  struct Stats {
    std::size_t analyses = 0;
    std::size_t solves = 0;
    std::size_t escalations = 0;  ///< rung failures recovered by the ladder
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  const IrAnalyzer* analyzer_;  ///< shared, immutable
  SolveScratch scratch_;
  std::vector<double> sinks_;
  Stats stats_;
};

}  // namespace pdn3d::irdrop
