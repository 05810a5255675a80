#pragma once

/// @file cooptimizer.hpp
/// @brief Cross-domain co-optimization (Section 6).
///
/// The paper's flow: sample the continuous variables per discrete option
/// combination, run the R-Mesh on the samples, fit a regression model
/// (replacing 4637 hours of brute force with ~10), then globally optimize
/// IR-cost = IR^alpha * Cost^(1-alpha). We reproduce exactly that:
/// exhaustive enumeration of discrete choices x a fine grid sweep on the
/// fitted models, re-measuring the winner with the R-Mesh (Table 9 reports
/// both the model's and the R-Mesh's IR drop for the optimum).

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fit/regression.hpp"
#include "opt/design_space.hpp"
#include "pdn/pdn_config.hpp"

namespace pdn3d::util {
class SweepCheckpoint;
}

namespace pdn3d::opt {

/// One point of Evaluator::measure_group(): the IR drop, or the error
/// measure() throws for the point.
struct Measurement {
  double ir_mv = 0.0;
  std::exception_ptr error;  ///< a core::NumericalError or core::ValidationError
};

/// Measures the true IR drop of design configurations with the R-Mesh
/// engine. The co-optimizer parallelizes its sample sweep by fork()ing one
/// evaluator per worker chunk: measure() may keep per-instance scratch
/// without any locking, as long as fork()ed siblings are independent (shared
/// data immutable or internally synchronized -- the canonical layering is the
/// LUT and Monte Carlo sweeps' one irdrop::SolveWorkspace per thread over a
/// shared IrAnalyzer).
class Evaluator {
 public:
  virtual ~Evaluator() = default;

  /// True IR drop (mV) of @p config. May throw core::NumericalError or
  /// core::ValidationError to signal an unsolvable/degenerate design point;
  /// the optimizer records the point (see skipped_points()) and continues
  /// instead of aborting the sweep.
  [[nodiscard]] virtual double measure(const pdn::PdnConfig& config) = 0;

  /// measure() over a usage group -- configs equal except for m2_usage and
  /// m3_usage, the sweep's unit of work. out[i] must be measure(configs[i])
  /// bit for bit, or hold the core::NumericalError / core::ValidationError it
  /// throws; a cancellation or any other error propagates. The default calls
  /// measure() per point; an evaluator that shares work across the group
  /// (core::PlatformEvaluator) overrides it.
  virtual void measure_group(std::span<const pdn::PdnConfig> configs, std::span<Measurement> out);

  /// Sweep announcement, called once (on the root evaluator, before any
  /// fork) per batch of sibling design points: @p representative is the
  /// batch's first config in deterministic enumeration order and
  /// @p expected_points its size. Evaluators that account per sweep (e.g.
  /// a tracing evaluator opening one span per batch) hook it; the default is
  /// a no-op. Measurements must return the same values whether or not the
  /// announcement was delivered.
  virtual void hint_sweep(const pdn::PdnConfig& representative, std::size_t expected_points) {
    (void)representative;
    (void)expected_points;
  }

  /// A sibling safe to run concurrently with this one. Forks inherit any
  /// hint_sweep() state delivered to their parent.
  [[nodiscard]] virtual std::unique_ptr<Evaluator> fork() const = 0;
};

/// Adapter over a free callback. fork() copies the callback, so it must be
/// self-contained or internally synchronized to benefit from threads (a copy
/// of a lambda shares whatever it captured by reference).
class FunctionEvaluator final : public Evaluator {
 public:
  explicit FunctionEvaluator(std::function<double(const pdn::PdnConfig&)> fn)
      : fn_(std::move(fn)) {}
  [[nodiscard]] double measure(const pdn::PdnConfig& config) override { return fn_(config); }
  [[nodiscard]] std::unique_ptr<Evaluator> fork() const override {
    return std::make_unique<FunctionEvaluator>(fn_);
  }

 private:
  std::function<double(const pdn::PdnConfig&)> fn_;
};

/// A design point the sweep could not accept, with its structured reason.
struct SkippedPoint {
  /// Why the point was excluded: the R-Mesh could not solve it, or a hard
  /// constraint (e.g. an EM current-density limit) rejected its measurement.
  enum class Kind { kSolveFailure, kConstraint };

  pdn::PdnConfig config;
  std::string reason;
  Kind kind = Kind::kSolveFailure;
};

struct FittedChoice {
  DiscreteChoice choice;
  fit::IrModel model;
  std::size_t sample_count = 0;
};

struct Optimum {
  pdn::PdnConfig config;
  double predicted_ir_mv = 0.0;  ///< regression model (paper's "Matlab" column)
  double measured_ir_mv = 0.0;   ///< R-Mesh re-measurement
  double cost = 0.0;
  double objective = 0.0;  ///< IR-cost at the requested alpha
};

class CoOptimizer {
 public:
  /// @param threads workers for the sampling sweep and the model grid
  /// search; 0 = exec::default_thread_count(). Sampling results,
  /// skipped-point order, fits, and the optimum are identical at any thread
  /// count.
  CoOptimizer(DesignSpace space, std::unique_ptr<Evaluator> evaluate, int threads = 0);

  /// Phase 1: run the R-Mesh on the sample grid of every discrete choice and
  /// fit the per-choice regression models. Returns the fits (also cached
  /// internally). Idempotent. Every choice's grid is measured as one batch in
  /// enumeration order; a choice left with too few solvable samples gets
  /// extra usage points in one more batch behind the grids.
  const std::vector<FittedChoice>& fit_models();

  /// Phase 2: minimize IR-cost at @p alpha over the whole space using the
  /// fitted models (one choice per pool task, merged in choice order), then
  /// re-measure the winner. fit_models() is called on demand.
  Optimum optimize(double alpha);

  /// Worst regression quality across choices (paper: RMSE < 0.135,
  /// R^2 > 0.999).
  [[nodiscard]] double worst_rmse() const;
  [[nodiscard]] double worst_r_squared() const;

  [[nodiscard]] std::size_t total_samples() const { return total_samples_; }
  [[nodiscard]] const DesignSpace& space() const { return space_; }

  /// Design points the R-Mesh could not solve during sampling or winner
  /// re-measurement, with their failure reasons. The sweep completes and
  /// optimizes over the remaining candidates.
  [[nodiscard]] const std::vector<SkippedPoint>& skipped_points() const { return skipped_; }

  /// A hard constraint on candidate optima: returns an empty string when
  /// @p config is acceptable, a human-readable reason otherwise. Checked
  /// after the winner's successful R-Mesh re-measurement; a rejected winner
  /// is recorded as a SkippedPoint (Kind::kConstraint), banned, and the
  /// search continues with the next-best candidate -- so optimize() never
  /// returns a constraint-violating optimum. May throw core::NumericalError /
  /// core::ValidationError, treated like a re-measurement failure.
  using Constraint = std::function<std::string(const pdn::PdnConfig&)>;

  /// Attach (or clear, with nullptr) the hard constraint above.
  void set_constraint(Constraint constraint) { constraint_ = std::move(constraint); }

  /// Attach a crash-safe checkpoint (non-owning; must outlive the optimizer).
  /// Measurements are keyed by their global running index -- the grids in
  /// enumeration order, then the densified choices' extra points, then the
  /// re-measured winners. The sweep order is deterministic, so a resumed
  /// fit/optimize replays recorded measurements and recomputes only the
  /// missing tail, bitwise identical to an uninterrupted run. Attach before
  /// the first fit_models()/optimize() call.
  void set_checkpoint(util::SweepCheckpoint* checkpoint) { checkpoint_ = checkpoint; }

 private:
  struct PointResult {
    bool ok = false;
    double ir_mv = 0.0;
    std::string reason;  ///< structured failure when !ok
  };

  /// A measurement as the sweep records it, with the structured reason of a
  /// solver or validation failure.
  static PointResult to_point(const Measurement& m);

  /// Measure every config in one pool region, one usage group (see
  /// usage_groups()) per chunk, handed out on demand with one fork()ed
  /// evaluator each. Results come back in input order; skipped-point
  /// bookkeeping happens afterwards in index order, so the sweep's
  /// observable state is independent of the thread count.
  std::vector<PointResult> evaluate_batch(const std::vector<pdn::PdnConfig>& configs);

  /// Measure configs[i] for every i in @p members (one usage group) on
  /// @p ev into results[i]: replays the checkpoint entry at running index
  /// base + i when there is one, measures the rest as one group and records
  /// them. A solver or validation failure comes back as !ok; a cancellation
  /// throws. Safe to call concurrently with distinct evaluators.
  void measure_group(Evaluator& ev, std::span<const pdn::PdnConfig> configs,
                     std::span<const std::size_t> members, std::uint64_t base,
                     std::span<PointResult> results) const;

  /// The in-order bookkeeping of measured points: advances the running
  /// measurement count and records and warns about every failure as a
  /// SkippedPoint.
  void account(std::span<const pdn::PdnConfig> configs, std::span<const PointResult> results);

  /// Run the attached constraint on a re-measured winner. Empty = accepted;
  /// a thrown solver/validation error reads as a rejection reason.
  std::string check_constraint(const pdn::PdnConfig& config);

  DesignSpace space_;
  std::unique_ptr<Evaluator> evaluate_;
  int threads_ = 0;
  Constraint constraint_;
  util::SweepCheckpoint* checkpoint_ = nullptr;
  std::vector<FittedChoice> fits_;
  std::vector<SkippedPoint> skipped_;
  std::size_t total_samples_ = 0;
  bool fitted_ = false;
};

}  // namespace pdn3d::opt
