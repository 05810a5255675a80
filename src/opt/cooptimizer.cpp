#include "opt/cooptimizer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>

#include "core/status.hpp"
#include "cost/cost_model.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/checkpoint.hpp"
#include "util/log.hpp"

namespace pdn3d::opt {

namespace {

/// The sweep's chunks: indices of configs equal except for m2_usage and
/// m3_usage, groups in order of first appearance and members in index
/// order. Such points share their mesh structure, so an evaluator can build
/// it once per group (Evaluator::measure_group). The boundaries depend only
/// on the configs, never on the thread count.
std::vector<std::vector<std::size_t>> usage_groups(std::span<const pdn::PdnConfig> configs) {
  const auto key = [](pdn::PdnConfig c) {
    c.m2_usage = 0.0;
    c.m3_usage = 0.0;
    return c;
  };
  std::vector<pdn::PdnConfig> keys;
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const pdn::PdnConfig k = key(configs[i]);
    const auto it = std::find(keys.begin(), keys.end(), k);
    if (it == keys.end()) {
      keys.push_back(k);
      groups.push_back({i});
    } else {
      groups[static_cast<std::size_t>(it - keys.begin())].push_back(i);
    }
  }
  return groups;
}

/// The first minimum of IR-cost at @p alpha (strict <, in enumeration order)
/// over one fitted choice's fine grid of the continuous box, evaluated on
/// its cheap model and skipping @p banned winners. The objective stays at
/// max() when no grid point qualifies.
Optimum best_on_grid(const DesignSpace& space, const FittedChoice& fc, double alpha,
                     const std::set<std::string>& banned) {
  constexpr int kM2Steps = 11;
  constexpr int kM3Steps = 31;
  Optimum best;
  best.objective = std::numeric_limits<double>::max();
  const int tc_lo = space.effective_tc_min();
  const int tc_hi = space.effective_tc_max();
  const int tc_step = std::max(1, (tc_hi - tc_lo) / 156);
  for (int i = 0; i < kM2Steps; ++i) {
    const double m2 = space.m2_min + (space.m2_max - space.m2_min) * i / double(kM2Steps - 1);
    for (int j = 0; j < kM3Steps; ++j) {
      const double m3 = space.m3_min + (space.m3_max - space.m3_min) * j / double(kM3Steps - 1);
      for (int tc = tc_lo; tc <= tc_hi; tc += tc_step) {
        const double ir = fc.model.predict({m2, m3, static_cast<double>(tc)});
        if (ir <= 0.0) continue;  // extrapolation artifact; physical IR > 0
        const auto cfg = make_config(space, fc.choice, m2, m3, tc);
        if (!banned.empty() && banned.count(cfg.summary()) > 0) continue;
        const double c = cost::total_cost(cfg);
        const double obj = cost::ir_cost(ir, c, alpha);
        if (obj < best.objective) {
          best.objective = obj;
          best.config = cfg;
          best.predicted_ir_mv = ir;
          best.cost = c;
        }
      }
    }
  }
  return best;
}

}  // namespace

void Evaluator::measure_group(std::span<const pdn::PdnConfig> configs,
                              std::span<Measurement> out) {
  for (std::size_t i = 0; i < configs.size(); ++i) {
    try {
      out[i] = {measure(configs[i]), nullptr};
    } catch (const core::NumericalError& e) {
      if (e.status().code() == core::StatusCode::kCancelled) throw;
      out[i] = {0.0, std::current_exception()};
    } catch (const core::ValidationError&) {
      out[i] = {0.0, std::current_exception()};
    }
  }
}

CoOptimizer::CoOptimizer(DesignSpace space, std::unique_ptr<Evaluator> evaluate, int threads)
    : space_(std::move(space)), evaluate_(std::move(evaluate)), threads_(threads) {
  if (!evaluate_) throw std::invalid_argument("CoOptimizer: evaluator required");
  if (threads_ < 0) throw std::invalid_argument("CoOptimizer: threads must be >= 0");
}

std::vector<CoOptimizer::PointResult> CoOptimizer::evaluate_batch(
    const std::vector<pdn::PdnConfig>& configs) {
  PDN3D_TRACE_SPAN("cooptimize/evaluate_batch");
  std::vector<PointResult> results(configs.size());
  // Checkpoint indices are the global running measurement count: the sweep
  // enumerates points deterministically, so index base+i names the same
  // config in the original and the resumed run.
  const std::uint64_t base = static_cast<std::uint64_t>(total_samples_);
  // Announce the batch before any fork, off the deterministic first config,
  // so whatever an evaluator records per sweep is independent of scheduling.
  if (!configs.empty()) evaluate_->hint_sweep(configs.front(), configs.size());
  // One usage group per chunk, claimed on demand: the default sweep's groups
  // are 3 x 3 points (2 when densifying), small enough to keep every worker
  // busy to the end of a batch whose points differ severalfold in cost.
  const std::vector<std::vector<std::size_t>> groups = usage_groups(configs);
  exec::ThreadPool pool(static_cast<std::size_t>(threads_));
  pool.parallel_for(groups.size(), [&](std::size_t g) {
    const std::unique_ptr<Evaluator> ev = evaluate_->fork();
    measure_group(*ev, configs, groups[g], base, results);
  });

  // Bookkeeping after the region completes, in index order: skipped_ and the
  // counters come out identical at any thread count.
  account(configs, results);
  return results;
}

void CoOptimizer::measure_group(Evaluator& ev, std::span<const pdn::PdnConfig> configs,
                                std::span<const std::size_t> members, std::uint64_t base,
                                std::span<PointResult> results) const {
  PDN3D_TRACE_SPAN("cooptimize/solve_group");
  static auto& m_groups = obs::counter("cooptimizer.groups_evaluated");
  m_groups.add(1);
  // A point already in the checkpoint is replayed and leaves its group; the
  // group's points are independent, so the rest measure to the same bits.
  std::vector<std::size_t> todo;
  std::vector<pdn::PdnConfig> pending;
  for (const std::size_t i : members) {
    const util::CheckpointEntry* entry =
        checkpoint_ != nullptr ? checkpoint_->find(base + i) : nullptr;
    if (entry != nullptr) {
      results[i] = {entry->ok, entry->value, entry->message};
      continue;
    }
    todo.push_back(i);
    pending.push_back(configs[i]);
  }
  if (todo.empty()) return;
  std::vector<Measurement> measured(todo.size());
  ev.measure_group(pending, measured);
  for (std::size_t j = 0; j < todo.size(); ++j) {
    const PointResult r = to_point(measured[j]);
    results[todo[j]] = r;
    if (checkpoint_ != nullptr) checkpoint_->record(base + todo[j], {r.ok, r.ir_mv, r.reason});
  }
}

CoOptimizer::PointResult CoOptimizer::to_point(const Measurement& m) {
  if (!m.error) return {true, m.ir_mv, {}};
  try {
    std::rethrow_exception(m.error);
  } catch (const core::NumericalError& e) {
    return {false, 0.0, e.status().to_string()};
  } catch (const core::ValidationError& e) {
    return {false, 0.0, e.report().to_status().to_string()};
  }
}

void CoOptimizer::account(std::span<const pdn::PdnConfig> configs,
                          std::span<const PointResult> results) {
  static auto& m_evaluated = obs::counter("cooptimizer.points_evaluated");
  static auto& m_skipped = obs::counter("cooptimizer.points_skipped");
  total_samples_ += configs.size();
  m_evaluated.add(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (results[i].ok) continue;
    skipped_.push_back({configs[i], results[i].reason});
    m_skipped.add(1);
    util::log_warn("co-optimizer: skipping unsolvable point ", configs[i].summary(), " -- ",
                   results[i].reason);
  }
}

std::string CoOptimizer::check_constraint(const pdn::PdnConfig& config) {
  if (!constraint_) return {};
  PDN3D_TRACE_SPAN("cooptimize/check_constraint");
  try {
    return constraint_(config);
  } catch (const core::NumericalError& e) {
    if (e.status().code() == core::StatusCode::kCancelled) throw;
    return e.status().to_string();
  } catch (const core::ValidationError& e) {
    return e.report().to_status().to_string();
  }
}

const std::vector<FittedChoice>& CoOptimizer::fit_models() {
  if (fitted_) return fits_;

  PDN3D_TRACE_SPAN("cooptimize/fit_models");
  const auto choices = enumerate_choices(space_);
  const auto m2s = default_m2_samples(space_);
  const auto m3s = default_m3_samples(space_);
  const auto tcs = default_tc_samples(space_);

  // One discrete choice's pending sample points and its solvable samples.
  struct ChoiceSweep {
    std::vector<pdn::PdnConfig> configs;
    std::vector<fit::Sample> samples;
  };
  std::vector<ChoiceSweep> sweeps(choices.size());
  const auto set_points = [&](std::size_t k, std::span<const double> m2_axis,
                              std::span<const double> m3_axis) {
    std::vector<pdn::PdnConfig>& configs = sweeps[k].configs;
    configs.clear();
    for (const double m2 : m2_axis) {
      for (const double m3 : m3_axis) {
        for (const int tc : tcs) configs.push_back(make_config(space_, choices[k], m2, m3, tc));
      }
    }
  };
  // The sampling sweep is the expensive phase (one R-Mesh build + solve per
  // point). The listed choices' points go through one evaluate_batch -- one
  // pool region -- in choice order, so a point's checkpoint index is its
  // position in that flat enumeration; samples and fits keep choice order.
  const auto measure = [&](std::span<const std::size_t> which) {
    std::vector<pdn::PdnConfig> batch;
    for (const std::size_t k : which) {
      batch.insert(batch.end(), sweeps[k].configs.begin(), sweeps[k].configs.end());
    }
    const std::vector<PointResult> results = evaluate_batch(batch);
    std::size_t at = 0;
    for (const std::size_t k : which) {
      for (const pdn::PdnConfig& cfg : sweeps[k].configs) {
        const PointResult& r = results[at++];
        if (!r.ok) continue;
        fit::Sample s;
        s.vars = {cfg.m2_usage, cfg.m3_usage, static_cast<double>(cfg.tsv_count)};
        s.ir_mv = r.ir_mv;
        sweeps[k].samples.push_back(s);
      }
    }
  };

  std::vector<std::size_t> every(choices.size());
  for (std::size_t k = 0; k < choices.size(); ++k) {
    every[k] = k;
    set_points(k, m2s, m3s);
  }
  measure(every);

  // TC-fixed spaces can produce fewer samples than features (and skipped
  // unsolvable points shrink the set further); densify the usage axes of the
  // starved choices, all in one more batch behind the grids.
  const std::array<double, 1> m2_dense = {(space_.m2_min + space_.m2_max) * 0.5};
  const std::array<double, 2> m3_dense = {space_.m3_min + 0.25 * (space_.m3_max - space_.m3_min),
                                          space_.m3_min + 0.75 * (space_.m3_max - space_.m3_min)};
  std::vector<std::size_t> starved;
  for (std::size_t k = 0; k < choices.size(); ++k) {
    if (sweeps[k].samples.size() >= fit::ir_feature_count()) continue;
    starved.push_back(k);
    set_points(k, m2_dense, m3_dense);
  }
  if (!starved.empty()) measure(starved);

  fits_.clear();
  fits_.reserve(choices.size());
  for (std::size_t k = 0; k < choices.size(); ++k) {
    const DiscreteChoice& choice = choices[k];
    const std::vector<fit::Sample>& samples = sweeps[k].samples;
    if (samples.size() < fit::ir_feature_count()) {
      // Not enough solvable samples to constrain the regression: skip the
      // whole discrete choice rather than fit an underdetermined model.
      util::log_warn("co-optimizer: dropping choice TL=", to_string(choice.tsv_location),
                     " BD=", to_string(choice.bonding),
                     " -- only ", samples.size(), " solvable sample(s)");
      continue;
    }
    FittedChoice fc;
    fc.choice = choice;
    fc.sample_count = samples.size();
    fc.model = fit::IrModel::fit(samples);
    util::log_info("fitted choice TL=", to_string(choice.tsv_location),
                   " TD=", choice.dedicated ? "Y" : "N", " BD=", to_string(choice.bonding),
                   " RL=", to_string(choice.rdl), " WB=", choice.wire_bonding ? "Y" : "N",
                   " rmse=", fc.model.rmse(), " r2=", fc.model.r_squared());
    fits_.push_back(std::move(fc));
  }
  if (fits_.empty()) {
    throw core::NumericalError(core::Status::numerical_failure(
        "co-optimizer: no discrete choice had enough solvable sample points (" +
        std::to_string(skipped_.size()) + " skipped)"));
  }
  fitted_ = true;
  if (checkpoint_ != nullptr) checkpoint_->flush();
  obs::gauge("cooptimizer.fit_worst_rmse_mv").set(worst_rmse());
  obs::gauge("cooptimizer.fit_worst_r_squared").set(worst_r_squared());
  obs::gauge("cooptimizer.fitted_choices").set(static_cast<double>(fits_.size()));
  return fits_;
}

Optimum CoOptimizer::optimize(double alpha) {
  if (alpha < 0.0 || alpha > 1.0) throw std::invalid_argument("CoOptimizer: alpha outside [0,1]");
  fit_models();

  PDN3D_TRACE_SPAN("cooptimize/optimize");
  static auto& m_banned = obs::counter("cooptimizer.points_banned");
  static auto& m_constrained = obs::counter("cooptimizer.points_constrained");

  // Winners whose R-Mesh re-measurement failed; excluded from later rounds so
  // the sweep returns the best point among the remaining candidates.
  std::set<std::string> banned;
  constexpr int kMaxRemeasureRetries = 8;

  exec::ThreadPool pool(static_cast<std::size_t>(threads_));
  for (int round = 0; round <= kMaxRemeasureRetries; ++round) {
    // Each fitted choice's grid is scored in one pool region. Merging the
    // per-choice first minima in choice order with the same strict < keeps
    // the serial scan's winner at any thread count.
    const std::vector<Optimum> per_choice = pool.parallel_map(
        fits_.size(), [&](std::size_t k) { return best_on_grid(space_, fits_[k], alpha, banned); });
    Optimum best;
    best.objective = std::numeric_limits<double>::max();
    for (const Optimum& candidate : per_choice) {
      if (candidate.objective < best.objective) best = candidate;
    }

    if (best.objective == std::numeric_limits<double>::max()) {
      throw std::runtime_error("CoOptimizer: empty design space");
    }
    // Re-measure the winner alone: off the pool and with no hint_sweep(), so
    // an evaluator that accounts per sweep keeps this point out of the sweeps.
    PointResult measured;
    const std::size_t only = 0;
    measure_group(*evaluate_, {&best.config, 1}, {&only, 1}, total_samples_, {&measured, 1});
    account({&best.config, 1}, {&measured, 1});
    if (measured.ok) {
      best.measured_ir_mv = measured.ir_mv;
      const std::string rejection = check_constraint(best.config);
      if (rejection.empty()) {
        if (checkpoint_ != nullptr) checkpoint_->flush();
        return best;
      }
      skipped_.push_back({best.config, rejection, SkippedPoint::Kind::kConstraint});
      m_constrained.add(1);
      util::log_warn("co-optimizer: constraint rejects optimum ", best.config.summary(), " -- ",
                     rejection);
    }
    banned.insert(best.config.summary());
    m_banned.add(1);
  }
  throw core::NumericalError(core::Status::numerical_failure(
      "co-optimizer: every candidate optimum failed R-Mesh re-measurement or a hard constraint"));
}

double CoOptimizer::worst_rmse() const {
  double w = 0.0;
  for (const auto& fc : fits_) w = std::max(w, fc.model.rmse());
  return w;
}

double CoOptimizer::worst_r_squared() const {
  double w = 1.0;
  for (const auto& fc : fits_) w = std::min(w, fc.model.r_squared());
  return w;
}

}  // namespace pdn3d::opt
