#include "opt/cooptimizer.hpp"

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

CoOptimizer::CoOptimizer(DesignSpace space, std::unique_ptr<Evaluator> evaluate, int threads)
    : space_(std::move(space)), evaluate_(std::move(evaluate)), threads_(threads) {
  if (!evaluate_) throw std::invalid_argument("CoOptimizer: evaluator required");
  if (threads_ < 0) throw std::invalid_argument("CoOptimizer: threads must be >= 0");
}

std::vector<CoOptimizer::PointResult> CoOptimizer::evaluate_batch(
    const std::vector<pdn::PdnConfig>& configs) {
  PDN3D_TRACE_SPAN("cooptimize/evaluate_batch");
  static auto& m_evaluated = obs::counter("cooptimizer.points_evaluated");
  static auto& m_skipped = obs::counter("cooptimizer.points_skipped");

  std::vector<PointResult> results(configs.size());
  // Checkpoint indices are the global running measurement count: the sweep
  // enumerates points deterministically, so index base+i names the same
  // config in the original and the resumed run.
  const std::uint64_t base = static_cast<std::uint64_t>(total_samples_);
  // Announce the batch before any fork, off the deterministic first config,
  // so whatever an evaluator records per sweep is independent of scheduling.
  if (!configs.empty()) evaluate_->hint_sweep(configs.front(), configs.size());
  exec::ThreadPool pool(static_cast<std::size_t>(threads_));
  pool.parallel_chunks(configs.size(), [&](std::size_t, std::size_t begin, std::size_t end) {
    const std::unique_ptr<Evaluator> ev = evaluate_->fork();
    for (std::size_t i = begin; i < end; ++i) {
      PDN3D_TRACE_SPAN("cooptimize/solve_point");
      PointResult& r = results[i];
      if (checkpoint_ != nullptr) {
        if (const util::CheckpointEntry* entry = checkpoint_->find(base + i)) {
          r.ok = entry->ok;
          r.ir_mv = entry->value;
          r.reason = entry->message;
          continue;
        }
      }
      try {
        r.ir_mv = ev->measure(configs[i]);
        r.ok = true;
      } catch (const core::NumericalError& e) {
        if (e.status().code() == core::StatusCode::kCancelled) throw;
        r.reason = e.status().to_string();
      } catch (const core::ValidationError& e) {
        r.reason = e.report().to_status().to_string();
      }
      if (checkpoint_ != nullptr) checkpoint_->record(base + i, {r.ok, r.ir_mv, r.reason});
    }
  });

  // Bookkeeping after the region completes, in index order: skipped_ and the
  // counters come out identical at any thread count.
  total_samples_ += configs.size();
  m_evaluated.add(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (results[i].ok) continue;
    skipped_.push_back({configs[i], results[i].reason});
    m_skipped.add(1);
    util::log_warn("co-optimizer: skipping unsolvable point ", configs[i].summary(), " -- ",
                   results[i].reason);
  }
  return results;
}

bool CoOptimizer::sample_point(const pdn::PdnConfig& config, double* ir_mv) {
  PDN3D_TRACE_SPAN("cooptimize/solve_point");
  static auto& m_evaluated = obs::counter("cooptimizer.points_evaluated");
  static auto& m_skipped = obs::counter("cooptimizer.points_skipped");
  const std::uint64_t index = static_cast<std::uint64_t>(total_samples_);
  ++total_samples_;
  m_evaluated.add(1);
  if (checkpoint_ != nullptr) {
    if (const util::CheckpointEntry* entry = checkpoint_->find(index)) {
      if (entry->ok) {
        *ir_mv = entry->value;
        return true;
      }
      skipped_.push_back({config, entry->message});
      m_skipped.add(1);
      return false;
    }
  }
  try {
    *ir_mv = evaluate_->measure(config);
    if (checkpoint_ != nullptr) checkpoint_->record(index, {true, *ir_mv, {}});
    return true;
  } catch (const core::NumericalError& e) {
    if (e.status().code() == core::StatusCode::kCancelled) throw;
    skipped_.push_back({config, e.status().to_string()});
  } catch (const core::ValidationError& e) {
    skipped_.push_back({config, e.report().to_status().to_string()});
  }
  if (checkpoint_ != nullptr) checkpoint_->record(index, {false, 0.0, skipped_.back().reason});
  m_skipped.add(1);
  util::log_warn("co-optimizer: skipping unsolvable point ", config.summary(), " -- ",
                 skipped_.back().reason);
  return false;
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

  // The sampling sweep is the expensive phase (one R-Mesh build + solve per
  // point); each discrete choice's grid goes through evaluate_batch so the
  // points run across the pool while samples/fits keep their serial order.
  fits_.clear();
  fits_.reserve(choices.size());
  for (const auto& choice : choices) {
    std::vector<pdn::PdnConfig> configs;
    std::vector<std::array<double, 2>> usages;  ///< (m2, m3) per config
    configs.reserve(m2s.size() * m3s.size() * tcs.size());
    usages.reserve(configs.capacity());
    for (const double m2 : m2s) {
      for (const double m3 : m3s) {
        for (const int tc : tcs) {
          configs.push_back(make_config(space_, choice, m2, m3, tc));
          usages.push_back({m2, m3});
        }
      }
    }
    std::vector<PointResult> results = evaluate_batch(configs);

    std::vector<fit::Sample> samples;
    samples.reserve(configs.size());
    const auto collect = [&] {
      for (std::size_t i = 0; i < configs.size(); ++i) {
        if (!results[i].ok) continue;
        fit::Sample s;
        s.vars = {usages[i][0], usages[i][1], static_cast<double>(configs[i].tsv_count)};
        s.ir_mv = results[i].ir_mv;
        samples.push_back(s);
      }
    };
    collect();
    if (samples.size() < fit::ir_feature_count()) {
      // TC-fixed spaces can produce fewer samples than features (and skipped
      // unsolvable points shrink the set further); densify the usage axes.
      const double m2_mid = (space_.m2_min + space_.m2_max) * 0.5;
      const double m3_lo = space_.m3_min + 0.25 * (space_.m3_max - space_.m3_min);
      const double m3_hi = space_.m3_min + 0.75 * (space_.m3_max - space_.m3_min);
      configs.clear();
      usages.clear();
      for (const double m2 : {m2_mid}) {
        for (const double m3 : {m3_lo, m3_hi}) {
          for (const int tc : tcs) {
            configs.push_back(make_config(space_, choice, m2, m3, tc));
            usages.push_back({m2, m3});
          }
        }
      }
      results = evaluate_batch(configs);
      collect();
    }
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

  for (int round = 0; round <= kMaxRemeasureRetries; ++round) {
    Optimum best;
    best.objective = std::numeric_limits<double>::max();

    // Fine grid over the continuous box, evaluated on the cheap fitted models.
    constexpr int kM2Steps = 11;
    constexpr int kM3Steps = 31;
    for (const auto& fc : fits_) {
      const int tc_lo = space_.effective_tc_min();
      const int tc_hi = space_.effective_tc_max();
      const int tc_step = std::max(1, (tc_hi - tc_lo) / 156);
      for (int i = 0; i < kM2Steps; ++i) {
        const double m2 =
            space_.m2_min + (space_.m2_max - space_.m2_min) * i / double(kM2Steps - 1);
        for (int j = 0; j < kM3Steps; ++j) {
          const double m3 =
              space_.m3_min + (space_.m3_max - space_.m3_min) * j / double(kM3Steps - 1);
          for (int tc = tc_lo; tc <= tc_hi; tc += tc_step) {
            const double ir = fc.model.predict({m2, m3, static_cast<double>(tc)});
            if (ir <= 0.0) continue;  // extrapolation artifact; physical IR > 0
            const auto cfg = make_config(space_, fc.choice, m2, m3, tc);
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
    }

    if (best.objective == std::numeric_limits<double>::max()) {
      throw std::runtime_error("CoOptimizer: empty design space");
    }
    if (sample_point(best.config, &best.measured_ir_mv)) {
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
