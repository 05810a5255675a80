#include "irdrop/montecarlo.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "core/status.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/checkpoint.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace pdn3d::irdrop {

namespace {

/// Registered at 0, so stats, metrics and run reports show the row before
/// the first replay.
obs::Counter& m_reused = obs::counter("montecarlo.samples_reused");

}  // namespace

power::MemoryState draw_sample(const MonteCarloConfig& config, std::size_t sample, int dies,
                               int banks) {
  util::Rng rng = util::Rng::split(config.seed, sample);
  // An all-idle draw carries no information for the margin study, so we
  // redraw within the same stream (the stream advanced, so this terminates)
  // -- the parallel analogue of the old serial `--s; continue` resample.
  for (;;) {
    power::MemoryState state;
    state.dies.assign(static_cast<std::size_t>(dies), {});
    int active_dies = 0;
    for (int d = 0; d < dies; ++d) {
      if (!rng.next_bool(config.die_active_probability)) continue;
      ++active_dies;
      const int count = rng.next_int(1, config.max_banks_per_die);
      auto& die = state.dies[static_cast<std::size_t>(d)];
      while (static_cast<int>(die.active_banks.size()) < count) {
        const int bank = rng.next_int(0, banks - 1);
        if (std::find(die.active_banks.begin(), die.active_banks.end(), bank) ==
            die.active_banks.end()) {
          die.active_banks.push_back(bank);
        }
      }
    }
    if (active_dies == 0) continue;
    state.io_activity = std::min(1.0, config.io_demand / static_cast<double>(active_dies));
    return state;
  }
}

MonteCarloResult sample_ir_distribution(const IrAnalyzer& analyzer,
                                        const floorplan::DramFloorplanSpec& spec,
                                        const MonteCarloConfig& config) {
  if (config.samples <= 0) throw std::invalid_argument("montecarlo: samples must be positive");
  if (config.max_banks_per_die < 1) {
    throw std::invalid_argument("montecarlo: max_banks_per_die must be >= 1");
  }
  if (config.threads < 0) throw std::invalid_argument("montecarlo: threads must be >= 0");
  PDN3D_TRACE_SPAN_NAMED(span, "montecarlo/run");
  static auto& m_samples = obs::counter("montecarlo.samples");
  static auto& m_skipped = obs::counter("montecarlo.samples_skipped");

  const int dies = analyzer.model().dram_die_count();
  const int banks = spec.bank_cols * spec.bank_rows;
  const std::size_t n = static_cast<std::size_t>(config.samples);
  // Samples 0..known-1 replay from the prefix.
  const std::size_t known = config.prefix != nullptr ? std::min(n, config.prefix->size()) : 0;

  // Per-sample result slots: the pool guarantees slot i is written by the
  // worker that ran sample i's block, and every statistic below is computed
  // from the slots in index order -- thread count never changes the answer.
  std::vector<double> values(n, 0.0);
  std::vector<unsigned char> solved(n, 0);
  std::vector<std::string> failures(n);
  if (known > 0) {
    std::copy_n(config.prefix->begin(), known, values.begin());
    std::fill_n(solved.begin(), known, 1);
  }

  // Samples go to the solver kSolveBlock at a time, one pass over the cached
  // factor per block; a sample the prefix or the checkpoint holds replays
  // and leaves its block.
  const auto run_block = [&](std::size_t b) {
    std::array<power::MemoryState, linalg::kSolveBlock> states;
    std::array<std::size_t, linalg::kSolveBlock> index{};
    std::size_t count = 0;
    for (std::size_t s = std::max(known, b * linalg::kSolveBlock);
         s < std::min(n, (b + 1) * linalg::kSolveBlock); ++s) {
      if (config.checkpoint != nullptr) {
        if (const util::CheckpointEntry* entry = config.checkpoint->find(s)) {
          if (entry->ok) {
            values[s] = entry->value;
            solved[s] = 1;
          } else {
            failures[s] = entry->message;
          }
          continue;
        }
      }
      states[count] = draw_sample(config, s, dies, banks);
      index[count++] = s;
    }
    if (count == 0) return;
    std::array<SolveOutcome, linalg::kSolveBlock> outcomes;
    std::array<IrResult, linalg::kSolveBlock> results;
    analyzer.solve_block(std::span(states).first(count), std::span(outcomes).first(count),
                         std::span(results).first(count));
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t s = index[i];
      try {
        values[s] = analyzer.result(outcomes[i], results[i]).dram_max_mv;
        solved[s] = 1;
      } catch (const core::NumericalError& e) {
        // A cancellation must abort the sweep, not be skipped as a sample.
        if (e.status().code() == core::StatusCode::kCancelled) throw;
        // Skip-and-report: one unsolvable state must not kill the whole
        // distribution run.
        failures[s] = e.status().to_string();
      }
      if (config.checkpoint != nullptr) {
        config.checkpoint->record(s, {solved[s] != 0, values[s], failures[s]});
      }
    }
  };
  // Pool chunks are runs of whole blocks past the prefix, each solved in its
  // thread's workspace. A sparse-direct analyzer's factor is built first, on
  // this thread, as IrLut::build does: inside a block's region task its
  // numeric phase would run inline.
  if (known < n) {
    if (analyzer.solver().kind() == SolverKind::kSparseDirect) {
      (void)analyzer.solver().sparse_factor_available();
    }
    exec::ThreadPool pool(static_cast<std::size_t>(config.threads));
    const std::size_t skip = known / linalg::kSolveBlock;
    const std::size_t blocks = (n + linalg::kSolveBlock - 1) / linalg::kSolveBlock - skip;
    pool.parallel_chunks(blocks, [&](std::size_t, std::size_t first, std::size_t last) {
      for (std::size_t b = first; b < last; ++b) run_block(skip + b);
    });
  }
  if (config.checkpoint != nullptr) config.checkpoint->flush();
  if (config.prefix != nullptr) {
    // Keep the solved samples from the prefix's end up to the first skipped
    // one, within the cap. A throw above leaves the prefix as it was.
    std::vector<double>& prefix = *config.prefix;
    for (std::size_t s = prefix.size(); s < std::min(n, kMaxPrefixSamples) && solved[s]; ++s) {
      prefix.push_back(values[s]);
    }
  }

  std::vector<double> kept;
  kept.reserve(n);
  int skipped = 0;
  std::string last_failure;
  for (std::size_t s = 0; s < n; ++s) {
    if (solved[s]) {
      kept.push_back(values[s]);
    } else {
      ++skipped;
      last_failure = failures[s];  // highest-index skip, as a serial run reports
    }
  }

  m_samples.add(static_cast<std::uint64_t>(config.samples));
  m_skipped.add(static_cast<std::uint64_t>(skipped));
  m_reused.add(known);
  span.attribute("samples", static_cast<std::uint64_t>(config.samples));
  span.attribute("reused", static_cast<std::uint64_t>(known));

  MonteCarloResult out;
  out.samples = config.samples - skipped;
  out.skipped_samples = skipped;
  out.last_failure = std::move(last_failure);
  if (kept.empty()) return out;
  out.mean_mv = util::mean(kept);
  out.p50_mv = util::percentile(kept, 50.0);
  out.p95_mv = util::percentile(kept, 95.0);
  out.p99_mv = util::percentile(kept, 99.0);
  out.max_mv = util::max_value(kept);
  return out;
}

}  // namespace pdn3d::irdrop
