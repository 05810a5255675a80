#include "irdrop/lut.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "exec/thread_pool.hpp"
#include "irdrop/eval_context.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/checkpoint.hpp"
#include "util/string_util.hpp"
#include "util/timer.hpp"

namespace pdn3d::irdrop {

IrLut IrLut::build(const IrAnalyzer& analyzer, const floorplan::DramFloorplanSpec& spec,
                   int max_per_die, double io_demand, int threads,
                   util::SweepCheckpoint* checkpoint) {
  if (threads < 0) throw std::invalid_argument("IrLut::build: threads must be >= 0");
  PDN3D_TRACE_SPAN_NAMED(span, "lut/build");
  const util::ScopedTimer build_timer("lut.build_seconds");
  static auto& m_states = obs::counter("lut.states_evaluated");

  const int dies = analyzer.model().dram_die_count();
  const int radix = max_per_die + 1;
  std::size_t total = 1;
  for (int d = 0; d < dies; ++d) total *= static_cast<std::size_t>(radix);
  m_states.add(total);
  span.attribute("states", static_cast<std::uint64_t>(total));

  // Each table entry is a pure function of its key (mixed-radix decode ->
  // worst-case state -> verified solve), so the sweep parallelizes with no
  // cross-entry state and the table is bitwise identical at any thread
  // count; an unsolvable state throws exactly as it would serially (the pool
  // surfaces the lowest-key failure). A sparse-direct analyzer's factor is
  // built here, before the workers share it.
  if (analyzer.solver().kind() == SolverKind::kSparseDirect) {
    (void)analyzer.solver().sparse_factor_available();
  }
  std::vector<double> table(total, 0.0);
  exec::ThreadPool pool(static_cast<std::size_t>(threads));
  EvalContext root(analyzer);
  pool.parallel_chunks(total, [&](std::size_t, std::size_t begin, std::size_t end) {
    EvalContext ctx = root.fork();
    std::vector<int> counts(static_cast<std::size_t>(dies), 0);
    for (std::size_t key = begin; key < end; ++key) {
      if (checkpoint != nullptr) {
        if (const util::CheckpointEntry* entry = checkpoint->find(key)) {
          if (entry->ok) {
            table[key] = entry->value;
            continue;
          }
          // A recorded failure is recomputed: the build aborts on unsolvable
          // states, so a fail entry only exists if semantics change later.
        }
      }
      std::size_t k = key;
      for (int d = 0; d < dies; ++d) {
        counts[static_cast<std::size_t>(d)] =
            static_cast<int>(k % static_cast<std::size_t>(radix));
        k /= static_cast<std::size_t>(radix);
      }
      int active_dies = 0;
      for (int c : counts) {
        if (c > 0) ++active_dies;
      }
      const double act =
          active_dies > 0 ? std::min(1.0, io_demand / static_cast<double>(active_dies)) : 0.0;
      const auto state = power::make_state_from_counts(counts, spec, act);
      table[key] = ctx.analyze(state).dram_max_mv;
      if (checkpoint != nullptr) checkpoint->record(key, {true, table[key], {}});
    }
  });
  if (checkpoint != nullptr) checkpoint->flush();
  return IrLut(dies, max_per_die, std::move(table));
}

void IrLut::save(std::ostream& os) const {
  os << "pdn3d-lut v1 dies=" << die_count_ << " max=" << max_per_die_ << "\n";
  const int radix = max_per_die_ + 1;
  for (std::size_t key = 0; key < table_.size(); ++key) {
    std::size_t k = key;
    for (int d = 0; d < die_count_; ++d) {
      if (d > 0) os << '-';
      os << static_cast<int>(k % static_cast<std::size_t>(radix));
      k /= static_cast<std::size_t>(radix);
    }
    os << ' ' << table_[key] << "\n";
  }
}

IrLut IrLut::load(std::istream& is) {
  std::string header;
  if (!std::getline(is, header)) throw std::runtime_error("IrLut::load: empty input");
  int dies = 0;
  int max_per_die = 0;
  if (std::sscanf(header.c_str(), "pdn3d-lut v1 dies=%d max=%d", &dies, &max_per_die) != 2 ||
      dies <= 0 || max_per_die <= 0) {
    throw std::runtime_error("IrLut::load: bad header '" + header + "'");
  }
  const int radix = max_per_die + 1;
  std::size_t total = 1;
  for (int d = 0; d < dies; ++d) total *= static_cast<std::size_t>(radix);

  std::vector<double> table(total, -1.0);
  IrLut lut(dies, max_per_die, std::move(table));

  std::string line;
  std::size_t filled = 0;
  int line_no = 1;
  std::vector<int> counts(static_cast<std::size_t>(dies), 0);
  while (std::getline(is, line)) {
    ++line_no;
    const std::string_view text = util::trim(line);
    if (text.empty() || text.front() == '#') continue;
    std::istringstream ss{std::string(text)};
    std::string state;
    double value = 0.0;
    if (!(ss >> state >> value)) {
      throw std::runtime_error("IrLut::load: line " + std::to_string(line_no) + " malformed");
    }
    const auto parts = util::split(state, '-');
    if (static_cast<int>(parts.size()) != dies) {
      throw std::runtime_error("IrLut::load: line " + std::to_string(line_no) +
                               " wrong die count");
    }
    for (int d = 0; d < dies; ++d) {
      counts[static_cast<std::size_t>(d)] = std::stoi(parts[static_cast<std::size_t>(d)]);
    }
    const std::size_t key = lut.index(counts);
    if (lut.table_[key] < 0.0) ++filled;
    lut.table_[key] = value;
  }
  if (filled != total) {
    throw std::runtime_error("IrLut::load: table incomplete (" + std::to_string(filled) + "/" +
                             std::to_string(total) + " states)");
  }
  return lut;
}

std::size_t IrLut::index(const std::vector<int>& counts) const {
  if (static_cast<int>(counts.size()) != die_count_) {
    throw std::invalid_argument("IrLut: counts size mismatch");
  }
  const int radix = max_per_die_ + 1;
  std::size_t key = 0;
  std::size_t mult = 1;
  for (int d = 0; d < die_count_; ++d) {
    const int c = counts[static_cast<std::size_t>(d)];
    if (c < 0 || c > max_per_die_) throw std::out_of_range("IrLut: count out of range");
    key += static_cast<std::size_t>(c) * mult;
    mult *= static_cast<std::size_t>(radix);
  }
  return key;
}

double IrLut::max_ir_mv(const std::vector<int>& counts) const { return table_[index(counts)]; }

double IrLut::worst_case_mv() const {
  return table_.empty() ? 0.0 : *std::max_element(table_.begin(), table_.end());
}

std::vector<int> IrLut::worst_case_state() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < table_.size(); ++i) {
    if (table_[i] > table_[best]) best = i;
  }
  std::vector<int> counts(static_cast<std::size_t>(die_count_), 0);
  const int radix = max_per_die_ + 1;
  std::size_t k = best;
  for (int d = 0; d < die_count_; ++d) {
    counts[static_cast<std::size_t>(d)] = static_cast<int>(k % static_cast<std::size_t>(radix));
    k /= static_cast<std::size_t>(radix);
  }
  return counts;
}

}  // namespace pdn3d::irdrop
