#pragma once

/// @file lut.hpp
/// @brief IR-drop look-up table over memory states (Section 5.2).
///
/// The paper's IR-drop-aware read policy consults a precomputed table of the
/// max IR drop of each memory state (active-bank count per die, with the
/// shared-bandwidth I/O activity convention). The memory controller then
/// admits a bank activation only if the resulting state stays under the IR
/// constraint.

#include <istream>
#include <ostream>
#include <span>
#include <vector>

#include "irdrop/analysis.hpp"

namespace pdn3d::util {
class SweepCheckpoint;
}

namespace pdn3d::irdrop {

class IrLut {
 public:
  /// Build by running the R-Mesh on every state with 0..max_per_die active
  /// banks per die (the paper's interleave limit is 2, bounded by the charge
  /// pump). Worst-case bank locations (edge column) are assumed, matching
  /// Section 5.1.
  ///
  /// @param io_demand total I/O demand of the workload as a fraction of one
  /// channel's peak; active dies share it, so a state with k active dies is
  /// evaluated at activity min(1, io_demand / k). io_demand = 1 reproduces
  /// the paper's zero-bubble convention.
  /// @param threads worker threads for the state sweep; 0 =
  /// exec::default_thread_count(). Entry `key` is computed from state `key`
  /// alone, so the table is identical at any thread count.
  /// @param checkpoint optional crash-safe checkpoint (non-owning): entries
  /// found in it are loaded instead of recomputed, fresh entries are
  /// recorded, and a resumed build is bitwise identical to an uninterrupted
  /// one (every entry is a pure function of its key).
  static IrLut build(const IrAnalyzer& analyzer, const floorplan::DramFloorplanSpec& spec,
                     int max_per_die = 2, double io_demand = 1.0, int threads = 0,
                     util::SweepCheckpoint* checkpoint = nullptr);

  /// Max IR drop (mV) of the state with the given per-die active-bank counts.
  [[nodiscard]] double max_ir_mv(const std::vector<int>& counts) const;

  /// Table key of a state: die d's count is digit d, base max_per_die() + 1.
  /// Throws std::invalid_argument on a wrong die count and std::out_of_range
  /// on a count outside [0, max_per_die()].
  [[nodiscard]] std::size_t key(std::span<const int> counts) const;

  [[nodiscard]] int die_count() const { return die_count_; }
  [[nodiscard]] int max_per_die() const { return max_per_die_; }

  /// Largest entry (the design's worst-case memory state).
  [[nodiscard]] double worst_case_mv() const;

  /// Worst-case state itself.
  [[nodiscard]] std::vector<int> worst_case_state() const;

  [[nodiscard]] std::size_t size() const { return table_.size(); }

  /// Serialize to a small text format ("pdn3d-lut v1" header, then one
  /// state/value pair per line) so the controller can consume a stored table
  /// without rerunning the R-Mesh -- the paper's look-up-table hand-off.
  void save(std::ostream& os) const;

  /// Load a table written by save(). Throws std::runtime_error on malformed
  /// input.
  static IrLut load(std::istream& is);

 private:
  IrLut(int die_count, int max_per_die, std::vector<double> table)
      : die_count_(die_count), max_per_die_(max_per_die), table_(std::move(table)) {}

  int die_count_ = 0;
  int max_per_die_ = 0;
  std::vector<double> table_;
};

}  // namespace pdn3d::irdrop
