#pragma once

/// @file bank.hpp
/// @brief Cycle-level DRAM bank state machine.
///
/// Tracks one bank's row-buffer state and the timestamps needed to enforce
/// tRCD/tRAS/tRP/tCCD/tRTP. The controller drives it with activate/read/
/// precharge commands; the bank validates legality.

#include <algorithm>
#include <cstdint>

#include "dram/timing.hpp"

namespace pdn3d::dram {

using Cycle = long long;
inline constexpr Cycle kNever = -1'000'000'000LL;

class Bank {
 public:
  enum class Phase {
    kClosed,      ///< precharged, ready for activate
    kOpening,     ///< activate issued, row not yet usable
    kOpen,        ///< row buffer valid
    kPrecharging  ///< precharge issued, not yet complete
  };

  explicit Bank(const TimingParams& timing) : timing_(&timing) {}

  [[nodiscard]] Phase phase(Cycle now) const {
    if (precharging_) {
      return now >= precharge_done_ ? Phase::kClosed : Phase::kPrecharging;
    }
    if (!open_) return Phase::kClosed;
    return now >= row_ready_ ? Phase::kOpen : Phase::kOpening;
  }
  [[nodiscard]] long open_row() const { return open_row_; }

  /// An "active" bank in the paper's IR sense: a row is (being) opened.
  [[nodiscard]] bool is_active(Cycle now) const {
    const Phase p = phase(now);
    return p == Phase::kOpening || p == Phase::kOpen;
  }

  // The predicates are inline: the controller asks them of every queued
  // request on every cycle.
  [[nodiscard]] bool can_activate(Cycle now) const {
    return phase(now) == Phase::kClosed && now >= precharge_done_;
  }
  [[nodiscard]] bool can_read(Cycle now, long row) const {
    if (phase(now) != Phase::kOpen || open_row_ != row) return false;
    if (last_read_ != kNever && now < last_read_ + timing_->tCCD) return false;
    // Write-to-read turnaround: the write data must land plus tWTR.
    if (last_write_ != kNever &&
        now < last_write_ + timing_->tCWL + timing_->burst_cycles() + timing_->tWTR) {
      return false;
    }
    return true;
  }
  [[nodiscard]] bool can_write(Cycle now, long row) const {
    if (phase(now) != Phase::kOpen || open_row_ != row) return false;
    if (last_write_ != kNever && now < last_write_ + timing_->tCCD) return false;
    // Read-to-write bus turnaround.
    if (last_read_ != kNever && now < last_read_ + timing_->tRTW) return false;
    return true;
  }
  [[nodiscard]] bool can_precharge(Cycle now) const {
    const Phase p = phase(now);
    if (p != Phase::kOpen && p != Phase::kOpening) return false;
    if (now < ras_satisfied_) return false;
    if (last_read_ != kNever && now < last_read_ + timing_->tRTP) return false;
    // Write recovery: data must be restored to the array before closing.
    if (last_write_ != kNever &&
        now < last_write_ + timing_->tCWL + timing_->burst_cycles() + timing_->tWR) {
      return false;
    }
    return true;
  }

  /// Issue commands. Each throws std::logic_error when illegal at @p now
  /// (the controller is expected to have checked with the predicates).
  void activate(Cycle now, long row);
  void read(Cycle now);
  void write(Cycle now);
  void precharge(Cycle now);

  /// Cycle of the last read command (kNever before any read).
  [[nodiscard]] Cycle last_read() const { return last_read_; }
  /// Cycle of the last write command (kNever before any write).
  [[nodiscard]] Cycle last_write() const { return last_write_; }
  /// Cycle of the last activate (kNever before any).
  [[nodiscard]] Cycle last_activate() const { return last_activate_; }
  /// Latest of last read / row-ready, for idle-timeout close decisions.
  [[nodiscard]] Cycle last_activity() const {
    return std::max({last_read_, last_write_, row_ready_});
  }

 private:
  const TimingParams* timing_;
  long open_row_ = -1;
  Cycle last_activate_ = kNever;
  Cycle row_ready_ = kNever;       ///< activate + tRCD
  Cycle ras_satisfied_ = kNever;   ///< activate + tRAS
  Cycle last_read_ = kNever;
  Cycle last_write_ = kNever;
  Cycle precharge_issued_ = kNever;
  Cycle precharge_done_ = 0;       ///< bank usable again at this cycle
  bool open_ = false;
  bool precharging_ = false;
};

}  // namespace pdn3d::dram
