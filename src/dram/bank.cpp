#include "dram/bank.hpp"

#include <stdexcept>

namespace pdn3d::dram {

void Bank::activate(Cycle now, long row) {
  if (!can_activate(now)) throw std::logic_error("Bank::activate: illegal");
  if (precharging_) precharging_ = false;  // precharge completed by now
  open_ = true;
  open_row_ = row;
  last_activate_ = now;
  row_ready_ = now + timing_->tRCD;
  ras_satisfied_ = now + timing_->tRAS;
  last_read_ = kNever;
  last_write_ = kNever;
}

void Bank::read(Cycle now) {
  if (phase(now) != Phase::kOpen) throw std::logic_error("Bank::read: row not open");
  if (last_read_ != kNever && now < last_read_ + timing_->tCCD) {
    throw std::logic_error("Bank::read: tCCD violation");
  }
  last_read_ = now;
}

void Bank::write(Cycle now) {
  if (!can_write(now, open_row_) || phase(now) != Phase::kOpen) {
    throw std::logic_error("Bank::write: illegal");
  }
  last_write_ = now;
}

void Bank::precharge(Cycle now) {
  if (!can_precharge(now)) throw std::logic_error("Bank::precharge: illegal");
  open_ = false;
  open_row_ = -1;
  precharging_ = true;
  precharge_issued_ = now;
  precharge_done_ = now + timing_->tRP;
}

}  // namespace pdn3d::dram
