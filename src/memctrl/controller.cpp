#include "memctrl/controller.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pdn3d::memctrl {

namespace {

const char* to_label(IrPolicyKind kind) {
  return kind == IrPolicyKind::kIrAware ? "ir-aware" : "standard";
}

const char* to_label(SchedulingKind kind) {
  return kind == SchedulingKind::kDistR ? "distr" : "fcfs";
}

}  // namespace

MemoryController::MemoryController(const SimConfig& config, const PolicyConfig& policy)
    : config_(config), policy_config_(policy) {
  if (config_.dies <= 0 || config_.banks_per_die <= 0 || config_.channels <= 0) {
    throw std::invalid_argument("MemoryController: bad configuration");
  }
  if (policy.ir_policy == IrPolicyKind::kIrAware && policy.lut == nullptr) {
    throw std::invalid_argument("MemoryController: IR-aware policy requires a LUT");
  }
}

int MemoryController::channel_of(int die, int bank) const {
  if (config_.channel_by_die) return die % config_.channels;
  return (die * config_.banks_per_die + bank) % config_.channels;
}

SimResult MemoryController::run(std::vector<Request> requests) {
  PDN3D_TRACE_SPAN_NAMED(span, "memctrl/run");
  static auto& m_requests = obs::counter("memctrl.requests_completed");
  static auto& m_queue_depth =
      obs::histogram("memctrl.queue_depth", obs::linear_buckets(0.0, 4.0, 16));
  // Per-policy stall counters (cycles spent with no forward progress); the
  // label pair identifies the IR policy x scheduler combination under test.
  obs::Counter& m_stalls =
      obs::counter(std::string("memctrl.stall_cycles.") + to_label(policy_config_.ir_policy) +
                   "." + to_label(policy_config_.scheduling));
  span.attribute("ir_policy", to_label(policy_config_.ir_policy));
  span.attribute("scheduling", to_label(policy_config_.scheduling));
  std::uint64_t stall_cycles = 0;

  std::sort(requests.begin(), requests.end(),
            [](const Request& a, const Request& b) { return a.arrival < b.arrival; });

  const dram::TimingParams& t = config_.timing;
  const int nbanks = config_.dies * config_.banks_per_die;
  std::vector<dram::Bank> banks(static_cast<std::size_t>(nbanks), dram::Bank(t));
  std::vector<dram::Cycle> bus_free(static_cast<std::size_t>(config_.channels), 0);

  ActivationPolicy policy(policy_config_, t, config_.dies, config_.max_active_per_die);
  const irdrop::IrLut* lut = policy_config_.lut;

  std::vector<Request> queue;
  queue.reserve(static_cast<std::size_t>(config_.queue_capacity));

  SimResult result;
  std::size_t next_arrival = 0;
  long completed = 0;
  const long total = static_cast<long>(requests.size());
  dram::Cycle now = 0;
  dram::Cycle last_progress = 0;  ///< last request progress: arrival or command
  dram::Cycle last_completion = 0;
  double active_bank_cycles = 0.0;

  // A bank is active (dram::Bank::is_active) exactly while it is open, at
  // any cycle, so per-die counts kept on activate/precharge equal a recount
  // of every bank. Each cycle works on a snapshot taken at its top (plus its
  // own activations): a bank precharged during the cycle still counts until
  // the next one.
  std::vector<int> open_per_die(static_cast<std::size_t>(config_.dies), 0);
  std::vector<int> active_per_die(static_cast<std::size_t>(config_.dies), 0);
  std::vector<int> open_banks;  ///< keys of the open banks, in no particular order
  open_banks.reserve(static_cast<std::size_t>(nbanks));
  bool state_changed = false;  ///< open_per_die moved since the last snapshot
  std::vector<int> clamped(static_cast<std::size_t>(config_.dies), 0);
  std::vector<int> bank_channel(static_cast<std::size_t>(nbanks), 0);
  for (int d = 0; d < config_.dies; ++d) {
    for (int b = 0; b < config_.banks_per_die; ++b) {
      bank_channel[static_cast<std::size_t>(d * config_.banks_per_die + b)] = channel_of(d, b);
    }
  }
  std::vector<char> bank_touched(static_cast<std::size_t>(nbanks), 0);
  std::vector<char> cmd_used(static_cast<std::size_t>(config_.channels), 0);
  std::vector<std::size_t> order;
  std::vector<std::size_t> to_remove;
  order.reserve(queue.capacity());
  to_remove.reserve(queue.capacity());
  // Cycles spent at each queue depth: published with one histogram update
  // per depth when the run ends, the same buckets, count and (whole-number)
  // sum as one observation per cycle.
  std::vector<std::uint64_t> depth_cycles(queue.capacity() + 1, 0);

  // Refresh bookkeeping (per die), staggered so dies do not refresh together.
  std::vector<dram::Cycle> refresh_due(static_cast<std::size_t>(config_.dies), dram::kNever);
  std::vector<dram::Cycle> refresh_until(static_cast<std::size_t>(config_.dies), dram::kNever);
  std::vector<char> refresh_pending(static_cast<std::size_t>(config_.dies), 0);
  if (config_.enable_refresh) {
    for (int d = 0; d < config_.dies; ++d) {
      refresh_due[static_cast<std::size_t>(d)] =
          t.tREFI / config_.dies * (d + 1);  // staggered first due times
    }
  }
  const auto die_blocked = [&](int die, dram::Cycle cyc) {
    const auto d = static_cast<std::size_t>(die);
    return refresh_pending[d] != 0 ||
           (refresh_until[d] != dram::kNever && cyc < refresh_until[d]);
  };

  const auto activate = [&](int key, long row) {
    banks[static_cast<std::size_t>(key)].activate(now, row);
    ++open_per_die[static_cast<std::size_t>(key / config_.banks_per_die)];
    open_banks.push_back(key);
    state_changed = true;
  };
  const auto precharge = [&](int key) {
    banks[static_cast<std::size_t>(key)].precharge(now);
    ++result.precharges;
    --open_per_die[static_cast<std::size_t>(key / config_.banks_per_die)];
    *std::find(open_banks.begin(), open_banks.end(), key) = open_banks.back();
    open_banks.pop_back();
    state_changed = true;
  };

  while (completed < total) {
    // --- Arrivals (the queue is the paper's priority queue of size 32). ----
    while (next_arrival < requests.size() && requests[next_arrival].arrival <= now &&
           static_cast<int>(queue.size()) < config_.queue_capacity) {
      queue.push_back(requests[next_arrival]);
      ++next_arrival;
      last_progress = now;
    }
    ++depth_cycles[queue.size()];

    // --- Current memory state. ---------------------------------------------
    std::copy(open_per_die.begin(), open_per_die.end(), active_per_die.begin());
    const auto total_active = static_cast<int>(open_banks.size());
    active_bank_cycles += total_active;
    // The worst LUT entry visited only moves when the state does.
    if (state_changed) {
      state_changed = false;
      if (lut != nullptr && total_active > 0) {
        for (std::size_t d = 0; d < clamped.size(); ++d) {
          clamped[d] = std::min(active_per_die[d], lut->max_per_die());
        }
        result.max_ir_mv = std::max(result.max_ir_mv, lut->max_ir_mv(clamped));
      }
    }

    // --- Refresh scheduling (optional). --------------------------------------
    bool refreshed = false;
    if (config_.enable_refresh) {
      for (int d = 0; d < config_.dies; ++d) {
        const auto dd = static_cast<std::size_t>(d);
        if (!refresh_pending[dd] && refresh_due[dd] != dram::kNever && now >= refresh_due[dd]) {
          refresh_pending[dd] = 1;  // stop issuing to this die; drain its banks
        }
        if (refresh_pending[dd]) {
          bool all_closed = true;
          for (int b = 0; b < config_.banks_per_die; ++b) {
            const int key = d * config_.banks_per_die + b;
            const dram::Bank& bank = banks[static_cast<std::size_t>(key)];
            if (bank.phase(now) == dram::Bank::Phase::kOpen && bank.can_precharge(now)) {
              precharge(key);
            }
            if (bank.phase(now) != dram::Bank::Phase::kClosed) all_closed = false;
          }
          if (all_closed) {
            refresh_pending[dd] = 0;
            refresh_until[dd] = now + t.tRFC;
            refresh_due[dd] += t.tREFI;
            ++result.refreshes;
            refreshed = true;
          }
        }
      }
    }

    // --- Idle-bank auto close (power action, Section 2.3). ------------------
    // Only an open bank can close, and whether it does depends on that bank
    // alone, so the visiting order is free; precharge() swaps the last open
    // bank into slot i.
    for (std::size_t i = 0; i < open_banks.size();) {
      const int key = open_banks[i];
      const dram::Bank& bank = banks[static_cast<std::size_t>(key)];
      if (bank.phase(now) == dram::Bank::Phase::kOpen &&
          now - bank.last_activity() > config_.bank_close_timeout && bank.can_precharge(now)) {
        precharge(key);
      } else {
        ++i;
      }
    }

    // --- Issue commands. -----------------------------------------------------
    std::fill(bank_touched.begin(), bank_touched.end(), 0);
    std::fill(cmd_used.begin(), cmd_used.end(), 0);
    schedule_order(queue, policy_config_.scheduling, active_per_die, order);
    bool act_gate_open = true;
    to_remove.clear();
    for (std::size_t oi = 0; oi < order.size(); ++oi) {
      const std::size_t qi = order[oi];
      // An in-order controller only opens/closes rows for the oldest request
      // (row hits anywhere in the queue are served -- FR-FCFS style); a
      // 3D-aware controller may activate for any queued request.
      const bool may_manage_rows = policy_config_.out_of_order || oi == 0;
      Request& r = queue[qi];
      if (config_.enable_refresh && die_blocked(r.die, now)) continue;
      const int bank_key = r.die * config_.banks_per_die + r.bank;
      const int ch = bank_channel[static_cast<std::size_t>(bank_key)];
      if (cmd_used[static_cast<std::size_t>(ch)]) continue;
      if (bank_touched[static_cast<std::size_t>(bank_key)]) continue;
      dram::Bank& bank = banks[static_cast<std::size_t>(bank_key)];

      const bool column_ready =
          r.is_write ? bank.can_write(now, r.row) : bank.can_read(now, r.row);
      if (column_ready) {
        const int data_delay = r.is_write ? t.tCWL : t.tCL;
        if (bus_free[static_cast<std::size_t>(ch)] <= now + data_delay) {
          if (r.is_write) {
            bank.write(now);
            ++result.writes;
          } else {
            bank.read(now);
            ++result.reads;
          }
          bus_free[static_cast<std::size_t>(ch)] = now + data_delay + t.burst_cycles();
          r.completed = now + data_delay + t.burst_cycles();
          last_completion = std::max(last_completion, r.completed);
          ++completed;
          to_remove.push_back(qi);
          cmd_used[static_cast<std::size_t>(ch)] = 1;
          bank_touched[static_cast<std::size_t>(bank_key)] = 1;
          last_progress = now;
        }
        continue;
      }

      const auto phase = bank.phase(now);
      if (phase == dram::Bank::Phase::kOpen && bank.open_row() != r.row) {
        if (!may_manage_rows) continue;
        bank_touched[static_cast<std::size_t>(bank_key)] = 1;
        if (bank.can_precharge(now)) {
          precharge(bank_key);
          cmd_used[static_cast<std::size_t>(ch)] = 1;
          last_progress = now;
        }
        continue;
      }

      if (phase == dram::Bank::Phase::kClosed && bank.can_activate(now)) {
        if (!may_manage_rows) continue;
        bank_touched[static_cast<std::size_t>(bank_key)] = 1;
        if (!act_gate_open) continue;
        if (!policy.allows(now, r.die, active_per_die)) {
          // FCFS preserves activation order: an IR-blocked older request
          // gates younger activations (anti-starvation, Section 5.2). DistR
          // reorders instead, so younger requests may proceed.
          if (policy_config_.scheduling == SchedulingKind::kFcfs) act_gate_open = false;
          continue;
        }
        activate(bank_key, r.row);
        policy.note_activate(now);
        ++active_per_die[static_cast<std::size_t>(r.die)];
        ++result.activates;
        cmd_used[static_cast<std::size_t>(ch)] = 1;
        last_progress = now;
        continue;
      }
      // Opening or precharging: nothing to do this cycle.
      bank_touched[static_cast<std::size_t>(bank_key)] = 1;
    }

    // Remove completed requests (descending to keep indices valid).
    std::sort(to_remove.rbegin(), to_remove.rend());
    for (const std::size_t qi : to_remove) {
      queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(qi));
    }

    // --- Stall detection (IR constraint may admit no state at all). --------
    // A completed refresh is not a stall cycle, but only request progress
    // resets the infeasibility timer: refreshes go on completing when the
    // constraint admits no state.
    if (last_progress != now && !refreshed) ++stall_cycles;
    if (now - last_progress > config_.stall_limit) {
      result.feasible = false;
      break;
    }
    ++now;
  }
  for (std::size_t depth = 0; depth < depth_cycles.size(); ++depth) {
    if (depth_cycles[depth] > 0) {
      m_queue_depth.observe(static_cast<double>(depth), depth_cycles[depth]);
    }
  }
  m_stalls.add(stall_cycles);
  m_requests.add(static_cast<std::uint64_t>(completed));

  result.cycles = result.feasible ? last_completion : now;
  span.attribute("requests", static_cast<std::uint64_t>(completed));
  span.attribute("feasible", result.feasible ? "true" : "false");
  span.attribute("cycles", static_cast<std::uint64_t>(result.cycles));
  span.attribute("stall_cycles", stall_cycles);
  result.runtime_us = t.cycles_to_us(result.cycles);
  const long column_ops = result.reads + result.writes;
  result.bandwidth_reads_per_clk =
      result.cycles > 0 ? static_cast<double>(column_ops) / static_cast<double>(result.cycles)
                        : 0.0;
  result.avg_active_banks =
      now > 0 ? active_bank_cycles / static_cast<double>(now) : 0.0;
  result.row_hit_fraction =
      column_ops > 0
          ? 1.0 - static_cast<double>(result.activates) / static_cast<double>(column_ops)
          : 0.0;
  return result;
}

}  // namespace pdn3d::memctrl
