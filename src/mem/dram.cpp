#include "mem/dram.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"
#include "common/sim_error.hpp"

namespace prosim {

Dram::Dram(const DramConfig& config) : config_(config) {
  PROSIM_REQUIRE(config_.num_banks > 0 && config_.num_banks <= 64,
                 SimError::make(ErrorCategory::kInvariant,
                                "DRAM num_banks must be in [1, 64]"));
  banks_.resize(config_.num_banks);
  queue_.reserve(static_cast<std::size_t>(std::max(config_.queue_capacity, 0)));
}

void Dram::push(MemRequest request, Cycle /*now*/) {
  PROSIM_CHECK(can_accept());
  // Lines interleave across banks; a row spans row_bytes of one bank.
  const auto banks = static_cast<Addr>(config_.num_banks);
  const int bank = static_cast<int>((request.line_addr / 128) % banks);
  const std::uint64_t row = request.line_addr / config_.row_bytes / banks;
  queue_.push_back({request, row, bank});
  if (banks_[bank].queued++ == 0) occupied_ |= std::uint64_t{1} << bank;
  scan_skip_until_ = 0;  // the new request may be issuable immediately
}

void Dram::cycle(Cycle now) {
  if (queue_.empty()) return;
  if (bus_busy_until_ > now) return;
  if (scan_skip_until_ > now) return;

  std::uint64_t ready = 0;
  Cycle earliest = kNoCycle;
  for (std::uint64_t m = occupied_; m != 0; m &= m - 1) {
    const Cycle busy = banks_[std::countr_zero(m)].busy_until;
    if (busy <= now) {
      ready |= m & -m;
    } else {
      earliest = std::min(earliest, busy);
    }
  }
  if (ready == 0) {
    // Bank states only change at issue time, so nothing can become
    // issuable before the earliest occupied bank frees.
    scan_skip_until_ = earliest;
    return;
  }

  // FR-FCFS: the oldest row-buffer hit on a ready bank, else (the only
  // pass under plain FCFS) the oldest request on a ready bank.
  const auto on_ready_bank = [&](const Pending& p) {
    return ((ready >> p.bank) & 1) != 0;
  };
  auto it = queue_.end();
  if (config_.scheduler == DramSchedulerKind::kFrFcfs) {
    it = std::find_if(queue_.begin(), queue_.end(), [&](const Pending& p) {
      return on_ready_bank(p) && banks_[p.bank].open_row == p.row;
    });
  }
  if (it == queue_.end()) {
    it = std::find_if(queue_.begin(), queue_.end(), on_ready_bank);
  }
  const Pending pending = *it;
  queue_.erase(it);
  Bank& bank = banks_[pending.bank];
  if (--bank.queued == 0) occupied_ &= ~(std::uint64_t{1} << pending.bank);
  // An incidental hit on the open row (oldest-first pass) still pays only
  // the row-hit service time.
  const bool row_hit = bank.open_row == pending.row;
  const Cycle service =
      row_hit ? config_.row_hit_latency : config_.row_miss_latency;
  bank.open_row = pending.row;
  bank.busy_until = now + service;
  bus_busy_until_ = now + config_.bus_cycles;
  ++(row_hit ? row_hits : row_misses);
  if (pending.request.kind == MemReqKind::kWrite) {
    ++writes;  // fire-and-forget
    return;
  }
  ++reads;
  // Keep completions sorted by ready time: a row hit issued after a row
  // miss can finish earlier.
  const Cycle ready_at = now + service;
  auto pos = completions_.end();
  while (pos != completions_.begin() && std::prev(pos)->first > ready_at) --pos;
  completions_.emplace(pos, ready_at, pending.request);
}

Cycle Dram::next_event(Cycle now) const {
  Cycle t = kNoCycle;
  if (!completions_.empty()) {
    t = std::max(completions_.front().first, now + 1);
  }
  if (!queue_.empty()) {
    t = std::min(t, std::max({now + 1, bus_busy_until_, scan_skip_until_}));
  }
  return t;
}

MemRequest Dram::pop_completion() {
  PROSIM_CHECK(!completions_.empty());
  const MemRequest request = completions_.front().second;
  completions_.erase(completions_.begin());
  return request;
}

}  // namespace prosim
