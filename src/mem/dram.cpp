#include "mem/dram.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace prosim {

Dram::Dram(const DramConfig& config) : config_(config) {
  PROSIM_CHECK(config_.num_banks > 0);
  banks_.resize(config_.num_banks);
}

int Dram::bank_of(Addr line_addr) const {
  // Interleave lines across banks.
  return static_cast<int>((line_addr / 128) % config_.num_banks);
}

std::uint64_t Dram::row_of(Addr line_addr) const {
  return line_addr / config_.row_bytes / config_.num_banks;
}

void Dram::push(MemRequest request, Cycle now) {
  PROSIM_CHECK(can_accept());
  queue_.push_back({request, now});
  scan_skip_until_ = 0;  // the new request may be issuable immediately
}

void Dram::cycle(Cycle now) {
  if (queue_.empty()) return;
  if (bus_busy_until_ > now) return;
  if (scan_skip_until_ > now) return;

  // FR-FCFS: first pass looks for the oldest row-buffer hit on a free
  // bank; second pass takes the oldest request on a free bank.
  auto issue_at = [&](std::size_t idx, bool row_hit) {
    Pending pending = queue_[idx];
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));
    Bank& bank = banks_[static_cast<std::size_t>(
        bank_of(pending.request.line_addr))];
    const Cycle service =
        row_hit ? config_.row_hit_latency : config_.row_miss_latency;
    bank.row_open = true;
    bank.open_row = row_of(pending.request.line_addr);
    bank.busy_until = now + service;
    bus_busy_until_ = now + config_.bus_cycles;
    if (row_hit) {
      ++row_hits;
    } else {
      ++row_misses;
    }
    if (pending.request.kind == MemReqKind::kWrite) {
      ++writes;  // fire-and-forget
    } else {
      ++reads;
      // Keep completions sorted by ready time: a row hit issued after a
      // row miss can finish earlier.
      const Cycle ready = now + service;
      auto it = completions_.end();
      while (it != completions_.begin() && std::prev(it)->first > ready) --it;
      completions_.emplace(it, ready, pending.request);
    }
  };

  // First-ready pass (skipped under plain FCFS): oldest row-buffer hit on
  // a free bank wins.
  if (config_.scheduler == DramSchedulerKind::kFrFcfs) {
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const Bank& bank = banks_[static_cast<std::size_t>(
          bank_of(queue_[i].request.line_addr))];
      if (bank.busy_until > now) continue;
      if (bank.row_open &&
          bank.open_row == row_of(queue_[i].request.line_addr)) {
        issue_at(i, /*row_hit=*/true);
        return;
      }
    }
  }
  // Oldest-first pass; an incidental hit on the open row still pays only
  // the row-hit service time.
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Bank& bank =
        banks_[static_cast<std::size_t>(bank_of(queue_[i].request.line_addr))];
    if (bank.busy_until > now) continue;
    const bool row_hit =
        bank.row_open && bank.open_row == row_of(queue_[i].request.line_addr);
    issue_at(i, row_hit);
    return;
  }

  // Every queued request's bank is busy; bank states only change at issue
  // time, so nothing can become issuable before the earliest bank frees.
  Cycle earliest = kNoCycle;
  for (const Pending& p : queue_) {
    earliest = std::min(
        earliest,
        banks_[static_cast<std::size_t>(bank_of(p.request.line_addr))]
            .busy_until);
  }
  scan_skip_until_ = earliest;
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
  MemRequest request = completions_.front().second;
  completions_.pop_front();
  return request;
}

}  // namespace prosim
