// One DRAM channel with FR-FCFS (first-ready, first-come-first-served)
// scheduling: row-buffer hits are served before older row-buffer misses;
// among equals, the oldest wins. Bank-level parallelism and a shared data
// bus are modelled with busy-until times.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.hpp"
#include "mem/mem_config.hpp"
#include "mem/request.hpp"

namespace prosim {

class Dram {
 public:
  explicit Dram(const DramConfig& config);

  bool can_accept() const {
    return static_cast<int>(queue_.size()) < config_.queue_capacity;
  }

  /// Enqueues a request (read or write). Reads/atomics complete with a
  /// pop-able completion; writes complete silently.
  void push(MemRequest request, Cycle now);

  /// Advances one cycle: issues at most one request to a ready bank per
  /// cycle (bus permitting).
  void cycle(Cycle now);

  bool has_completion(Cycle now) const {
    return !completions_.empty() && completions_.front().first <= now;
  }
  MemRequest pop_completion();

  bool idle() const { return queue_.empty() && completions_.empty(); }

  /// Lower bound (> now) on the next cycle this channel does anything:
  /// the head completion becoming ready, or the earliest cycle a queued
  /// request could issue (the bus free and, after a scan found every
  /// queued request's bank busy, the earliest of those banks free). O(1);
  /// kNoCycle when idle.
  Cycle next_event(Cycle now) const;

  // Accounting.
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;

 private:
  struct Bank {
    bool row_open = false;
    std::uint64_t open_row = 0;
    Cycle busy_until = 0;
  };

  struct Pending {
    MemRequest request;
    Cycle arrival;
  };

  int bank_of(Addr line_addr) const;
  std::uint64_t row_of(Addr line_addr) const;

  DramConfig config_;
  std::vector<Bank> banks_;
  std::deque<Pending> queue_;
  Cycle bus_busy_until_ = 0;
  std::deque<std::pair<Cycle, MemRequest>> completions_;
  /// Scan memo: when a full FR-FCFS scan finds every queued request's bank
  /// busy, no request can issue before the earliest bank frees — skip the
  /// rescans until then, and report it as the issue bound in next_event.
  /// Invalidated by push (a new request may target a free bank).
  Cycle scan_skip_until_ = 0;
};

}  // namespace prosim
