// One DRAM channel with FR-FCFS (first-ready, first-come-first-served)
// scheduling: row-buffer hits are served before older row-buffer misses;
// among equals, the oldest wins. Bank-level parallelism and a shared data
// bus are modelled with busy-until times.
// A request's bank and row are decoded once, at push; a cycle builds the
// mask of ready banks (occupied and free) once, and each pass tests one bit
// and compares one stored row per queued request.
#pragma once

#include <cstdint>
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
  /// request could issue (the bus free and, after a cycle found every
  /// occupied bank busy, the earliest of those banks free). O(1);
  /// kNoCycle when idle.
  Cycle next_event(Cycle now) const;

  // Accounting.
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;

 private:
  /// open_row of a closed row buffer; line-aligned addresses never decode
  /// to it.
  static constexpr std::uint64_t kNoRow = ~std::uint64_t{0};

  struct Bank {
    std::uint64_t open_row = kNoRow;
    Cycle busy_until = 0;
    int queued = 0;  ///< requests in queue_ that target this bank
  };

  struct Pending {
    MemRequest request;
    std::uint64_t row;
    int bank;
  };

  DramConfig config_;
  std::vector<Bank> banks_;
  std::uint64_t occupied_ = 0;  ///< bit b set while banks_[b].queued > 0
  std::vector<Pending> queue_;  ///< arrival order
  Cycle bus_busy_until_ = 0;
  /// Ascending ready cycle; equal cycles in issue order.
  std::vector<std::pair<Cycle, MemRequest>> completions_;
  /// When a cycle finds every occupied bank busy, no request can issue
  /// before the earliest of them frees: skip the cycles until then, and
  /// report it as the issue bound in next_event. Invalidated by push (a
  /// new request may target a free bank).
  Cycle scan_skip_until_ = 0;
};

}  // namespace prosim
