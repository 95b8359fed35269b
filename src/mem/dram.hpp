// One DRAM channel with FR-FCFS (first-ready, first-come-first-served)
// scheduling: row-buffer hits are served before older row-buffer misses;
// among equals, the oldest wins. Bank-level parallelism and a shared data
// bus are modelled with busy-until times.
// A request's bank and row are decoded once, at push. Queued requests sit
// in fixed slots, linked per bank in arrival order and stamped with an
// arrival sequence number, and each bank counts its queued requests that
// hit its open row. A pick looks only at the ready banks' list heads, or
// at the oldest hit of each ready bank that has one; it never scans the
// whole queue.
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

  bool can_accept() const { return queued_ < config_.queue_capacity; }

  /// Enqueues a request (read or write). Reads/atomics complete with a
  /// pop-able completion; writes complete silently.
  void push(MemRequest request, Cycle now);

  /// Advances one cycle: issues at most one request to a ready bank per
  /// cycle (bus permitting).
  void cycle(Cycle now);

  bool has_completion(Cycle now) const {
    return next_completion() <= now;
  }
  /// The earliest completion; equal cycles come out in issue order.
  MemRequest pop_completion();

  bool idle() const {
    return queued_ == 0 && hit_done_.empty() && miss_done_.empty();
  }

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
  static constexpr int kNone = -1;

  struct Bank {
    std::uint64_t open_row = kNoRow;
    Cycle busy_until = 0;
    int head = kNone;  ///< oldest queued request (slot) for this bank
    int tail = kNone;
    int hits = 0;      ///< queued requests whose row is open_row
  };

  /// A queued request in its slot.
  struct Slot {
    MemRequest request;
    std::uint64_t row = 0;
    std::uint64_t seq = 0;  ///< arrival order across banks
    int bank = 0;
    int next = kNone;  ///< next slot of the bank's list, or of the free list
  };

  /// A read issued to a bank, due at `ready`; `issue` orders equal cycles.
  struct Completion {
    Cycle ready;
    std::uint64_t issue;
    MemRequest request;
  };

  /// FIFO of completions. Row hits and row misses each have a constant
  /// latency, so each class completes in issue order. The storage doubles
  /// when full and is reused after that, so steady state allocates nothing.
  class CompletionFifo {
   public:
    bool empty() const { return size_ == 0; }
    const Completion& front() const { return buf_[head_]; }
    void push(const Completion& c);
    void pop() {
      head_ = (head_ + 1) & (buf_.size() - 1);
      --size_;
    }

   private:
    std::vector<Completion> buf_;  ///< power-of-two size once used
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  /// Removes slot `slot` (whose predecessor in its bank's list is `prev`)
  /// from the queue and frees it.
  void unlink(int slot, int prev);
  /// The cycle the earliest completion is ready, kNoCycle when none.
  Cycle next_completion() const;
  /// The FIFO pop_completion takes from next.
  CompletionFifo& next_fifo();

  DramConfig config_;
  std::vector<Bank> banks_;
  std::uint64_t occupied_ = 0;  ///< bit b set while banks_[b] has requests
  std::uint64_t hit_banks_ = 0;  ///< bit b set while banks_[b].hits > 0
  std::vector<Slot> slots_;  ///< queue_capacity slots, allocated once
  int free_ = kNone;         ///< head of the free-slot list
  int queued_ = 0;
  std::uint64_t next_seq_ = 0;
  Cycle bus_busy_until_ = 0;
  CompletionFifo hit_done_;
  CompletionFifo miss_done_;
  /// When a cycle finds every occupied bank busy, no request can issue
  /// before the earliest of them frees: skip the cycles until then, and
  /// report it as the issue bound in next_event. Invalidated by push (a
  /// new request may target a free bank).
  Cycle scan_skip_until_ = 0;
};

}  // namespace prosim
