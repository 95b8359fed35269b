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
  slots_.resize(static_cast<std::size_t>(std::max(config_.queue_capacity, 0)));
  for (int i = static_cast<int>(slots_.size()) - 1; i >= 0; --i) {
    slots_[static_cast<std::size_t>(i)].next = free_;
    free_ = i;
  }
}

void Dram::push(MemRequest request, Cycle /*now*/) {
  PROSIM_CHECK(can_accept());
  // Lines interleave across banks; a row spans row_bytes of one bank.
  const auto banks = static_cast<Addr>(config_.num_banks);
  const int b = static_cast<int>((request.line_addr / 128) % banks);
  const std::uint64_t row = request.line_addr / config_.row_bytes / banks;
  const int slot = free_;
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  free_ = s.next;
  s = {request, row, next_seq_++, b, kNone};
  ++queued_;
  Bank& bank = banks_[b];
  if (bank.tail == kNone) {
    bank.head = slot;
    occupied_ |= std::uint64_t{1} << b;
  } else {
    slots_[static_cast<std::size_t>(bank.tail)].next = slot;
  }
  bank.tail = slot;
  if (row == bank.open_row && bank.hits++ == 0) {
    hit_banks_ |= std::uint64_t{1} << b;
  }
  scan_skip_until_ = 0;  // the new request may be issuable immediately
}

void Dram::unlink(int slot, int prev) {
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  Bank& bank = banks_[s.bank];
  (prev == kNone ? bank.head : slots_[static_cast<std::size_t>(prev)].next) =
      s.next;
  if (bank.tail == slot) bank.tail = prev;
  if (bank.head == kNone) occupied_ &= ~(std::uint64_t{1} << s.bank);
  if (s.row == bank.open_row && --bank.hits == 0) {
    hit_banks_ &= ~(std::uint64_t{1} << s.bank);
  }
  s.next = free_;
  free_ = slot;
  --queued_;
}

void Dram::cycle(Cycle now) {
  if (queued_ == 0) return;
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
  // pass under plain FCFS) the oldest request on a ready bank. A bank's
  // list is in arrival order, so its candidate is its first hit, or its
  // head; the smallest sequence number among the candidates wins.
  int pick = kNone;
  int pick_prev = kNone;
  const std::uint64_t hit_ready =
      config_.scheduler == DramSchedulerKind::kFrFcfs ? ready & hit_banks_ : 0;
  for (std::uint64_t m = hit_ready != 0 ? hit_ready : ready; m != 0;
       m &= m - 1) {
    const Bank& bank = banks_[std::countr_zero(m)];
    int prev = kNone;
    int slot = bank.head;
    if (hit_ready != 0) {
      while (slots_[static_cast<std::size_t>(slot)].row != bank.open_row) {
        prev = slot;
        slot = slots_[static_cast<std::size_t>(slot)].next;
      }
    }
    if (pick == kNone || slots_[static_cast<std::size_t>(slot)].seq <
                             slots_[static_cast<std::size_t>(pick)].seq) {
      pick = slot;
      pick_prev = prev;
    }
  }
  const Slot pending = slots_[static_cast<std::size_t>(pick)];
  unlink(pick, pick_prev);

  Bank& bank = banks_[pending.bank];
  // An incidental hit on the open row (oldest-first pass) still pays only
  // the row-hit service time.
  const bool row_hit = bank.open_row == pending.row;
  const Cycle service =
      row_hit ? config_.row_hit_latency : config_.row_miss_latency;
  if (!row_hit) {
    // The open row changes: recount the bank's hits against the new one.
    bank.open_row = pending.row;
    bank.hits = 0;
    for (int s = bank.head; s != kNone;
         s = slots_[static_cast<std::size_t>(s)].next) {
      bank.hits += slots_[static_cast<std::size_t>(s)].row == bank.open_row;
    }
    const std::uint64_t bit = std::uint64_t{1} << pending.bank;
    hit_banks_ = bank.hits > 0 ? hit_banks_ | bit : hit_banks_ & ~bit;
  }
  bank.busy_until = now + service;
  bus_busy_until_ = now + config_.bus_cycles;
  const std::uint64_t issue = row_hits + row_misses;
  ++(row_hit ? row_hits : row_misses);
  if (pending.request.kind == MemReqKind::kWrite) {
    ++writes;  // fire-and-forget
    return;
  }
  ++reads;
  (row_hit ? hit_done_ : miss_done_).push({now + service, issue,
                                           pending.request});
}

void Dram::CompletionFifo::push(const Completion& c) {
  if (size_ == buf_.size()) {
    // Full (or never used): unroll into storage twice the size.
    std::vector<Completion> grown(std::max<std::size_t>(8, 2 * buf_.size()));
    for (std::size_t i = 0; i < size_; ++i) {
      grown[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    }
    buf_ = std::move(grown);
    head_ = 0;
  }
  buf_[(head_ + size_) & (buf_.size() - 1)] = c;
  ++size_;
}

Cycle Dram::next_completion() const {
  Cycle t = kNoCycle;
  if (!hit_done_.empty()) t = hit_done_.front().ready;
  if (!miss_done_.empty()) t = std::min(t, miss_done_.front().ready);
  return t;
}

Dram::CompletionFifo& Dram::next_fifo() {
  if (hit_done_.empty()) return miss_done_;
  if (miss_done_.empty()) return hit_done_;
  const Completion& h = hit_done_.front();
  const Completion& m = miss_done_.front();
  return h.ready < m.ready || (h.ready == m.ready && h.issue < m.issue)
             ? hit_done_
             : miss_done_;
}

Cycle Dram::next_event(Cycle now) const {
  Cycle t = kNoCycle;
  const Cycle done = next_completion();
  if (done != kNoCycle) t = std::max(done, now + 1);
  if (queued_ > 0) {
    t = std::min(t, std::max({now + 1, bus_busy_until_, scan_skip_until_}));
  }
  return t;
}

MemRequest Dram::pop_completion() {
  CompletionFifo& fifo = next_fifo();
  PROSIM_CHECK(!fifo.empty());
  const MemRequest request = fifo.front().request;
  fifo.pop();
  return request;
}

}  // namespace prosim
