// One memory partition: an L2 cache slice backed by one DRAM channel.
//
// Policies (GPGPU-Sim-like at the granularity we keep):
//  - reads/atomics: L2 write-back write-allocate; misses go through an MSHR
//    (merging across SMs) to DRAM; atomics perform their read-modify-write
//    at the L2 and dirty the line.
//  - plain writes: update + dirty on hit, forwarded to DRAM on miss
//    (no-allocate); always fire-and-forget toward the SM.
//  - dirty victims generate DRAM writes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>

#include "common/delay_queue.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/interconnect.hpp"
#include "mem/mshr.hpp"

namespace prosim {

class MemoryPartition {
 public:
  MemoryPartition(const MemConfig& config, int partition_id);

  /// Advances one cycle: drains DRAM completions, serves one incoming
  /// request from the interconnect, pushes ready responses back, and
  /// caches wake_at().
  void cycle(Cycle now, Interconnect& icnt);

  bool idle() const {
    return dram_.idle() && ready_responses_.empty() &&
           pending_writebacks_.empty() && hit_responses_.empty() &&
           mshr_.occupancy() == 0;
  }

  /// Earliest cycle at which cycle() can do anything on its own, cached by
  /// the last cycle(): the DRAM's next issue or completion, the next L2-hit
  /// response maturing, the request-port head maturing (or now + 1 after
  /// serving one), or now + 1 while a writeback can enter the DRAM queue. A
  /// request head blocked on the L2 MSHR or the DRAM queue waits for the
  /// DRAM's next event; one blocked on the hit path, for the next hit
  /// response. Two wakeups come from outside (see wake_by): a request sent
  /// to an empty port, and a response credit freed while ready responses
  /// wait (credit_wait_sm). Every cycle before wake_at() would repeat the
  /// last one verbatim, because a blocked head changes nothing.
  Cycle wake_at() const { return wake_at_; }
  /// Moves wake_at() up to `cycle` when that is earlier.
  void wake_by(Cycle cycle) { wake_at_ = std::min(wake_at_, cycle); }
  /// The SM whose response-port credit the ready responses wait on, or -1
  /// when none wait.
  int credit_wait_sm() const {
    return ready_responses_.empty() ? -1 : ready_responses_.front().sm_id;
  }

  const Cache& l2() const { return l2_; }
  const Dram& dram() const { return dram_; }
  std::uint64_t mshr_merges() const { return mshr_.merges; }

 private:
  struct MissToken {
    int sm_id;
    std::uint32_t token;
    bool is_atomic;
    bool is_const;
  };

  void drain_dram(Cycle now);
  /// Serves the request-port head if it can go; true when it was popped.
  bool serve_request(Cycle now, Interconnect& icnt);

  MemConfig config_;
  int partition_id_;
  Cache l2_;
  Mshr<MissToken> mshr_;
  Dram dram_;

  /// L2-hit responses delayed by the L2 access latency.
  DelayQueue<MemResponse> hit_responses_;
  /// Responses ready to enter the interconnect (waiting for credit).
  std::deque<MemResponse> ready_responses_;
  /// Dirty victim writebacks waiting for DRAM queue space.
  std::deque<Addr> pending_writebacks_;
  Cycle wake_at_ = 0;
};

}  // namespace prosim
