// The SM-facing memory system: interconnect + all memory partitions.
//
// SMs inject line-granular requests (produced by their coalescer/L1 miss
// path) and poll for responses addressed to them. All timing beyond the L1
// lives here.
//
// An optional FaultInjector perturbs timing at two points: extra per-
// response delivery latency (responses are diverted through per-SM delay
// queues) and transient backpressure on a partition's inject port. With no
// injector attached both paths collapse to the bare interconnect at the
// cost of one pointer test.
//
// cycle() ticks only the partitions that are due (MemoryPartition::wake_at);
// a sleeping partition's cycles would repeat its last one verbatim. The
// earliest partition wake is kept where wake times change (a tick, an
// inject, a freed response credit), so a cycle with no partition due and
// next_event() walk no partition. Under fault injection, or after
// set_tick_all(true), every partition ticks every cycle: that is the
// reference the event-driven path must match.
#pragma once

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "faults/fault_injector.hpp"
#include "mem/interconnect.hpp"
#include "mem/memory_partition.hpp"

namespace prosim {

class MemorySubsystem {
 public:
  MemorySubsystem(const MemConfig& config, int num_sms,
                  FaultInjector* faults = nullptr);

  /// True if the interconnect can accept a request for this address now.
  bool can_inject(Addr line_addr) {
    if (faults_ != nullptr &&
        faults_->dram_backpressure(icnt_.partition_of(line_addr), now_)) {
      return false;
    }
    return icnt_.can_send_request(line_addr);
  }

  void inject(const MemRequest& request, Cycle now) {
    icnt_.send_request(request, now);
    const int p = icnt_.partition_of(request.line_addr);
    wake_partition(p, now + config_.icnt_latency);
  }

  bool has_response(int sm_id) const {
    if (faults_ == nullptr) return icnt_.has_response(sm_id);
    const auto& queue = delayed_[static_cast<std::size_t>(sm_id)];
    return !queue.empty() && queue.front().ready <= now_;
  }
  MemResponse pop_response(int sm_id);

  /// Advances the interconnect and every due partition by one cycle. Call
  /// once per executed core cycle, before the SMs.
  void cycle(Cycle now) {
    now_ = now;
    icnt_.begin_cycle(now);
    if (tick_all_ || next_partition_ <= now) tick_partitions(now);
    if (faults_ != nullptr) divert_responses(now);
  }

  /// Ticks every partition every cycle (the reference mode).
  void set_tick_all(bool tick_all) {
    tick_all_ = tick_all || faults_ != nullptr;
  }

  bool idle() const;

  /// Earliest cached partition wake time: no partition does anything
  /// before it unless an SM injects a request or pops a response. May be
  /// <= the current cycle (a partition is due); kNoCycle when all sleep.
  /// The responses already in flight toward an SM are not covered (see
  /// Interconnect::response_head_ready).
  Cycle next_event() const { return next_partition_; }

  /// Partition-cycles actually executed (SimProfile).
  std::uint64_t partition_cycles_ticked() const {
    return partition_cycles_ticked_;
  }

  const std::vector<MemoryPartition>& partitions() const {
    return partitions_;
  }
  const Interconnect& interconnect() const { return icnt_; }
  /// The SM loop's request-port wakeups (see Interconnect::woken).
  void wait_request_slot(int partition, int sm_id) {
    icnt_.wait_request_slot(partition, sm_id);
  }
  void cancel_request_wait(int partition, int sm_id) {
    icnt_.cancel_request_wait(partition, sm_id);
  }

  // Aggregate accounting.
  std::uint64_t l2_hits() const;
  std::uint64_t l2_misses() const;
  std::uint64_t dram_row_hits() const;
  std::uint64_t dram_row_misses() const;

 private:
  struct DelayedResponse {
    Cycle ready;
    MemResponse response;
  };

  /// Ticks the due partitions (every partition under tick_all_) and
  /// recomputes next_partition_.
  void tick_partitions(Cycle now);
  void divert_responses(Cycle now);
  /// Moves partition `p`'s wake time up to `cycle` when that is earlier.
  void wake_partition(int p, Cycle cycle) {
    partitions_[static_cast<std::size_t>(p)].wake_by(cycle);
    next_partition_ = std::min(next_partition_, cycle);
  }
  /// Pops SM `sm_id`'s next interconnect response. The freed credit wakes
  /// a partition whose ready responses wait on it, next cycle.
  MemResponse take_response(int sm_id);

  MemConfig config_;
  Interconnect icnt_;
  std::vector<MemoryPartition> partitions_;
  FaultInjector* faults_ = nullptr;
  /// Per-SM in-order response queues, used only when faults are attached.
  std::vector<std::deque<DelayedResponse>> delayed_;
  Cycle now_ = 0;
  bool tick_all_ = false;
  /// Earliest MemoryPartition::wake_at over the partitions.
  Cycle next_partition_ = 0;
  std::uint64_t partition_cycles_ticked_ = 0;
};

}  // namespace prosim
