// Crossbar interconnect between SMs and memory partitions.
//
// Modelled as one latency/bandwidth-limited queue per destination port in
// each direction (requests: SM -> partition, responses: partition -> SM).
// Contention appears as destination-queue backpressure: a full queue makes
// can_send() false and the sender retries, which surfaces in the SM as
// LDST-unit pipeline pressure — the effect the paper's Pipeline stalls
// capture.
//
// The ports also keep the SM loop's wakeup state, so the Gpu reads masks
// instead of polling every SM: which response ports hold a response, and
// which SMs wait on a full request port that has popped this cycle.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/delay_queue.hpp"
#include "mem/mem_config.hpp"
#include "mem/request.hpp"

namespace prosim {

class Interconnect {
 public:
  /// SM sets are one-word masks.
  static constexpr int kMaxSms = 64;

  /// Requires 1 <= num_sms <= kMaxSms.
  Interconnect(const MemConfig& config, int num_sms);

  /// Deterministic request routing: partition index for a line address.
  int partition_of(Addr line_addr) const;

  // ---- Request direction (SM -> partition) -----------------------------
  bool can_send_request(Addr line_addr) const;
  /// Free entries in the request port feeding `partition`: an SM whose
  /// LDST line this port refused wakes once it is non-zero.
  std::size_t request_free_slots(int partition) const {
    return to_partition_[static_cast<std::size_t>(partition)]
        .queue.free_slots();
  }
  int num_partitions() const { return num_partitions_; }
  void send_request(const MemRequest& request, Cycle now);
  bool has_request(int partition, Cycle now) const;
  MemRequest peek_request(int partition) const;
  MemRequest pop_request(int partition);

  // ---- Response direction (partition -> SM) ----------------------------
  bool can_send_response(int sm_id) const;
  void send_response(const MemResponse& response, Cycle now);
  bool has_response(int sm_id) const;
  MemResponse pop_response(int sm_id);

  /// Sets the cycle the pops that follow belong to and clears woken(). O(1):
  /// each port resets its bandwidth budget on its first pop of a new cycle.
  void begin_cycle(Cycle now) {
    now_ = now;
    woken_ = 0;
  }

  /// True when no request or response is in flight.
  bool idle() const;

  /// Cycle the head of a port becomes poppable; kNoCycle when it is empty.
  /// Arrivals are FIFO with one fixed latency, so the head is the earliest.
  Cycle request_head_ready(int partition) const {
    return to_partition_[static_cast<std::size_t>(partition)]
        .queue.next_ready();
  }
  Cycle response_head_ready(int sm_id) const {
    return response_head_[static_cast<std::size_t>(sm_id)];
  }

  // ---- Wakeups -----------------------------------------------------------
  /// SMs whose response port is non-empty (send_response sets a bit,
  /// pop_response clears it with the port's last response); their heads
  /// are response_head_ready, kept beside the mask so that reading them
  /// touches no queue.
  std::uint64_t response_ports() const { return response_ports_; }
  /// SM `sm_id`'s LDST line was refused by `partition`'s full request
  /// port: the next pop_request there adds it to woken(), until the SM
  /// cancels on its next cycle.
  void wait_request_slot(int partition, int sm_id) {
    to_partition_[static_cast<std::size_t>(partition)].waiters |=
        1ull << sm_id;
  }
  void cancel_request_wait(int partition, int sm_id) {
    to_partition_[static_cast<std::size_t>(partition)].waiters &=
        ~(1ull << sm_id);
  }
  /// Waiters of the request ports popped this cycle. A waiter stays
  /// registered until cancelled: a slot freed here may be refilled by
  /// another SM before the waiter looks.
  std::uint64_t woken() const { return woken_; }

  // Accounting.
  std::uint64_t requests_sent = 0;
  std::uint64_t responses_sent = 0;

 private:
  int num_partitions_;
  Cycle now_ = 0;
  /// The wakeup state lives in storage the ports already have, so a Gpu
  /// allocates nothing more for it.
  struct RequestPort {
    DelayQueue<MemRequest> queue;
    std::uint64_t waiters = 0;  ///< SMs waiting for a free slot in it
  };
  std::vector<RequestPort> to_partition_;
  std::vector<DelayQueue<MemResponse>> to_sm_;
  std::uint64_t response_ports_ = 0;
  std::array<Cycle, kMaxSms> response_head_;
  std::uint64_t woken_ = 0;
};

}  // namespace prosim
