// Crossbar interconnect between SMs and memory partitions.
//
// Modelled as one latency/bandwidth-limited queue per destination port in
// each direction (requests: SM -> partition, responses: partition -> SM).
// Contention appears as destination-queue backpressure: a full queue makes
// can_send() false and the sender retries, which surfaces in the SM as
// LDST-unit pipeline pressure — the effect the paper's Pipeline stalls
// capture.
#pragma once

#include <vector>

#include "common/delay_queue.hpp"
#include "mem/mem_config.hpp"
#include "mem/request.hpp"

namespace prosim {

class Interconnect {
 public:
  Interconnect(const MemConfig& config, int num_sms);

  /// Deterministic request routing: partition index for a line address.
  int partition_of(Addr line_addr) const;

  // ---- Request direction (SM -> partition) -----------------------------
  bool can_send_request(Addr line_addr) const;
  /// Free entries in the request port feeding `partition`: an SM whose
  /// LDST line this port refused wakes once it is non-zero.
  std::size_t request_free_slots(int partition) const {
    return to_partition_[static_cast<std::size_t>(partition)].free_slots();
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

  /// Sets the cycle the pops that follow belong to. O(1): each port resets
  /// its bandwidth budget on its first pop of a new cycle.
  void begin_cycle(Cycle now) { now_ = now; }

  /// True when no request or response is in flight.
  bool idle() const;

  /// Cycle the head of a port becomes poppable; kNoCycle when it is empty.
  /// Arrivals are FIFO with one fixed latency, so the head is the earliest.
  Cycle request_head_ready(int partition) const {
    return to_partition_[static_cast<std::size_t>(partition)].next_ready();
  }
  Cycle response_head_ready(int sm_id) const {
    return to_sm_[static_cast<std::size_t>(sm_id)].next_ready();
  }

  // Accounting.
  std::uint64_t requests_sent = 0;
  std::uint64_t responses_sent = 0;

 private:
  int num_partitions_;
  Cycle now_ = 0;
  std::vector<DelayQueue<MemRequest>> to_partition_;
  std::vector<DelayQueue<MemResponse>> to_sm_;
};

}  // namespace prosim
