#include "mem/interconnect.hpp"

#include "common/check.hpp"

namespace prosim {

Interconnect::Interconnect(const MemConfig& config, int num_sms)
    : num_partitions_(config.num_partitions) {
  PROSIM_CHECK(num_sms > 0 && num_sms <= kMaxSms);
  PROSIM_CHECK(num_partitions_ > 0);
  response_head_.fill(kNoCycle);
  to_partition_.assign(
      static_cast<std::size_t>(num_partitions_),
      RequestPort{DelayQueue<MemRequest>(
          config.icnt_latency, config.icnt_bandwidth,
          static_cast<std::size_t>(config.icnt_queue_capacity))});
  to_sm_.assign(static_cast<std::size_t>(num_sms),
                DelayQueue<MemResponse>(
                    config.icnt_latency, config.icnt_bandwidth,
                    static_cast<std::size_t>(config.icnt_queue_capacity)));
}

int Interconnect::partition_of(Addr line_addr) const {
  // Spread consecutive lines across partitions; the shift skips the line
  // offset (128B) so neighbouring lines land on different partitions.
  return static_cast<int>((line_addr >> 7) % num_partitions_);
}

bool Interconnect::can_send_request(Addr line_addr) const {
  return to_partition_[static_cast<std::size_t>(partition_of(line_addr))]
      .queue.can_push();
}

void Interconnect::send_request(const MemRequest& request, Cycle now) {
  ++requests_sent;
  to_partition_[static_cast<std::size_t>(partition_of(request.line_addr))]
      .queue.push(request, now);
}

bool Interconnect::has_request(int partition, Cycle now) const {
  return to_partition_[static_cast<std::size_t>(partition)].queue.can_pop(now);
}

MemRequest Interconnect::peek_request(int partition) const {
  return to_partition_[static_cast<std::size_t>(partition)].queue.front();
}

MemRequest Interconnect::pop_request(int partition) {
  RequestPort& port = to_partition_[static_cast<std::size_t>(partition)];
  woken_ |= port.waiters;
  return port.queue.pop(now_);
}

bool Interconnect::can_send_response(int sm_id) const {
  return to_sm_[static_cast<std::size_t>(sm_id)].can_push();
}

void Interconnect::send_response(const MemResponse& response, Cycle now) {
  ++responses_sent;
  const auto s = static_cast<std::size_t>(response.sm_id);
  to_sm_[s].push(response, now);
  response_ports_ |= 1ull << response.sm_id;
  response_head_[s] = to_sm_[s].next_ready();
}

bool Interconnect::has_response(int sm_id) const {
  return to_sm_[static_cast<std::size_t>(sm_id)].can_pop(now_);
}

MemResponse Interconnect::pop_response(int sm_id) {
  const auto s = static_cast<std::size_t>(sm_id);
  MemResponse response = to_sm_[s].pop(now_);
  response_head_[s] = to_sm_[s].next_ready();
  if (to_sm_[s].empty()) response_ports_ &= ~(1ull << sm_id);
  return response;
}

bool Interconnect::idle() const {
  for (const auto& port : to_partition_) {
    if (!port.queue.empty()) return false;
  }
  for (const auto& q : to_sm_) {
    if (!q.empty()) return false;
  }
  return true;
}

}  // namespace prosim
