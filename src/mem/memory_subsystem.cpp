#include "mem/memory_subsystem.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace prosim {

MemorySubsystem::MemorySubsystem(const MemConfig& config, int num_sms,
                                 FaultInjector* faults)
    : config_(config),
      icnt_(config, num_sms),
      faults_(faults),
      tick_all_(faults != nullptr) {
  partitions_.reserve(static_cast<std::size_t>(config.num_partitions));
  for (int p = 0; p < config.num_partitions; ++p) {
    partitions_.emplace_back(config, p);
  }
  if (faults_ != nullptr) {
    delayed_.resize(static_cast<std::size_t>(num_sms));
  }
}

void MemorySubsystem::tick_partitions(Cycle now) {
  Cycle next = kNoCycle;
  for (auto& partition : partitions_) {
    if (tick_all_ || partition.wake_at() <= now) {
      partition.cycle(now, icnt_);
      ++partition_cycles_ticked_;
    }
    next = std::min(next, partition.wake_at());
  }
  next_partition_ = next;
}

void MemorySubsystem::divert_responses(Cycle now) {
  for (int sm = 0; sm < static_cast<int>(delayed_.size()); ++sm) {
    auto& queue = delayed_[static_cast<std::size_t>(sm)];
    // has_response honors the interconnect's per-cycle response bandwidth,
    // so the diversion inherits the same delivery rate.
    while (icnt_.has_response(sm)) {
      Cycle ready = now + faults_->response_delay(sm);
      // Responses to one SM stay in order: a delayed head holds back
      // everything behind it (in-flight reordering is not modelled).
      if (!queue.empty()) ready = std::max(ready, queue.back().ready);
      queue.push_back({ready, take_response(sm)});
    }
  }
}

MemResponse MemorySubsystem::take_response(int sm_id) {
  for (int p = 0; p < config_.num_partitions; ++p) {
    if (partitions_[static_cast<std::size_t>(p)].credit_wait_sm() == sm_id) {
      wake_partition(p, now_ + 1);
    }
  }
  return icnt_.pop_response(sm_id);
}

MemResponse MemorySubsystem::pop_response(int sm_id) {
  if (faults_ == nullptr) return take_response(sm_id);
  auto& queue = delayed_[static_cast<std::size_t>(sm_id)];
  PROSIM_CHECK(!queue.empty() && queue.front().ready <= now_);
  MemResponse response = queue.front().response;
  queue.pop_front();
  return response;
}

bool MemorySubsystem::idle() const {
  if (!icnt_.idle()) return false;
  for (const auto& queue : delayed_) {
    if (!queue.empty()) return false;
  }
  for (const auto& partition : partitions_) {
    if (!partition.idle()) return false;
  }
  return true;
}

std::uint64_t MemorySubsystem::l2_hits() const {
  std::uint64_t total = 0;
  for (const auto& p : partitions_) total += p.l2().hits;
  return total;
}

std::uint64_t MemorySubsystem::l2_misses() const {
  std::uint64_t total = 0;
  for (const auto& p : partitions_) total += p.l2().misses;
  return total;
}

std::uint64_t MemorySubsystem::dram_row_hits() const {
  std::uint64_t total = 0;
  for (const auto& p : partitions_) total += p.dram().row_hits;
  return total;
}

std::uint64_t MemorySubsystem::dram_row_misses() const {
  std::uint64_t total = 0;
  for (const auto& p : partitions_) total += p.dram().row_misses;
  return total;
}

}  // namespace prosim
