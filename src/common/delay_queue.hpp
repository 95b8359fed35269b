// DelayQueue models a latency + bandwidth limited link: items become visible
// `latency` cycles after push, and at most `bandwidth` items can be popped
// per cycle. Used for interconnect ports and the L2-hit response path.
//
// The per-cycle pop budget is keyed by cycle: the first pop of a new cycle
// resets it, so a queue nobody touches needs no per-cycle call.
#pragma once

#include <deque>
#include <utility>

#include "common/check.hpp"
#include "common/types.hpp"

namespace prosim {

template <typename T>
class DelayQueue {
 public:
  DelayQueue() = default;
  DelayQueue(Cycle latency, int bandwidth_per_cycle, std::size_t capacity)
      : latency_(latency),
        bandwidth_(bandwidth_per_cycle),
        capacity_(capacity) {
    PROSIM_CHECK(bandwidth_per_cycle > 0);
    PROSIM_CHECK(capacity > 0);
  }

  bool can_push() const { return queue_.size() < capacity_; }

  /// Pushes an item that becomes poppable at `now + latency`.
  void push(T item, Cycle now) {
    PROSIM_CHECK_MSG(can_push(), "DelayQueue overflow");
    queue_.emplace_back(now + latency_, std::move(item));
  }

  /// True if an item is ready at cycle `now` and bandwidth remains in it.
  bool can_pop(Cycle now) const {
    return (pops_cycle_ != now || pops_this_cycle_ < bandwidth_) &&
           !queue_.empty() && queue_.front().first <= now;
  }

  T pop(Cycle now) {
    PROSIM_CHECK(can_pop(now));
    if (pops_cycle_ != now) {
      pops_cycle_ = now;
      pops_this_cycle_ = 0;
    }
    ++pops_this_cycle_;
    T item = std::move(queue_.front().second);
    queue_.pop_front();
    return item;
  }

  /// Peek at the head item (which must be ready).
  const T& front() const {
    PROSIM_CHECK(!queue_.empty());
    return queue_.front().second;
  }

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }
  std::size_t free_slots() const { return capacity_ - queue_.size(); }

  /// Cycle at which the head item becomes poppable (kNoCycle when empty).
  /// Arrival times are monotone (FIFO, fixed latency), so the head is
  /// always the earliest — this is the queue's next-event time.
  Cycle next_ready() const {
    return queue_.empty() ? kNoCycle : queue_.front().first;
  }

 private:
  Cycle latency_ = 0;
  int bandwidth_ = 1;
  std::size_t capacity_ = 64;
  /// The cycle pops_this_cycle_ counts pops of.
  Cycle pops_cycle_ = kNoCycle;
  int pops_this_cycle_ = 0;
  std::deque<std::pair<Cycle, T>> queue_;
};

}  // namespace prosim
