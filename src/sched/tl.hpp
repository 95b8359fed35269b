// Two-Level (TL) warp scheduler, after Narasiman et al. (MICRO-2011) as
// implemented in GPGPU-Sim ("two_level_active").
//
// Each hardware scheduler keeps a small *active* set of warps that are the
// only candidates for issue (the rest wait in a FIFO *pending* queue —
// hidden from the issue stage via consider_mask). Active warps issue in
// loose round robin. A warp leaves the active set when it issues a
// long-latency operation (global load) or reaches a barrier — GPGPU-Sim
// demotes `waiting()` warps the same way — and the oldest *runnable*
// pending warp is promoted in its place, so warp groups drift apart in
// time and reach long-latency instructions at different points. Warps
// parked at a barrier are never promoted until the barrier releases
// (promoting them would let blocked warps squat in the active set and,
// in the worst case, deadlock the SM).
#pragma once

#include <algorithm>
#include <bit>
#include <deque>
#include <vector>

#include "common/check.hpp"
#include "sm/scheduler_policy.hpp"

namespace prosim {

class TlPolicy final : public SchedulerPolicy {
 public:
  explicit TlPolicy(int active_set_size = 6) : active_size_(active_set_size) {
    PROSIM_CHECK(active_set_size > 0);
  }

  std::string name() const override { return "tl"; }

  void attach(const PolicyContext& ctx) override {
    ctx_ = ctx;
    const auto n = static_cast<std::size_t>(ctx.num_schedulers);
    active_mask_.assign(n, 0);
    pending_.assign(n, {});
    next_.assign(n, 0);
    at_barrier_.assign(static_cast<std::size_t>(ctx.num_warp_slots), false);
  }

  std::uint64_t consider_mask(int sched_id) override {
    return active_mask_[static_cast<std::size_t>(sched_id)];
  }

  int pick(int sched_id, std::uint64_t ready_mask, Cycle /*now*/) override {
    // Loose round robin over the active warps (consider_mask hid the rest).
    return round_robin_pick(ready_mask,
                            next_[static_cast<std::size_t>(sched_id)],
                            ctx_.num_warp_slots);
  }

  void on_tb_launch(int tb_slot) override {
    for (int i = 0; i < ctx_.warps_per_tb; ++i) {
      const int w = tb_slot * ctx_.warps_per_tb + i;
      const auto s = static_cast<std::size_t>(sched_of(w));
      at_barrier_[w] = false;
      if (active_count(s) < active_size_) {
        activate(s, w);
      } else {
        pending_[s].push_back(w);
      }
    }
  }

  void on_warp_issue(int warp_slot, int /*active_threads*/,
                     bool long_latency) override {
    if (long_latency) demote(warp_slot);
  }

  void on_warp_barrier_arrive(int warp_slot, int /*tb_slot*/) override {
    at_barrier_[warp_slot] = true;
    demote(warp_slot);
  }

  void on_barrier_release(int tb_slot) override {
    for (int i = 0; i < ctx_.warps_per_tb; ++i) {
      at_barrier_[tb_slot * ctx_.warps_per_tb + i] = false;
    }
    // Demotions that found no runnable replacement left holes; refill.
    for (int s = 0; s < ctx_.num_schedulers; ++s) top_up(s);
  }

  void on_warp_finish(int warp_slot, int /*tb_slot*/) override {
    drop(warp_slot);
    top_up(sched_of(warp_slot));
  }

  void on_tb_finish(int tb_slot) override {
    // A retired TB's warps all finished and left already; a yielded TB
    // leaves with unfinished warps, which must not hold places in either
    // set while the TB is off the SM (its resume launches them afresh).
    for (int i = 0; i < ctx_.warps_per_tb; ++i) {
      const int w = tb_slot * ctx_.warps_per_tb + i;
      if (drop(w)) top_up(sched_of(w));
    }
  }

  // Test introspection: the active warps in ascending slot order.
  std::vector<int> active_set(int sched_id) const {
    std::vector<int> warps;
    for (std::uint64_t m = active_mask_[static_cast<std::size_t>(sched_id)];
         m != 0; m &= m - 1) {
      warps.push_back(std::countr_zero(m));
    }
    return warps;
  }
  const std::deque<int>& pending_set(int sched_id) const {
    return pending_[static_cast<std::size_t>(sched_id)];
  }

 private:
  int sched_of(int warp_slot) const {
    return warp_slot % ctx_.num_schedulers;
  }

  int active_count(std::size_t s) const {
    return std::popcount(active_mask_[s]);
  }
  bool is_active(std::size_t s, int warp_slot) const {
    return (active_mask_[s] >> warp_slot & 1) != 0;
  }
  void activate(std::size_t s, int warp_slot) {
    active_mask_[s] |= 1ull << warp_slot;
  }
  void deactivate(std::size_t s, int warp_slot) {
    active_mask_[s] &= ~(1ull << warp_slot);
  }

  /// Removes a warp from whichever set holds it; false if neither did.
  bool drop(int warp_slot) {
    const auto s = static_cast<std::size_t>(sched_of(warp_slot));
    if (is_active(s, warp_slot)) {
      deactivate(s, warp_slot);
      return true;
    }
    auto it = std::find(pending_[s].begin(), pending_[s].end(), warp_slot);
    if (it == pending_[s].end()) return false;
    pending_[s].erase(it);
    return true;
  }

  /// Promote the oldest runnable (not at-barrier) pending warp, if any.
  void promote_one(std::size_t s) {
    for (auto it = pending_[s].begin(); it != pending_[s].end(); ++it) {
      if (!at_barrier_[*it]) {
        activate(s, *it);
        pending_[s].erase(it);
        return;
      }
    }
  }

  void top_up(int sched_id) {
    const auto s = static_cast<std::size_t>(sched_id);
    while (active_count(s) < active_size_ && !pending_[s].empty()) {
      const std::uint64_t before = active_mask_[s];
      promote_one(s);
      if (active_mask_[s] == before) break;  // only blocked warps left
    }
  }

  /// Move a warp from active to the pending tail and promote a runnable
  /// replacement (the set may transiently shrink when every pending warp
  /// is blocked at a barrier).
  void demote(int warp_slot) {
    const auto s = static_cast<std::size_t>(sched_of(warp_slot));
    if (!is_active(s, warp_slot)) return;
    if (pending_[s].empty()) return;  // nobody could ever replace it
    deactivate(s, warp_slot);
    pending_[s].push_back(warp_slot);
    promote_one(s);
  }

  int active_size_;
  PolicyContext ctx_;
  /// Per scheduler, bit w set while warp w is in its active set: the only
  /// record of the set, and the consider mask itself.
  std::vector<std::uint64_t> active_mask_;
  std::vector<std::deque<int>> pending_;
  std::vector<int> next_;
  std::vector<bool> at_barrier_;
};

}  // namespace prosim
