// Loose Round Robin (LRR) warp scheduler — the baseline the paper reports
// 1.12x geomean speedup over. Each hardware scheduler keeps a rotation
// pointer and picks the first ready warp after the last one it issued, so
// every warp gets roughly equal service and (as the paper's §II-A observes)
// warps tend to reach long-latency instructions together.
#pragma once

#include <vector>

#include "sm/scheduler_policy.hpp"

namespace prosim {

class LrrPolicy final : public SchedulerPolicy {
 public:
  std::string name() const override { return "lrr"; }

  void attach(const PolicyContext& ctx) override {
    ctx_ = ctx;
    next_.assign(static_cast<std::size_t>(ctx.num_schedulers), 0);
  }

  int pick(int sched_id, std::uint64_t ready_mask, Cycle /*now*/) override {
    // The first ready warp after the previous pick, circularly.
    return round_robin_pick(ready_mask,
                            next_[static_cast<std::size_t>(sched_id)],
                            ctx_.num_warp_slots);
  }

 private:
  PolicyContext ctx_;
  std::vector<int> next_;
};

}  // namespace prosim
