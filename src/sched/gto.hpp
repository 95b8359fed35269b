// Greedy-Then-Oldest (GTO) warp scheduler.
//
// Keeps issuing the same warp while it stays ready (greedy); when it
// stalls, falls back to the oldest warp — age is the launch order of the
// warp's thread block, tie-broken by warp slot. Prioritizing older warps
// creates the unequal progress that hides long latencies (paper §IV:
// PRO's edge over GTO is small because GTO already de-synchronizes warps,
// but GTO ignores barrier/finish divergence).
#pragma once

#include <vector>

#include "sm/scheduler_policy.hpp"

namespace prosim {

class GtoPolicy final : public SchedulerPolicy {
 public:
  std::string name() const override { return "gto"; }

  void attach(const PolicyContext& ctx) override {
    ctx_ = ctx;
    last_.assign(static_cast<std::size_t>(ctx.num_schedulers), -1);
  }

  int pick(int sched_id, std::uint64_t ready_mask, Cycle /*now*/) override {
    const int last = last_[static_cast<std::size_t>(sched_id)];
    if (last >= 0 && (ready_mask & (1ull << last))) return last;

    // The oldest TB holding a ready warp, one step per such TB (launch
    // sequences are distinct among resident TBs; a tie keeps the lower
    // slot), then its lowest ready warp slot.
    const int wpt = ctx_.warps_per_tb;
    int best_tb = -1;
    std::uint64_t best_seq = 0;
    for (std::uint64_t scan = ready_mask; scan != 0;) {
      const int t = std::countr_zero(scan) / wpt;
      scan &= ~tb_warp_mask(wpt, t);
      const std::uint64_t seq = ctx_.tb_launch_seq[t];
      if (best_tb < 0 || seq < best_seq) {
        best_tb = t;
        best_seq = seq;
      }
    }
    const int best =
        std::countr_zero(ready_mask & tb_warp_mask(wpt, best_tb));
    last_[static_cast<std::size_t>(sched_id)] = best;
    return best;
  }

  void on_warp_finish(int warp_slot, int /*tb_slot*/) override {
    for (auto& last : last_) {
      if (last == warp_slot) last = -1;
    }
  }

 private:
  PolicyContext ctx_;
  std::vector<int> last_;
};

}  // namespace prosim
