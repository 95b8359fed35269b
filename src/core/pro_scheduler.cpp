#include "core/pro_scheduler.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "trace/trace_events.hpp"

namespace prosim {

void ProPolicy::attach(const PolicyContext& ctx) {
  PROSIM_CHECK(ctx.warps_per_tb <= kMaxWarpsPerTb);
  ctx_ = ctx;
  tbs_.assign(static_cast<std::size_t>(ctx.num_tb_slots), {});
  tb_order_.clear();
  sched_bits_.assign(static_cast<std::size_t>(ctx.num_schedulers), 0);
  for (int w = 0; w < ctx.num_warp_slots; ++w) {
    sched_bits_[static_cast<std::size_t>(w % ctx.num_schedulers)] |= 1ull << w;
  }
  fast_phase_ = true;
  phase_initialized_ = false;
  last_sort_ = 0;
  sort_ready_at_ = kNoCycle;
}

int ProPolicy::state_class(TbState state) const {
  // Lower class = higher priority. fastTBPhase: finishWait(H) >
  // barrierWait(M) > noWait(L); slowTBPhase: barrierWait > finishNoWait.
  switch (state) {
    case TbState::kFinishWait: return 0;
    case TbState::kBarrierWait: return 1;
    case TbState::kNoWait: return 2;
    case TbState::kFinishNoWait: return 2;
    default: return 3;  // kFree / kFinished: excluded from the order anyway
  }
}

ProPolicy::TbKey ProPolicy::key_of(int tb_slot) const {
  const TbInfo& tb = tbs_[tb_slot];
  switch (tb.state) {
    case TbState::kFinishWait:
      // More finished warps first; tie on more progress (§III-C.2).
      return {state_class(tb.state), tb.warps_finished, tb.event_progress};
    case TbState::kBarrierWait:
      // More warps at the barrier first; tie on more progress (§III-C.3).
      return {state_class(tb.state), tb.warps_at_barrier, tb.event_progress};
    case TbState::kNoWait:
    case TbState::kFinishNoWait:
      // Sticky key from the last THRESHOLD sort.
      return {state_class(tb.state), tb.snapshot_key, 0};
    default:
      return {state_class(tb.state), 0, 0};
  }
}

TbState ProPolicy::barrier_exit_state(const TbInfo& tb) const {
  if (!fast_phase_) return TbState::kFinishNoWait;
  if (tb.warps_finished > 0 && config_.handle_finish)
    return TbState::kFinishWait;
  return TbState::kNoWait;
}

void ProPolicy::sort_warps(int tb_slot, bool increasing) {
  std::uint8_t* order = tbs_[tb_slot].warp_order.data();
  const std::uint64_t* progress =
      ctx_.warp_progress + tb_slot * ctx_.warps_per_tb;
  std::stable_sort(order, order + ctx_.warps_per_tb,
                   [&](std::uint8_t a, std::uint8_t b) {
                     return increasing ? progress[a] < progress[b]
                                       : progress[a] > progress[b];
                   });
}

void ProPolicy::rebuild_order() {
  tb_order_.clear();
  for (int t = 0; t < ctx_.num_tb_slots; ++t) {
    if (tbs_[t].state != TbState::kFree &&
        tbs_[t].state != TbState::kFinished) {
      tb_order_.push_back(t);
    }
  }
  std::sort(tb_order_.begin(), tb_order_.end(), [&](int a, int b) {
    const TbKey ka = key_of(a);
    const TbKey kb = key_of(b);
    if (ka.cls != kb.cls) return ka.cls < kb.cls;
    if (ka.major != kb.major) return ka.major > kb.major;
    if (ka.minor != kb.minor) return ka.minor > kb.minor;
    // Final tie: global TB index ("prioritized based on their global
    // indices"), lower index first.
    return ctx_.tb_ctaid[a] < ctx_.tb_ctaid[b];
  });
}

std::vector<int> ProPolicy::priority_list() const {
  std::vector<int> warps;
  for (int t : tb_order_) {
    const int base = t * ctx_.warps_per_tb;
    for (int i = 0; i < ctx_.warps_per_tb; ++i) {
      warps.push_back(base + tbs_[t].warp_order[static_cast<std::size_t>(i)]);
    }
  }
  return warps;
}

void ProPolicy::check_phase(Cycle now) {
  const bool waiting = ctx_.tbs_waiting ? ctx_.tbs_waiting() : false;
  if (!phase_initialized_) {
    phase_initialized_ = true;
    fast_phase_ = waiting;
    if (!fast_phase_) {
      // Kernel that fits entirely: starts directly in slowTBPhase.
      for (auto& tb : tbs_) {
        if (tb.state == TbState::kNoWait ||
            tb.state == TbState::kFinishWait) {
          tb.state = TbState::kFinishNoWait;
        }
      }
      threshold_sort(now);
    }
    return;
  }
  if (!fast_phase_ || waiting) return;

  // fastToSlowTBPhaseTransition: merge finishWait and noWait TBs into
  // finishNoWait; re-sort their warps in increasing progress order
  // (Algorithm 1 lines 36-40 + §III-D).
  fast_phase_ = false;
  for (int t = 0; t < ctx_.num_tb_slots; ++t) {
    TbInfo& tb = tbs_[t];
    if (tb.state == TbState::kNoWait || tb.state == TbState::kFinishWait) {
      tb.state = TbState::kFinishNoWait;
      sort_warps(t, /*increasing=*/true);
    }
  }
  threshold_sort(now);
}

Cycle ProPolicy::sort_cost() const {
  // §III-E hardware: one shared comparator sorts the (<= T) TB keys, one
  // comparator per TB sorts its warps in parallel; insertion-sort worst
  // case n(n-1)/2 comparisons at one per cycle.
  int active = 0;
  for (const TbInfo& tb : tbs_) {
    if (tb.state != TbState::kFree && tb.state != TbState::kFinished)
      ++active;
  }
  const int wpt = ctx_.warps_per_tb;
  return static_cast<Cycle>(active * (active - 1) / 2 +
                            wpt * (wpt - 1) / 2);
}

void ProPolicy::threshold_sort(Cycle now) {
  last_sort_ = now;
  if (config_.model_sort_latency) {
    // Stage: the new order takes effect once the comparators finish.
    // (Simplification vs real hardware: progress is re-read at apply
    // time rather than latched at start — a drift of at most sort_cost()
    // instructions per warp.)
    sort_ready_at_ = now + sort_cost();
    return;
  }
  apply_threshold_sort(now);
}

void ProPolicy::apply_threshold_sort(Cycle now) {
  for (int t = 0; t < ctx_.num_tb_slots; ++t) {
    TbInfo& tb = tbs_[t];
    if (tb.state == TbState::kNoWait) {
      // fastTBPhase: most progress first (prose; flipped by the ablation
      // switch), mimicking Shortest Remaining Time First.
      const auto progress = static_cast<std::int64_t>(ctx_.tb_progress[t]);
      tb.snapshot_key =
          config_.fast_nowait_increasing ? -progress : progress;
      sort_warps(t, /*increasing=*/config_.fast_nowait_increasing);
    } else if (tb.state == TbState::kFinishNoWait) {
      // slowTBPhase: least progress first.
      tb.snapshot_key = -static_cast<std::int64_t>(ctx_.tb_progress[t]);
      sort_warps(t, /*increasing=*/true);
    }
  }
  rebuild_order();
  if (trace_ != nullptr) trace_->on_pro_sort(trace_sm_id_, now);

  if (order_trace_ != nullptr) {
    TbOrderSample sample;
    sample.cycle = now;
    for (int t : tb_order_) sample.ctaids.push_back(ctx_.tb_ctaid[t]);
    order_trace_->push_back(sample);
  }
}

Cycle ProPolicy::next_wakeup(Cycle /*now*/) const {
  // begin_cycle acts spontaneously at the next THRESHOLD sort and when a
  // staged sort (model_sort_latency) completes. Phase transitions follow
  // the kernel's TB queue emptying, and the Gpu wakes every SM bound to
  // the kernel on that cycle.
  Cycle t = last_sort_ + config_.sort_threshold;
  if (sort_ready_at_ != kNoCycle) t = std::min(t, sort_ready_at_);
  return t;
}

void ProPolicy::begin_cycle(Cycle now) {
  check_phase(now);
  if (sort_ready_at_ != kNoCycle && now >= sort_ready_at_) {
    sort_ready_at_ = kNoCycle;
    apply_threshold_sort(now);
  }
  if (now - last_sort_ >= config_.sort_threshold) threshold_sort(now);
}

void ProPolicy::on_tb_launch(int tb_slot) {
  TbInfo& tb = tbs_[tb_slot];
  tb.state = fast_phase_ || !phase_initialized_ ? TbState::kNoWait
                                                : TbState::kFinishNoWait;
  tb.warps_at_barrier = 0;
  tb.warps_finished = 0;
  // Zero progress so far: in the fast phase (most-progress-first) the new
  // TB starts at the lowest priority; in the slow phase
  // (least-progress-first) it starts at the highest.
  tb.snapshot_key = 0;
  tb.event_progress = 0;
  for (int i = 0; i < ctx_.warps_per_tb; ++i) {
    tb.warp_order[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  }
  rebuild_order();
}

void ProPolicy::on_tb_finish(int tb_slot) {
  tbs_[tb_slot].state = TbState::kFree;
  rebuild_order();
}

void ProPolicy::on_warp_barrier_arrive(int /*warp_slot*/, int tb_slot) {
  TbInfo& tb = tbs_[tb_slot];
  ++tb.warps_at_barrier;
  if (!config_.handle_barriers) return;

  if (tb.state != TbState::kBarrierWait) {
    // insertBarrierWarp: enter barrierWait, warps sorted in increasing
    // progress order so the least-progressed warp catches up first.
    tb.state = TbState::kBarrierWait;
    sort_warps(tb_slot, /*increasing=*/true);
  }
  // sortBarrierWaitStateTBs runs on every arrival (the count key changed).
  tb.event_progress = static_cast<std::int64_t>(ctx_.tb_progress[tb_slot]);
  rebuild_order();
}

void ProPolicy::on_barrier_release(int tb_slot) {
  TbInfo& tb = tbs_[tb_slot];
  tb.warps_at_barrier = 0;
  if (tb.state == TbState::kBarrierWait) {
    tb.state = barrier_exit_state(tb);
    if (tb.state == TbState::kFinishWait) {
      tb.event_progress =
          static_cast<std::int64_t>(ctx_.tb_progress[tb_slot]);
      sort_warps(tb_slot, /*increasing=*/true);
    } else if (tb.state == TbState::kFinishNoWait) {
      tb.snapshot_key = -static_cast<std::int64_t>(ctx_.tb_progress[tb_slot]);
      sort_warps(tb_slot, /*increasing=*/true);
    }
    // kNoWait keeps its sticky threshold-sort key and warp order.
  }
  rebuild_order();
}

void ProPolicy::on_warp_finish(int /*warp_slot*/, int tb_slot) {
  TbInfo& tb = tbs_[tb_slot];
  ++tb.warps_finished;
  if (!config_.handle_finish) return;
  if (tb.state == TbState::kFinished || tb.state == TbState::kFree) return;

  if (fast_phase_) {
    // insertFinishWarp: the first finished warp moves the TB to finishWait
    // with warps in increasing progress order.
    if (tb.state != TbState::kFinishWait) {
      tb.state = TbState::kFinishWait;
      sort_warps(tb_slot, /*increasing=*/true);
    }
    // sortFinishWaitStateTBs runs on every finish event.
    tb.event_progress = static_cast<std::int64_t>(ctx_.tb_progress[tb_slot]);
    rebuild_order();
  }
  // slowTBPhase: finishNoWait TBs keep their least-progress-first order.
}

int ProPolicy::pick(int sched_id, std::uint64_t ready_mask, Cycle /*now*/) {
  const std::uint64_t ready =
      ready_mask & sched_bits_[static_cast<std::size_t>(sched_id)];
  const int wpt = ctx_.warps_per_tb;
  for (int t : tb_order_) {
    const std::uint64_t tb_ready = ready & tb_warp_mask(wpt, t);
    if (tb_ready == 0) continue;
    const std::uint64_t in_tb = tb_ready >> (t * wpt);
    const std::uint8_t* order = tbs_[t].warp_order.data();
    for (int i = 0; i < wpt; ++i) {
      if ((in_tb >> order[i] & 1) != 0) return t * wpt + order[i];
    }
  }
  // tb_order_ holds every active TB and each warp_order all of its warps,
  // so a ready warp is always found.
  PROSIM_CHECK_MSG(false, "PRO priority list missed a ready warp");
  return -1;
}

}  // namespace prosim
