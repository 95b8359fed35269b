// PRO: the Progress-Aware warp scheduler (the paper's contribution,
// Algorithm 1 + Fig. 3).
//
// Both hardware schedulers of an SM share one ProPolicy instance, which
// maintains:
//  - per-TB state (noWait / barrierWait / finishWait / finishNoWait),
//  - per-TB priority keys: state class first, then a within-state key
//    (finishWait: more finished warps, then more progress; barrierWait:
//    more warps at the barrier, then more progress; noWait fastTBPhase:
//    more progress, sticky between THRESHOLD-cycle sorts; finishNoWait
//    slowTBPhase: *less* progress, sticky likewise),
//  - per-TB warp orderings (noWait fast phase: decreasing progress;
//    barrierWait / finishWait / finishNoWait: increasing progress — the
//    least-progressed warp first so stragglers catch up).
//
// pick() walks TBs in priority order, tests each TB's warp mask against
// the requesting hardware scheduler's ready warps, and walks the warp order
// of the first TB with a hit — "the warps of a higher-priority TB have
// higher priority than the warps of a lower-priority TB".
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/pro_config.hpp"
#include "core/tb_state.hpp"
#include "sm/scheduler_policy.hpp"

namespace prosim {

/// One snapshot of the TB priority order (Table IV rows).
struct TbOrderSample {
  Cycle cycle = 0;
  std::vector<int> ctaids;  // highest priority first
};

class ProPolicy final : public SchedulerPolicy {
 public:
  explicit ProPolicy(const ProConfig& config = {}) : config_(config) {}

  std::string name() const override { return "pro"; }
  void attach(const PolicyContext& ctx) override;

  int pick(int sched_id, std::uint64_t ready_mask, Cycle now) override;

  Cycle next_wakeup(Cycle now) const override;
  void begin_cycle(Cycle now) override;
  void on_tb_launch(int tb_slot) override;
  void on_tb_finish(int tb_slot) override;
  void on_warp_barrier_arrive(int warp_slot, int tb_slot) override;
  void on_barrier_release(int tb_slot) override;
  void on_warp_finish(int warp_slot, int tb_slot) override;

  /// Record every THRESHOLD-sort's TB order into `sink` (Table IV).
  void set_order_trace(std::vector<TbOrderSample>* sink) {
    order_trace_ = sink;
  }

  /// Live toggle for the adaptive variant (applies to subsequent barrier
  /// events; TBs already in barrierWait drain normally).
  void set_barrier_handling(bool enabled) {
    config_.handle_barriers = enabled;
  }

  // Test introspection.
  TbState tb_state(int tb_slot) const { return tbs_[tb_slot].state; }
  bool in_fast_phase() const { return fast_phase_; }
  /// Every active TB's warp slots, highest priority first (the order
  /// pick() serves, before filtering by scheduler and readiness).
  std::vector<int> priority_list() const;
  const ProConfig& config() const { return config_; }

 private:
  /// Ready masks are 64-bit (SmCore), so a TB has at most 64 warps.
  static constexpr int kMaxWarpsPerTb = 64;

  struct TbInfo {
    TbState state = TbState::kFree;
    int warps_at_barrier = 0;
    int warps_finished = 0;
    /// Sticky progress key from the last THRESHOLD sort, used while in
    /// noWait / finishNoWait (signed so "decreasing progress" and
    /// "increasing progress" are both "larger key first").
    std::int64_t snapshot_key = 0;
    /// Progress sampled at the last barrier/finish event, used as the
    /// tie-break key while in barrierWait / finishWait.
    std::int64_t event_progress = 0;
    /// The first warps_per_tb entries: warp indices within the TB, highest
    /// priority first. Inline, so pick() reads it beside the TB's state.
    std::array<std::uint8_t, kMaxWarpsPerTb> warp_order{};
  };

  struct TbKey {
    int cls;
    std::int64_t major;
    std::int64_t minor;
  };
  TbKey key_of(int tb_slot) const;

  void check_phase(Cycle now);
  void threshold_sort(Cycle now);
  /// Applies the progress-derived keys/warp orders (immediately, or when
  /// a staged sort completes under model_sort_latency).
  void apply_threshold_sort(Cycle now);
  /// Comparator cycles one full sort pass takes (§III-E hardware).
  Cycle sort_cost() const;
  /// Sort warps of one TB by progress; `increasing=true` puts the
  /// least-progressed warp first.
  void sort_warps(int tb_slot, bool increasing);
  /// Recompute the state-class + key ordering of TBs.
  void rebuild_order();
  int state_class(TbState state) const;
  /// Exit state after a barrier completes, by phase and finish count.
  TbState barrier_exit_state(const TbInfo& tb) const;

  ProConfig config_;
  PolicyContext ctx_;
  std::vector<TbInfo> tbs_;
  std::vector<int> tb_order_;  // active TB slots, priority order
  /// Per hardware scheduler, the warp slots it owns (w % num_schedulers).
  std::vector<std::uint64_t> sched_bits_;
  bool fast_phase_ = true;
  bool phase_initialized_ = false;
  Cycle last_sort_ = 0;
  /// Staged sort completion time under model_sort_latency (kNoCycle =
  /// nothing in flight).
  Cycle sort_ready_at_ = kNoCycle;
  std::vector<TbOrderSample>* order_trace_ = nullptr;
};

}  // namespace prosim
