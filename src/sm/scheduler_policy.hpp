// Warp-scheduler policy interface.
//
// One policy instance exists per SM (both hardware schedulers of the SM
// share it, exactly as PRO's per-SM TB state requires). Each cycle the SM
// computes, per hardware scheduler, the set of warps that could issue right
// now (i-buffer valid, not at barrier, scoreboard clear, functional unit
// free) and asks the policy to pick one.
//
// Policies observe the events the paper's Algorithm 1 consumes
// (insertBarrierWarp / insertFinishWarp / issue / TB launch+finish) through
// the on_* hooks, and read progress counters via PolicyContext.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <string>

#include "common/types.hpp"

namespace prosim {

class TraceSink;

/// Read-only view of SM state handed to the policy at attach time. Pointers
/// stay valid for the SM's lifetime and always reflect current state.
struct PolicyContext {
  int sm_id = 0;
  int num_warp_slots = 0;
  int num_tb_slots = 0;   // resident-TB slots actually usable for this kernel
  int warps_per_tb = 1;   // warp slots are blocked per TB: slot = tb*wpt + i
  int num_schedulers = 2;

  /// Instructions executed (weighted by active threads) per warp slot / TB
  /// slot — the paper's WarpProgress / TBProgress.
  const std::uint64_t* warp_progress = nullptr;
  const std::uint64_t* tb_progress = nullptr;

  /// Global TB index per slot (-1 when the slot is free).
  const int* tb_ctaid = nullptr;
  /// Monotonic launch sequence number per slot (age for GTO).
  const std::uint64_t* tb_launch_seq = nullptr;

  /// True while TBs are waiting in the GPU-level thread-block scheduler —
  /// the paper's TBsWaitingInThrdBlkSched(), i.e. fastTBPhase.
  std::function<bool()> tbs_waiting;
};

// ---- Mask algebra shared by the picks ----------------------------------

/// The warp slots of TB slot `tb_slot`, as a warp mask (slots are blocked
/// per TB: slot = tb * warps_per_tb + i).
inline std::uint64_t tb_warp_mask(int warps_per_tb, int tb_slot) {
  const std::uint64_t one_tb = warps_per_tb >= 64
                                   ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << warps_per_tb) - 1;
  return one_tb << (tb_slot * warps_per_tb);
}

/// Round robin over a nonempty mask: the lowest ready warp at or after
/// `next`, else the lowest ready warp. `next` moves just past the pick,
/// modulo `num_warp_slots` (every ready bit lies below it).
inline int round_robin_pick(std::uint64_t ready, int& next,
                            int num_warp_slots) {
  const std::uint64_t from_next = ready & (~std::uint64_t{0} << next);
  const int w = std::countr_zero(from_next != 0 ? from_next : ready);
  next = (w + 1) % num_warp_slots;
  return w;
}

class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  virtual std::string name() const = 0;
  virtual void attach(const PolicyContext& ctx) = 0;

  /// Pick one warp from `ready_mask` (bit w = warp slot w is issuable for
  /// hardware scheduler `sched_id` this cycle). Never called with an empty
  /// mask, nor with a bit at or above num_warp_slots; must return a set
  /// bit.
  virtual int pick(int sched_id, std::uint64_t ready_mask, Cycle now) = 0;

  /// Warps the policy wants the issue stage to consider at all this cycle.
  /// Warps outside the mask are invisible to both issue and stall
  /// classification — the Two-Level scheduler uses this to park its
  /// "pending" warps outside the active set.
  virtual std::uint64_t consider_mask(int /*sched_id*/) {
    return ~std::uint64_t{0};
  }

  /// Earliest future cycle at which the policy's begin_cycle would do
  /// something even without any warp event (threshold sorts, profiling
  /// epoch boundaries). Purely event-driven policies return kNoCycle. The
  /// SM's wake time never passes this cycle, so time-triggered
  /// policy behaviour lands on exactly the same cycle as under per-cycle
  /// ticking.
  virtual Cycle next_wakeup(Cycle /*now*/) const { return kNoCycle; }

  /// Observability sink shared with the owning SM (nullptr = untraced).
  /// Policies emit policy-level events (e.g. PRO re-sorts) through it;
  /// sinks never feed back into scheduling decisions. Wrapper policies
  /// override to propagate the sink to their inner policy.
  virtual void set_trace(TraceSink* trace, int sm_id) {
    trace_ = trace;
    trace_sm_id_ = sm_id;
  }

  // ---- Event hooks (default: ignore) ------------------------------------
  virtual void begin_cycle(Cycle /*now*/) {}
  virtual void on_tb_launch(int /*tb_slot*/) {}
  virtual void on_tb_finish(int /*tb_slot*/) {}
  /// `long_latency` is true for global loads/atomics-with-result — the ops
  /// the Two-Level scheduler demotes on.
  virtual void on_warp_issue(int /*warp_slot*/, int /*active_threads*/,
                             bool /*long_latency*/) {}
  virtual void on_warp_barrier_arrive(int /*warp_slot*/, int /*tb_slot*/) {}
  virtual void on_barrier_release(int /*tb_slot*/) {}
  virtual void on_warp_finish(int /*warp_slot*/, int /*tb_slot*/) {}

 protected:
  TraceSink* trace_ = nullptr;
  int trace_sm_id_ = 0;
};

}  // namespace prosim
