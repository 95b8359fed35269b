// Warp-level observability event model (docs/OBSERVABILITY.md).
//
// The SM issue stage classifies, per hardware scheduler per cycle, why it
// could or could not issue (StallCause — an exact refinement of the legacy
// SmStats idle/scoreboard/pipeline taxonomy), and tracks every warp slot's
// scheduling state (WarpState). A TraceSink attached to the Gpu receives
// each classification and state transition, and the Gpu's serving
// lifecycle (SimEvent: arrivals, bindings, launches, yields, finishes —
// the event journal's rows); with no sink attached the
// instrumentation is a single pointer test per cycle phase, and the
// event-driven fast-forward stays valid: quiet spans are bulk-applied as
// one on_sched_cycles(count) call, and warp states are provably constant
// across a skipped span so no per-warp events are needed.
//
// Tracing is strictly observational: sinks never feed back into the
// simulation, so results are bit-identical with tracing on or off.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace prosim {

/// Coarse legacy stall classes — the SmStats counters the paper's
/// Figures 1/5 and Table III are built from.
enum class LegacyStallClass : std::uint8_t {
  kIssued = 0,
  kIdle,
  kScoreboard,
  kPipeline,
};

/// Per-hardware-scheduler-cycle issue outcome. Exactly one cause is
/// reported per scheduler per cycle; legacy_stall_class() maps each cause
/// onto its coarse class, and SmStats::derive_legacy_counts() sums the
/// causes by class into SmStats::{issued,idle,scoreboard,pipeline}_stalls.
enum class StallCause : std::uint8_t {
  kIssued = 0,     ///< a warp issued (not a stall)
  kFuBusy,         ///< pipeline: ready candidates, functional unit busy
  kScoreboardMem,  ///< scoreboard: blocked on an in-flight load register
  kScoreboardAlu,  ///< scoreboard: blocked on an ALU/SFU/smem writeback
  kSpinWait,       ///< scoreboard: every blocked candidate busy-waits in a
                   ///< detected spin loop (lock/flag polling)
  kBarrierWait,    ///< idle: the scheduler's warps are parked at a barrier
  kFinishWait,     ///< idle: warps finished, TB waiting for its siblings
  kFetch,          ///< idle: instruction buffers refilling
  kThrottled,      ///< idle: live warps parked outside the policy's
                   ///< consider mask (Two-Level pending set)
  kNoWarp,         ///< idle: no allocated warp at all (startup / TB drain)
};
inline constexpr int kNumStallCauses = 10;

constexpr LegacyStallClass legacy_stall_class(StallCause cause) {
  switch (cause) {
    case StallCause::kIssued:
      return LegacyStallClass::kIssued;
    case StallCause::kFuBusy:
      return LegacyStallClass::kPipeline;
    case StallCause::kScoreboardMem:
    case StallCause::kScoreboardAlu:
    case StallCause::kSpinWait:
      return LegacyStallClass::kScoreboard;
    case StallCause::kBarrierWait:
    case StallCause::kFinishWait:
    case StallCause::kFetch:
    case StallCause::kThrottled:
    case StallCause::kNoWarp:
      return LegacyStallClass::kIdle;
  }
  return LegacyStallClass::kIdle;
}

const char* stall_cause_name(StallCause cause);

/// Scheduling state of one warp slot, sampled once per executed cycle.
/// The lane view of the paper's Figures 3/7: each warp is a track whose
/// colored slices are these states.
enum class WarpState : std::uint8_t {
  kUnallocated = 0,  ///< slot empty (not drawn in the lane view)
  kIssued,           ///< issued an instruction this cycle
  kEligible,         ///< ready to issue but lost arbitration
  kScoreboard,       ///< blocked on an ALU/SFU/smem writeback register
  kMemPending,       ///< blocked on an outstanding memory load register
  kSpinWait,         ///< busy-waiting in a detected spin loop
  kFuBusy,           ///< instruction ready but its functional unit is busy
  kFetch,            ///< instruction buffer refilling (fetch/redirect)
  kBarrierWait,      ///< parked at a barrier (§II-B barrierWait window)
  kFinishWait,       ///< retired, TB waiting for siblings (finishWait)
};

const char* warp_state_name(WarpState state);

/// Serving lifecycle event kinds, in rough lifecycle order.
enum class SimEventKind : std::uint8_t {
  kKernelArrival = 0,  ///< launch entered the GPU-level queue
  kAdmissionGrant,     ///< first TB of the kernel launched
  kSmBind,             ///< SM (re)bound to the kernel
  kTbLaunch,           ///< fresh TB launched (tb = ctaid)
  kTbResume,           ///< parked TB re-launched from a checkpoint
  kYieldRequest,       ///< preemptive yield requested (tb = ctaid)
  kTbCheckpoint,       ///< quiescent TB checkpointed + parked (a demotion)
  kDemotion,           ///< SM rebound away from a kernel with work left
  kKernelFinish,       ///< all of the kernel's TBs drained
  kSloMet,             ///< finished within the tenant deadline (aux = it)
  kSloMissed,          ///< finished past the tenant deadline (aux = it)
  kSimEnd,             ///< simulation completed
};

const char* sim_event_kind_name(SimEventKind kind);

/// One Gpu-level lifecycle event. Fields not meaningful for a kind stay
/// -1 / 0.
struct SimEvent {
  Cycle cycle = 0;
  SimEventKind kind = SimEventKind::kSimEnd;
  int kernel = -1;
  int sm = -1;
  int tb = -1;            ///< ctaid where meaningful
  std::uint64_t aux = 0;  ///< kind-specific payload (e.g. SLO deadline)
};

/// One TB's execution interval [start, end) on an SM (GpuResult::timelines).
struct TbTimelineEntry {
  int ctaid = -1;
  Cycle start = 0;
  Cycle end = 0;
};

/// Receiver of observability events. All hooks default to no-ops so sinks
/// implement only what they consume. One sink instance observes the whole
/// GPU (events carry the SM id); sinks are invoked from the single
/// simulation thread only.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// Sinks that return false here receive only on_sim_event: the SMs
  /// never see them, so they add no per-cycle work.
  virtual bool wants_sm_events() const { return true; }

  /// Sinks that return false here let the SM skip the per-warp state pass
  /// entirely (a sink that needs only the per-scheduler causes).
  virtual bool wants_warp_states() const { return true; }

  /// One hardware-scheduler cycle classified as `cause` — or `count`
  /// identical cycles when the event-driven loop bulk-applies a quiet span
  /// (every input to the classification is provably constant across it).
  virtual void on_sched_cycles(int /*sm*/, int /*sched*/,
                               StallCause /*cause*/, Cycle /*count*/) {}

  /// Warp `warp` on SM `sm` left state `prev` (entered at `since`) for
  /// `next` at cycle `now`; the closed slice is [since, now).
  virtual void on_warp_state(int /*sm*/, int /*warp*/, WarpState /*prev*/,
                             Cycle /*since*/, WarpState /*next*/,
                             Cycle /*now*/) {}

  virtual void on_tb_launch(int /*sm*/, int /*ctaid*/, Cycle /*now*/) {}
  virtual void on_tb_retire(int /*sm*/, int /*ctaid*/, Cycle /*start*/,
                            Cycle /*end*/) {}

  /// A PRO (or adaptive-PRO) THRESHOLD re-sort took effect on SM `sm`.
  virtual void on_pro_sort(int /*sm*/, Cycle /*now*/) {}

  /// A Gpu-level lifecycle event, kSimEnd last. A sink attached after
  /// construction first receives the kernel arrivals and SM bindings that
  /// preceded it.
  virtual void on_sim_event(const SimEvent& /*event*/) {}
};

}  // namespace prosim
