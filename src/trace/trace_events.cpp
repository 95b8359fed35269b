#include "trace/trace_events.hpp"

namespace prosim {

const char* stall_cause_name(StallCause cause) {
  switch (cause) {
    case StallCause::kIssued: return "issued";
    case StallCause::kFuBusy: return "fu_busy";
    case StallCause::kScoreboardMem: return "scoreboard_mem";
    case StallCause::kScoreboardAlu: return "scoreboard_alu";
    case StallCause::kSpinWait: return "spin_wait";
    case StallCause::kBarrierWait: return "barrier_wait";
    case StallCause::kFinishWait: return "finish_wait";
    case StallCause::kFetch: return "fetch";
    case StallCause::kThrottled: return "throttled";
    case StallCause::kNoWarp: return "no_warp";
  }
  return "?";
}

const char* warp_state_name(WarpState state) {
  switch (state) {
    case WarpState::kUnallocated: return "unallocated";
    case WarpState::kIssued: return "issued";
    case WarpState::kEligible: return "eligible";
    case WarpState::kScoreboard: return "scoreboard";
    case WarpState::kMemPending: return "mem_pending";
    case WarpState::kSpinWait: return "spin_wait";
    case WarpState::kFuBusy: return "fu_busy";
    case WarpState::kFetch: return "fetch";
    case WarpState::kBarrierWait: return "barrier_wait";
    case WarpState::kFinishWait: return "finish_wait";
  }
  return "?";
}

const char* sim_event_kind_name(SimEventKind kind) {
  switch (kind) {
    case SimEventKind::kKernelArrival: return "kernel_arrival";
    case SimEventKind::kAdmissionGrant: return "admission_grant";
    case SimEventKind::kSmBind: return "sm_bind";
    case SimEventKind::kTbLaunch: return "tb_launch";
    case SimEventKind::kTbResume: return "tb_resume";
    case SimEventKind::kYieldRequest: return "yield_request";
    case SimEventKind::kTbCheckpoint: return "tb_checkpoint";
    case SimEventKind::kDemotion: return "demotion";
    case SimEventKind::kKernelFinish: return "kernel_finish";
    case SimEventKind::kSloMet: return "slo_met";
    case SimEventKind::kSloMissed: return "slo_missed";
    case SimEventKind::kSimEnd: return "sim_end";
  }
  return "unknown";
}

}  // namespace prosim
