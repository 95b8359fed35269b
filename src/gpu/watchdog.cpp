#include "gpu/watchdog.hpp"

#include <sstream>

#include "sm/sm_core.hpp"

namespace prosim {

void Watchdog::collect(Cycle now,
                       const std::vector<std::unique_ptr<SmCore>>& sms,
                       SimError& error) {
  for (const auto& sm : sms) {
    SmHealth health;
    sm->diagnose(now, error.warps, health);
    error.sm_health.push_back(health);
  }
  // Point the error's primary location at the most telling blocked warp:
  // a barrier waiter if any, otherwise the first non-runnable warp.
  const WarpBlockInfo* primary = nullptr;
  for (const WarpBlockInfo& w : error.warps) {
    if (w.reason == WarpBlockReason::kRunnable) continue;
    if (primary == nullptr || (w.reason == WarpBlockReason::kBarrier &&
                               primary->reason != WarpBlockReason::kBarrier)) {
      primary = &w;
    }
  }
  if (primary != nullptr) {
    error.sm_id = primary->sm_id;
    error.warp = primary->warp;
    error.pc = primary->pc;
  }
}

SimError Watchdog::fire(ErrorCategory category, std::string message,
                        Cycle now,
                        const std::vector<std::unique_ptr<SmCore>>& sms) const {
  SimError error = SimError::make(category, std::move(message)).at_cycle(now);
  collect(now, sms, error);
  return error;
}

std::optional<SimError> Watchdog::check(
    Cycle now, const std::vector<std::unique_ptr<SmCore>>& sms,
    int tbs_waiting) {
  next_check_ = now + config_.window;

  std::uint64_t issued = 0;
  for (const auto& sm : sms)
    issued += sm->stats().cause_cycles[static_cast<int>(StallCause::kIssued)];
  if (issued != last_issued_) {
    last_issued_ = issued;
    stalled_windows_ = 0;
  } else {
    ++stalled_windows_;
  }

  // Rule 2: overlong barrier wait (fires even while other warps issue).
  SimError scan = SimError::make(ErrorCategory::kBarrierMismatch, "");
  collect(now, sms, scan);

  // Healthy idle: no resident warps and no TBs queued means the GPU is
  // legitimately between kernels (multi-stream runs waiting for the next
  // arrival) — that is not a stall. A single-kernel run (one launch at
  // cycle 0) can reach it only in the memory drain after its last TB
  // retired: the step loop stops once every stream finished and the
  // memory subsystem is idle.
  if (scan.warps.empty() && tbs_waiting == 0) {
    stalled_windows_ = 0;
    return std::nullopt;
  }
  int stuck_at_barrier = 0;
  for (const WarpBlockInfo& w : scan.warps) {
    if (w.reason == WarpBlockReason::kBarrier &&
        w.barrier_wait > config_.barrier_timeout) {
      ++stuck_at_barrier;
    }
  }
  if (stuck_at_barrier > 0) {
    std::ostringstream msg;
    msg << stuck_at_barrier << " warp(s) stuck at a barrier for more than "
        << config_.barrier_timeout
        << " cycles; the missing warps will never arrive";
    scan.message = msg.str();
    scan.cycle = now;
    return scan;
  }

  // Rule 3: per-warp starvation — a runnable (non-barrier) warp that has
  // not issued for longer than starvation_timeout, even though the GPU as
  // a whole keeps making progress. Deterministic under fast-forward:
  // issue gaps derive from exact per-warp issue cycles and this check
  // runs only at window boundaries, which cycle skipping never jumps.
  if (config_.starvation_timeout > 0) {
    const WarpBlockInfo* starved = nullptr;
    int starved_count = 0;
    for (const WarpBlockInfo& w : scan.warps) {
      if (w.reason == WarpBlockReason::kBarrier) continue;
      if (w.issue_gap <= config_.starvation_timeout) continue;
      ++starved_count;
      if (starved == nullptr || w.issue_gap > starved->issue_gap) {
        starved = &w;
      }
    }
    if (starved != nullptr) {
      std::ostringstream msg;
      msg << starved_count << " warp(s) starved: no issue for more than "
          << config_.starvation_timeout
          << " cycles while the GPU keeps issuing (worst: sm "
          << starved->sm_id << " warp " << starved->warp << ", "
          << starved->issue_gap << " cycles)";
      scan.category = ErrorCategory::kStarvation;
      scan.message = msg.str();
      scan.cycle = now;
      scan.sm_id = starved->sm_id;
      scan.warp = starved->warp;
      scan.pc = starved->pc;
      return scan;
    }
  }

  // Rule 1: zero GPU-wide issue across consecutive windows.
  if (stalled_windows_ >= config_.stall_windows) {
    ErrorCategory category = ErrorCategory::kLivelock;
    for (const SmHealth& h : scan.sm_health) {
      if (h.live_pending_loads > 0 || h.l1_mshr_occupancy > 0 ||
          h.const_mshr_occupancy > 0) {
        category = ErrorCategory::kMshrLeak;
        break;
      }
    }
    if (category == ErrorCategory::kLivelock) {
      for (const WarpBlockInfo& w : scan.warps) {
        if (w.reason == WarpBlockReason::kBarrier) {
          category = ErrorCategory::kBarrierMismatch;
          break;
        }
      }
    }
    std::ostringstream msg;
    msg << "no instruction issued GPU-wide for "
        << static_cast<std::uint64_t>(stalled_windows_) * config_.window
        << " cycles (" << scan.warps.size() << " resident warp(s), "
        << tbs_waiting << " TB(s) still waiting for launch)";
    scan.category = category;
    scan.message = msg.str();
    scan.cycle = now;
    return scan;
  }
  return std::nullopt;
}

SimError Watchdog::overrun_error(
    Cycle now, const std::vector<std::unique_ptr<SmCore>>& sms,
    Cycle max_cycles) const {
  std::ostringstream msg;
  msg << "simulation exceeded max_cycles (" << max_cycles
      << ") without draining";
  return fire(ErrorCategory::kLivelock, msg.str(), now, sms);
}

}  // namespace prosim
