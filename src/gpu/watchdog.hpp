// Forward-progress watchdog.
//
// The only per-cycle cost is one inline `due()` comparison in Gpu::step;
// everything else runs at window granularity. At each window boundary the
// watchdog compares the GPU-wide issued-instruction count against the
// previous window and scans resident warps for overlong barrier waits.
// Three firing rules:
//  - no issue at all for `stall_windows` consecutive windows (true
//    deadlock: every resident warp is blocked),
//  - any warp waiting at a barrier for more than `barrier_timeout` cycles
//    (catches barrier mismatches where the missing warps still issue,
//    e.g. a partner warp spinning on a flag that is set after the barrier),
//  - with `starvation_timeout` > 0, any non-barrier warp that has not
//    issued for more than that many cycles while the GPU as a whole keeps
//    issuing (catches unfair schedulers starving a single warp — the
//    litmus harness's per-warp forward-progress rule; off by default).
// On firing it walks every resident warp and attaches a structured
// diagnosis — block reason, pending scoreboard registers, barrier
// arrival counts, per-SM MSHR/pending-load health — to the SimError.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/sim_error.hpp"
#include "common/types.hpp"

namespace prosim {

class SmCore;

struct WatchdogConfig {
  bool enabled = true;
  /// Cycles between progress checks (amortizes the warp scan).
  Cycle window = 50'000;
  /// Consecutive zero-issue windows before declaring a hang.
  int stall_windows = 2;
  /// Longest barrier wait considered legitimate.
  Cycle barrier_timeout = 2'000'000;
  /// Per-warp issue-gap starvation rule: a warp (not parked at a barrier)
  /// that has not issued for more than this many cycles fires a
  /// `starvation` error. 0 disables the rule (the default — ordinary
  /// workloads legitimately park warps for long stretches; the litmus
  /// harness turns it on).
  Cycle starvation_timeout = 0;
};

class Watchdog {
 public:
  explicit Watchdog(const WatchdogConfig& config)
      : config_(config), next_check_(config.window) {}

  /// Cheap per-cycle gate; the full check runs only when this is true.
  bool due(Cycle now) const { return config_.enabled && now >= next_check_; }

  /// Next window boundary. The GPU's clock never jumps past this, so
  /// progress checks run at exactly the same cycles as under ticking.
  Cycle next_check() const { return next_check_; }

  /// Window-boundary progress check. Returns the structured error when the
  /// simulation is stuck, std::nullopt otherwise.
  std::optional<SimError> check(
      Cycle now, const std::vector<std::unique_ptr<SmCore>>& sms,
      int tbs_waiting);

  /// Diagnosis for the max_cycles backstop (fires even under "progress",
  /// e.g. a warp spinning forever).
  SimError overrun_error(Cycle now,
                         const std::vector<std::unique_ptr<SmCore>>& sms,
                         Cycle max_cycles) const;

 private:
  static void collect(Cycle now,
                      const std::vector<std::unique_ptr<SmCore>>& sms,
                      SimError& error);
  SimError fire(ErrorCategory category, std::string message, Cycle now,
                const std::vector<std::unique_ptr<SmCore>>& sms) const;

  WatchdogConfig config_;
  Cycle next_check_;
  std::uint64_t last_issued_ = 0;
  int stalled_windows_ = 0;
};

}  // namespace prosim
