// Whole-GPU configuration: paper Table I (NVIDIA Fermi GTX480) by default.
#pragma once

#include <string>

#include "common/fingerprint.hpp"
#include "core/adaptive_pro.hpp"
#include "core/pro_config.hpp"
#include "faults/fault_config.hpp"
#include "gpu/watchdog.hpp"
#include "mem/mem_config.hpp"
#include "sm/sm_config.hpp"

namespace prosim {

enum class SchedulerKind {
  kLrr,          // Loose Round Robin (paper baseline)
  kGto,          // Greedy Then Oldest (paper baseline)
  kTl,           // Two-Level, Narasiman et al. (paper baseline)
  kPro,          // the paper's contribution
  kProAdaptive,  // paper's stated future work (profile-driven barriers)
  kCaws,         // related work: criticality-aware (Lee & Wu)
  kOwl,          // related work: CTA-group-aware (Jog et al.)
};

const char* scheduler_name(SchedulerKind kind);

/// Which policy to instantiate per SM, plus its parameters.
struct SchedulerSpec {
  SchedulerKind kind = SchedulerKind::kLrr;
  int tl_active_set = 6;
  int owl_group_size = 2;
  ProConfig pro;
  AdaptiveProConfig adaptive;  // for kProAdaptive (paper's future work)
};

struct GpuConfig {
  int num_sms = 14;  // Table I
  SmConfig sm;
  MemConfig mem;
  SchedulerSpec scheduler;

  /// Hard stop for runaway simulations: overrun raises a `livelock`
  /// SimError with a full blocked-warp diagnosis (see run_checked()).
  Cycle max_cycles = 200'000'000;

  /// Forward-progress watchdog (diagnoses hangs long before max_cycles).
  WatchdogConfig watchdog;

  /// Deterministic timing-fault injection (off by default).
  FaultConfig faults;

  /// Record final per-thread registers (golden-model comparisons).
  bool record_registers = false;
  /// Record the PRO TB priority order on SM 0 (Table IV).
  bool record_tb_order_sm0 = false;

  /// A small test-sized GPU (fewer SMs/partitions) for unit tests.
  static GpuConfig test_config();

  /// Stable content hash over every timing-relevant field (including the
  /// scheduler spec, fault schedule, and recording flags). Two configs with
  /// equal fingerprints simulate identically; the sweep runner's result
  /// cache keys on it. See src/gpu/config_fingerprint.cpp.
  void hash_into(Fingerprint& fp) const;
  std::uint64_t fingerprint() const;
  /// Short human-readable key ("PRO.sms14.f<seed>") prefixed to cache file
  /// names so the cache directory stays debuggable.
  std::string fingerprint_key() const;
};

}  // namespace prosim
