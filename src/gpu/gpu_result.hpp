// Results of one kernel simulation: the cycle count the paper's Figure 4
// compares, the stall breakdown of Figures 1/5 and Table III, per-TB
// timelines for Figure 2, and the PRO TB-order trace for Table IV.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/pro_scheduler.hpp"
#include "gpu/admission.hpp"
#include "sm/sm_core.hpp"

namespace prosim {

/// Wall-clock throughput of the simulation run that produced a GpuResult.
/// The wall time is measured by the *driver* (runner, CLI, perfbench),
/// never inside the deterministic core, and the struct is deliberately
/// excluded from result_io serialization and all fingerprints: it is
/// measurement metadata about a run, not simulation output, and must not
/// perturb the bit-identical result guarantee. Zero when the result came
/// from a cache or an untimed path.
struct SimThroughput {
  double wall_seconds = 0.0;
  double cycles_per_second = 0.0;  ///< simulated cycles / wall second
  double insts_per_second = 0.0;   ///< issued warp insts / wall second

  bool valid() const { return wall_seconds > 0.0; }

  static SimThroughput measure(double wall_seconds, Cycle cycles,
                               std::uint64_t warp_insts) {
    SimThroughput t;
    if (wall_seconds <= 0.0) return t;
    t.wall_seconds = wall_seconds;
    t.cycles_per_second = static_cast<double>(cycles) / wall_seconds;
    t.insts_per_second = static_cast<double>(warp_insts) / wall_seconds;
    return t;
  }
};

/// Simulator self-profiling for one run (docs/OBSERVABILITY.md): how the
/// engine executed, never what it computed. Like SimThroughput it is
/// deliberately excluded from result_io serialization and all
/// fingerprints — execution strategy (fast-forward, SM wakeups) is
/// bit-identical by contract, so none of this may reach canonical result
/// bytes.
struct SimProfile {
  std::uint64_t total_cycles = 0;
  /// Clock advances of more than one cycle, and the cycles they skipped.
  std::uint64_t ff_spans = 0;
  std::uint64_t ff_skipped_cycles = 0;
  /// SM-cycles actually executed; the rest slept (per-SM wakeups).
  std::uint64_t sm_cycles_ticked = 0;
  /// Memory-partition cycles actually executed; the rest slept.
  std::uint64_t partition_cycles_ticked = 0;
  /// Per-SM TB-admission decisions evaluated; the rest provably repeated
  /// their last no-op.
  std::uint64_t admission_evals = 0;
};

/// Per-kernel accounting of a concurrent (multi-stream) run: one slice per
/// launched kernel, accumulated across every SM generation that executed
/// its TBs. Empty for single-kernel runs, so the canonical result bytes —
/// and every fingerprint derived from them — are unchanged when serving is
/// off; result_io round-trips non-empty slices as the optional
/// `prosim-serving-v1` block, upgraded to `prosim-serving-v2` only when a
/// slice carries SLO/preemption data (slo_active — the documented
/// fingerprinting rule: legacy-admission documents stay byte-identical).
struct KernelSlice {
  int kernel_id = 0;
  std::string name;
  Cycle arrival = 0;       ///< cycle the launch entered the GPU-level queue
  Cycle first_launch = 0;  ///< cycle the first TB launched (if `launched`)
  bool launched = false;
  Cycle finish = 0;        ///< cycle the last TB drained (if `finished`)
  bool finished = false;
  /// This kernel's share of the SM counters (per-kernel IPC/stall story).
  SmStats stats;
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;

  /// SLO/preemption accounting (prosim-serving-v2; meaningful only when
  /// slo_active — i.e. the run used a preemptive admission policy).
  bool slo_active = false;
  TenantSpec tenant;
  std::uint64_t demotions = 0;    ///< TB yields + rebinds away from work
  std::uint64_t resumptions = 0;  ///< parked TBs re-launched
  /// Cycles the kernel had runnable work but zero SMs bound to it.
  std::uint64_t preempted_cycles = 0;

  /// Absolute deadline, or 0 when the tenant set none.
  Cycle deadline() const {
    return tenant.deadline_cycles == 0 ? 0 : arrival + tenant.deadline_cycles;
  }
  /// Finished within the tenant's deadline (true when no deadline is set).
  bool slo_met() const {
    return tenant.deadline_cycles == 0 ||
           (finished && finish <= arrival + tenant.deadline_cycles);
  }

  Cycle queueing_latency() const {
    return launched ? first_launch - arrival : 0;
  }
  Cycle completion_latency() const { return finished ? finish - arrival : 0; }
};

struct GpuResult {
  Cycle cycles = 0;

  /// Summed over all SMs and hardware schedulers.
  SmStats totals;
  std::vector<SmStats> per_sm;

  /// Per-SM thread-block execution intervals (Fig 2).
  std::vector<std::vector<TbTimelineEntry>> timelines;

  /// PRO's sorted TB order on SM 0 at every THRESHOLD sort (Table IV);
  /// empty unless record_tb_order_sm0 was set and the policy is PRO.
  std::vector<TbOrderSample> tb_order_sm0;

  /// Perturbation events observed by the fault injector (0 when fault
  /// injection is disabled) — lets tests prove faults actually fired.
  std::uint64_t faults_injected = 0;

  // Memory-system accounting.
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t dram_row_hits = 0;
  std::uint64_t dram_row_misses = 0;

  /// Wall-clock throughput of the run (see SimThroughput); filled by the
  /// driver after simulation, zero for cache hits. NOT serialized by
  /// result_io and NOT part of any fingerprint.
  SimThroughput throughput;

  /// Simulator self-profiling (see SimProfile); filled by Gpu::run().
  /// NOT serialized by result_io and NOT part of any fingerprint.
  SimProfile profile;

  /// Per-kernel slices of a concurrent run (arrival/launch/finish cycles
  /// plus this kernel's share of the SM counters), ordered by kernel id.
  /// Empty — and absent from the serialized document — for single-kernel
  /// runs.
  std::vector<KernelSlice> kernel_slices;

  /// Final per-thread registers, [ctaid][tid][reg] flattened; only filled
  /// when record_registers was set.
  std::vector<RegValue> registers;
  int regs_per_thread = 0;
  int block_dim = 0;

  std::uint64_t total_stalls() const {
    return totals.idle_stalls + totals.scoreboard_stalls +
           totals.pipeline_stalls;
  }
  double ipc() const {
    return cycles == 0
               ? 0.0
               : static_cast<double>(totals.thread_insts) /
                     static_cast<double>(cycles);
  }
};

}  // namespace prosim
