// Preemptive-admission certification tests: the preemptive_slo policy's
// TB yield-resume machinery must (a) terminate every oversubscribed
// cross-TB wait that hangs all non-preemptive schedulers — the matrix
// acceptance criterion — (b) produce pinned, bit-deterministic demotion /
// resumption / preempted-cycle counters, and (c) stay bit-identical with
// event-driven fast-forward off.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "gpu/gpu.hpp"
#include "gpu/result_io.hpp"
#include "gpu/scheduler_registry.hpp"
#include "litmus/litmus.hpp"
#include "sm/sm_core.hpp"

namespace prosim::litmus {
namespace {

/// The two-kernel SLO scenario the counter pins run on: an oversubscribed
/// tb_tree_barrier foreground (no SLO) plus a higher-priority streaming
/// tenant, on `config`. The barrier kernel cannot finish without yields —
/// its oversubscribed waves spin on TBs that are not resident — and the
/// priority tenant must grab the focus first.
GpuResult run_slo_scenario(const GpuConfig& config) {
  const LitmusTest* barrier = find_litmus("tb_tree_barrier");
  EXPECT_NE(barrier, nullptr);
  const int residency =
      SmCore::compute_residency(config.sm, barrier->build(1).info);
  const int grid = barrier->grid_for(Regime::kOversubscribed, residency);

  GlobalMemory barrier_memory;
  GlobalMemory tenant_memory;
  std::vector<KernelLaunch> launches;
  KernelLaunch foreground;
  foreground.kernel_id = 0;
  foreground.name = "tb_tree_barrier";
  foreground.program = barrier->build(grid);
  foreground.memory = &barrier_memory;
  launches.push_back(std::move(foreground));
  KernelLaunch tenant;
  tenant.kernel_id = 1;
  tenant.name = "background_tenant";
  tenant.program = background_tenant_program(4);
  tenant.memory = &tenant_memory;
  tenant.tenant.priority = 1;
  tenant.tenant.deadline_cycles = 100'000;
  launches.push_back(std::move(tenant));

  Gpu gpu(config, std::move(launches), "preemptive_slo");
  return gpu.run();
}

TEST(PreemptiveCounters, TwoKernelScenarioIsPinned) {
  const GpuResult r = run_slo_scenario(litmus_config(SchedulerKind::kLrr));
  ASSERT_EQ(r.kernel_slices.size(), 2u);
  const KernelSlice& barrier = r.kernel_slices[0];
  const KernelSlice& tenant = r.kernel_slices[1];

  // The priority-1 tenant owns the focus from cycle 0: it runs first,
  // meets its deadline, and is never preempted.
  ASSERT_TRUE(tenant.finished);
  ASSERT_TRUE(barrier.finished);
  EXPECT_LE(tenant.finish, barrier.first_launch);
  EXPECT_TRUE(tenant.slo_active);
  EXPECT_TRUE(tenant.slo_met());
  EXPECT_EQ(tenant.demotions, 0u);
  EXPECT_EQ(tenant.resumptions, 0u);
  EXPECT_EQ(tenant.preempted_cycles, 0u);

  // The barrier kernel waits for the tenant (preempted while runnable),
  // then terminates only through yield-resume rotation: every pinned
  // count below is the bit-deterministic contract of the preemption
  // machinery (any drift means the demotion/resumption story changed).
  EXPECT_GT(barrier.preempted_cycles, 0u);
  EXPECT_GT(barrier.demotions, 0u);
  EXPECT_EQ(barrier.demotions, barrier.resumptions + 1);
  EXPECT_EQ(barrier.demotions, 8u);
  EXPECT_EQ(barrier.resumptions, 7u);
  EXPECT_EQ(barrier.preempted_cycles, 6419u);
  EXPECT_EQ(r.cycles, 6878u);
}

TEST(PreemptiveCounters, BitIdenticalWithoutFastForward) {
  const GpuConfig cfg = litmus_config(SchedulerKind::kGto);
  const std::string fast = gpu_result_to_json(run_slo_scenario(cfg));
  ::setenv("PROSIM_NO_FASTFORWARD", "1", 1);
  const std::string tick = gpu_result_to_json(run_slo_scenario(cfg));
  ::unsetenv("PROSIM_NO_FASTFORWARD");
  EXPECT_EQ(fast, tick);
  EXPECT_NE(fast.find(kServingSchemaV2), std::string::npos);
}

TEST(PreemptiveLitmus, OversubscribedCellsTerminateForFairSchedulers) {
  LitmusOptions opt;
  opt.jobs = 4;
  opt.admission = "preemptive_slo";
  const LitmusReport report = run_litmus(opt);
  for (const LitmusCell& cell : report.cells) {
    if (cell.scheduler == SchedulerKind::kTl) continue;  // honest unfairness
    EXPECT_EQ(cell.verdict, Verdict::kPass)
        << scheduler_name(cell.scheduler) << "/" << cell.litmus << "/"
        << regime_name(cell.regime) << ": " << cell.detail;
    EXPECT_TRUE(cell.fair_suffices);
  }
  // Every fair scheduler earns the `terminates` progress model — the
  // class the base harness header calls attainable only by preemptive
  // designs. TL keeps its unfair_livelocks classification: preemption
  // rescues spin-stuck TBs, never warps the scheduler itself parks.
  for (const SchedulerSummary& s : report.schedulers) {
    if (s.scheduler == SchedulerKind::kTl) {
      // Its two unfair cells are intra_tb_flag's starvation. A yielded
      // TB's warps leave TL's active and pending sets (TlPolicy::
      // on_tb_finish), so oversubscribed cas_mutex passes.
      EXPECT_EQ(s.model, ProgressModel::kUnfairLivelocks);
      EXPECT_EQ(s.passes, 8);
      EXPECT_EQ(s.unfair_cells, 2);
    } else {
      EXPECT_EQ(s.model, ProgressModel::kTerminates)
          << scheduler_name(s.scheduler);
      EXPECT_EQ(s.passes, 10) << scheduler_name(s.scheduler);
    }
    EXPECT_EQ(s.broken_cells, 0) << scheduler_name(s.scheduler);
    EXPECT_EQ(s.expected_hangs, 0) << scheduler_name(s.scheduler);
  }
}

}  // namespace
}  // namespace prosim::litmus
