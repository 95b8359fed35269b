// Whole-GPU behavioural properties: determinism, stall accounting, TB
// distribution, timeline sanity, and scheduler-visible configuration.
#include <gtest/gtest.h>

#include "gpu/gpu.hpp"
#include "isa/builder.hpp"

namespace prosim {
namespace {

Program mixed_kernel(int grid) {
  ProgramBuilder b("mixed");
  b.block_dim(128).grid_dim(grid).smem(128 * 8);
  b.s2r(0, SpecialReg::kGlobalTid);
  b.s2r(1, SpecialReg::kTid);
  b.ishli(2, 0, 3);
  b.ldg(3, 2, 0);
  b.movi(4, 12);
  auto top = b.loop_begin();
  b.imad(3, 3, 3, 1);
  b.iaddi(4, 4, -1);
  b.setpi(CmpOp::kGt, 5, 4, 0);
  b.loop_end_if(5, top);
  b.ishli(6, 1, 3);
  b.sts(6, 0, 3);
  b.bar();
  b.lds(7, 6, 0);
  b.stg(2, 1 << 20, 7);
  b.exit_();
  return b.build();
}

TEST(GpuBehavior, DeterministicAcrossRuns) {
  Program p = mixed_kernel(12);
  GpuConfig cfg = GpuConfig::test_config();
  cfg.scheduler.kind = SchedulerKind::kPro;
  GlobalMemory m1;
  GlobalMemory m2;
  GpuResult r1 = simulate(cfg, p, m1);
  GpuResult r2 = simulate(cfg, p, m2);
  EXPECT_EQ(r1.cycles, r2.cycles);
  EXPECT_EQ(r1.totals.issued, r2.totals.issued);
  EXPECT_EQ(r1.totals.idle_stalls, r2.totals.idle_stalls);
  EXPECT_EQ(r1.totals.scoreboard_stalls, r2.totals.scoreboard_stalls);
  EXPECT_EQ(r1.totals.pipeline_stalls, r2.totals.pipeline_stalls);
  EXPECT_TRUE(m1 == m2);
}

TEST(GpuBehavior, AllTbsExecuteExactlyOnce) {
  Program p = mixed_kernel(23);  // odd count, > residency
  GlobalMemory mem;
  GpuConfig cfg = GpuConfig::test_config();
  GpuResult r = simulate(cfg, p, mem);
  EXPECT_EQ(r.totals.tbs_executed, 23u);
  // Every ctaid appears exactly once across all SM timelines.
  std::vector<int> seen(23, 0);
  for (const auto& timeline : r.timelines) {
    for (const auto& e : timeline) ++seen[static_cast<std::size_t>(e.ctaid)];
  }
  for (int c = 0; c < 23; ++c) EXPECT_EQ(seen[c], 1) << "ctaid " << c;
}

TEST(GpuBehavior, WorkSpreadsAcrossSms) {
  Program p = mixed_kernel(16);
  GlobalMemory mem;
  GpuConfig cfg = GpuConfig::test_config();  // 2 SMs
  GpuResult r = simulate(cfg, p, mem);
  ASSERT_EQ(r.timelines.size(), 2u);
  EXPECT_GT(r.timelines[0].size(), 0u);
  EXPECT_GT(r.timelines[1].size(), 0u);
}

TEST(GpuBehavior, StepInterfaceTerminates) {
  Program p = mixed_kernel(4);
  GlobalMemory mem;
  GpuConfig cfg = GpuConfig::test_config();
  Gpu gpu(cfg, p, mem);
  Cycle steps = 0;
  while (gpu.step()) {
    ++steps;
    ASSERT_LT(steps, 1000000u);
  }
  // A step advances at least one cycle, and may fast-forward across a
  // quiet span — so the clock can run ahead of the step count.
  EXPECT_GE(gpu.now(), steps + 1);
  GpuResult r = gpu.collect();
  EXPECT_EQ(r.totals.tbs_executed, 4u);
}

TEST(GpuBehavior, IpcIsPositiveAndBounded) {
  Program p = mixed_kernel(8);
  GlobalMemory mem;
  GpuConfig cfg = GpuConfig::test_config();
  GpuResult r = simulate(cfg, p, mem);
  EXPECT_GT(r.ipc(), 0.0);
  // Upper bound: 2 SMs x 2 schedulers x 32 lanes per cycle.
  EXPECT_LE(r.ipc(), 2.0 * 2 * 32);
}

TEST(GpuBehavior, ResidencyLimitsConcurrentTbs) {
  // A kernel using 20KB of shared memory: at most 2 TBs per SM. Timeline
  // overlap per SM must never exceed 2.
  ProgramBuilder b("fat");
  b.block_dim(64).grid_dim(8).smem(20 * 1024);
  b.movi(0, 100);
  auto top = b.loop_begin();
  b.iaddi(0, 0, -1);
  b.setpi(CmpOp::kGt, 1, 0, 0);
  b.loop_end_if(1, top);
  b.exit_();
  Program p = b.build();
  GlobalMemory mem;
  GpuConfig cfg = GpuConfig::test_config();
  GpuResult r = simulate(cfg, p, mem);
  for (const auto& timeline : r.timelines) {
    for (const auto& a : timeline) {
      int overlap = 0;
      for (const auto& b2 : timeline) {
        if (a.start < b2.end && b2.start < a.end) ++overlap;
      }
      EXPECT_LE(overlap, 2);  // includes itself
    }
  }
}

TEST(GpuBehavior, ProOrderTraceOnlyWhenRequested) {
  Program p = mixed_kernel(10);
  GlobalMemory mem;
  GpuConfig cfg = GpuConfig::test_config();
  cfg.scheduler.kind = SchedulerKind::kPro;
  GpuResult off = simulate(cfg, p, mem);
  EXPECT_TRUE(off.tb_order_sm0.empty());

  GlobalMemory mem2;
  cfg.record_tb_order_sm0 = true;
  GpuResult on = simulate(cfg, p, mem2);
  EXPECT_FALSE(on.tb_order_sm0.empty());
  for (const auto& sample : on.tb_order_sm0) {
    for (int ctaid : sample.ctaids) {
      EXPECT_GE(ctaid, 0);
      EXPECT_LT(ctaid, 10);
    }
  }
}

TEST(GpuBehavior, OrderTraceRequestIgnoredForNonPro) {
  Program p = mixed_kernel(6);
  GlobalMemory mem;
  GpuConfig cfg = GpuConfig::test_config();
  cfg.scheduler.kind = SchedulerKind::kLrr;
  cfg.record_tb_order_sm0 = true;
  GpuResult r = simulate(cfg, p, mem);
  EXPECT_TRUE(r.tb_order_sm0.empty());
}

}  // namespace
}  // namespace prosim
