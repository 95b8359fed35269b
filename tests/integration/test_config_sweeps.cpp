// Configuration-sweep sanity: the simulator must respond to machine
// parameters the way a GPU does (more SMs -> faster; more schedulers ->
// faster; fewer partitions -> more memory contention). That results and
// stall accounting stay correct under every configuration is a property
// of every SimProperty trial (test_sim_property.cpp).
#include <gtest/gtest.h>

#include "gpu/gpu.hpp"
#include "isa/builder.hpp"

namespace prosim {
namespace {

Program work_kernel() {
  ProgramBuilder b("sweep");
  b.block_dim(128).grid_dim(24);
  b.s2r(0, SpecialReg::kGlobalTid);
  b.ishli(1, 0, 3);
  b.ldg(2, 1, 0);
  b.movi(3, 16);
  auto top = b.loop_begin();
  b.imad(2, 2, 2, 0);
  b.iaddi(3, 3, -1);
  b.setpi(CmpOp::kGt, 4, 3, 0);
  b.loop_end_if(4, top);
  b.stg(1, 1 << 20, 2);
  b.exit_();
  return b.build();
}

GpuResult run_with(const GpuConfig& cfg) {
  static const Program p = work_kernel();
  GlobalMemory mem;
  for (int i = 0; i < 4096; ++i) mem.store(i * 8, i * 3);
  return simulate(cfg, p, mem);
}

TEST(ConfigSweep, MoreSmsReduceCycles) {
  Cycle prev = 0;
  for (int sms : {1, 2, 4}) {
    GpuConfig cfg = GpuConfig::test_config();
    cfg.num_sms = sms;
    const Cycle cycles = run_with(cfg).cycles;
    if (prev != 0) {
      EXPECT_LT(cycles, prev) << sms << " SMs";
    }
    prev = cycles;
  }
}

TEST(ConfigSweep, SingleSchedulerSmIsSlower) {
  GpuConfig two = GpuConfig::test_config();
  GpuConfig one = GpuConfig::test_config();
  one.sm.num_schedulers = 1;
  EXPECT_GT(run_with(one).cycles, run_with(two).cycles);
}

TEST(ConfigSweep, FewerPartitionsIncreaseMemoryPressure) {
  GpuConfig wide = GpuConfig::test_config();
  wide.mem.num_partitions = 4;
  GpuConfig narrow = GpuConfig::test_config();
  narrow.mem.num_partitions = 1;
  EXPECT_GE(run_with(narrow).cycles, run_with(wide).cycles);
}

TEST(ConfigSweep, SlowerAluLatencyCostsCycles) {
  GpuConfig fast = GpuConfig::test_config();
  GpuConfig slow = GpuConfig::test_config();
  slow.sm.alu_latency = 40;
  EXPECT_GT(run_with(slow).cycles, run_with(fast).cycles);
}

TEST(ConfigSweep, MaxCyclesGuardTriggers) {
  GpuConfig cfg = GpuConfig::test_config();
  cfg.max_cycles = 50;  // far too few
  const Program p = work_kernel();
  GlobalMemory mem;
  const Expected<GpuResult> r = simulate_checked(cfg, p, mem);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().category, ErrorCategory::kLivelock);
  EXPECT_NE(r.error().message.find("max_cycles"), std::string::npos);
  EXPECT_EQ(r.error().cycle, 50u);
  // The diagnosis names the still-resident warps and per-SM health.
  EXPECT_FALSE(r.error().warps.empty());
  EXPECT_FALSE(r.error().sm_health.empty());
  // The throwing entry point raises the same error as an exception.
  EXPECT_THROW(simulate(cfg, p, mem), SimException);
}

}  // namespace
}  // namespace prosim
