// Fault injection is deterministic and not a no-op. That injected faults
// (response delays, MSHR exhaustion bursts, DRAM backpressure, TB-launch
// starvation) never alter results under any scheduler or machine shape is
// a property of every fault trial of SimProperty
// (test_sim_property.cpp).
#include <gtest/gtest.h>

#include "gpu/gpu.hpp"
#include "program_fuzzer.hpp"

namespace prosim {
namespace {

TEST(FaultInjection, FaultFreeRunReportsZeroFaults) {
  fuzz::ProgramFuzzer fuzzer(0xFA17);
  const Program p = fuzzer.generate();
  GlobalMemory mem;
  fuzz::init_input(mem);
  const GpuResult r = simulate(GpuConfig::test_config(), p, mem);
  EXPECT_EQ(r.faults_injected, 0u);
}

TEST(FaultInjection, DeterministicAcrossRuns) {
  // Same program, same fault seed -> bit-identical cycle count and fault
  // tally on repeat runs; faults fire and move the cycle count off the
  // fault-free run's.
  fuzz::ProgramFuzzer fuzzer(0xFA18);
  const Program p = fuzzer.generate();
  GpuConfig cfg = GpuConfig::test_config();
  cfg.scheduler.kind = SchedulerKind::kPro;
  cfg.faults = FaultConfig::chaos(99);

  GlobalMemory mem_a;
  fuzz::init_input(mem_a);
  const GpuResult a = simulate(cfg, p, mem_a);
  GlobalMemory mem_b;
  fuzz::init_input(mem_b);
  const GpuResult b = simulate(cfg, p, mem_b);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_GT(a.faults_injected, 0u);

  cfg.faults = FaultConfig{};
  GlobalMemory mem_clean;
  fuzz::init_input(mem_clean);
  EXPECT_NE(simulate(cfg, p, mem_clean).cycles, a.cycles);
}

}  // namespace
}  // namespace prosim
