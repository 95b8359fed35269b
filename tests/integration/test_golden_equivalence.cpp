// The central correctness property: whatever the warp scheduler does, the
// timing simulator must produce exactly the golden model's architectural
// state — final registers and global memory. Schedulers reorder execution;
// they may never change results.
#include <gtest/gtest.h>

#include "gpu/gpu.hpp"
#include "isa/builder.hpp"
#include "isa/interpreter.hpp"

namespace prosim {
namespace {

struct Scenario {
  const char* name;
  Program (*make)();
  void (*init)(GlobalMemory&);
};

Program make_compute_loop() {
  ProgramBuilder b("compute_loop");
  b.block_dim(96).grid_dim(10);
  b.s2r(0, SpecialReg::kGlobalTid);
  b.mov(1, 0);
  b.movi(2, 25);
  auto top = b.loop_begin();
  b.imad(1, 1, 1, 0);
  b.iaddi(1, 1, 13);
  b.iaddi(2, 2, -1);
  b.setpi(CmpOp::kGt, 3, 2, 0);
  b.loop_end_if(3, top);
  b.ishli(4, 0, 3);
  b.stg(4, 0, 1);
  b.exit_();
  return b.build();
}

Program make_divergent_trips() {
  // Per-lane loop trip counts from a hash of the thread id: heavy SIMT
  // stack churn plus memory.
  ProgramBuilder b("divergent_trips");
  b.block_dim(64).grid_dim(8);
  b.s2r(0, SpecialReg::kGlobalTid);
  b.fsin(1, 0);
  b.iandi(1, 1, 15);
  b.iaddi(1, 1, 1);
  b.movi(2, 0);
  auto top = b.loop_begin();
  b.ishli(3, 2, 3);
  b.iandi(3, 3, 1023);
  b.ldg(4, 3, 0);
  b.iadd(2, 2, 4);
  b.iaddi(2, 2, 1);
  b.iaddi(1, 1, -1);
  b.setpi(CmpOp::kGt, 5, 1, 0);
  b.loop_end_if(5, top);
  b.ishli(6, 0, 3);
  b.stg(6, 1 << 16, 2);
  b.exit_();
  return b.build();
}

Program make_barrier_reduction() {
  ProgramBuilder b("barrier_reduction");
  b.block_dim(128).grid_dim(6).smem(128 * 8);
  b.s2r(0, SpecialReg::kTid);
  b.s2r(1, SpecialReg::kGlobalTid);
  b.ishli(2, 1, 3);
  b.ldg(3, 2, 0);
  b.ishli(4, 0, 3);
  b.sts(4, 0, 3);
  b.bar();
  b.movi(5, 64);
  auto top = b.loop_begin();
  b.setp(CmpOp::kLt, 6, 0, 5);
  b.if_begin(6);
  b.iadd(7, 0, 5);
  b.ishli(7, 7, 3);
  b.lds(8, 7, 0);
  b.lds(9, 4, 0);
  b.iadd(9, 9, 8);
  b.sts(4, 0, 9);
  b.if_end();
  b.bar();
  b.ishri(5, 5, 1);
  b.setpi(CmpOp::kGt, 6, 5, 0);
  b.loop_end_if(6, top);
  b.setpi(CmpOp::kEq, 6, 0, 0);
  b.if_begin(6);
  b.s2r(10, SpecialReg::kCtaId);
  b.ishli(10, 10, 3);
  b.lds(11, 4, 0);
  b.stg(10, 1 << 20, 11);
  b.if_end();
  b.exit_();
  return b.build();
}

Program make_atomic_histogram() {
  ProgramBuilder b("atomic_histogram");
  b.block_dim(64).grid_dim(8).smem(32 * 8);
  b.s2r(0, SpecialReg::kTid);
  b.s2r(1, SpecialReg::kGlobalTid);
  // Zero shared bins (two per thread for 32 bins / 64 threads: tid < 32).
  b.setpi(CmpOp::kLt, 2, 0, 32);
  b.if_begin(2);
  b.movi(3, 0);
  b.ishli(4, 0, 3);
  b.sts(4, 0, 3);
  b.if_end();
  b.bar();
  b.ishli(5, 1, 3);
  b.ldg(6, 5, 0);
  b.iandi(6, 6, 31);
  b.ishli(6, 6, 3);
  b.movi(7, 1);
  b.atoms_add(6, 0, 7);
  b.bar();
  b.setpi(CmpOp::kLt, 2, 0, 32);
  b.if_begin(2);
  b.ishli(4, 0, 3);
  b.lds(8, 4, 0);
  b.atomg_add(4, 1 << 20, 8);
  b.if_end();
  b.exit_();
  return b.build();
}

void init_ramp(GlobalMemory& mem) {
  for (int i = 0; i < 4096; ++i) mem.store(i * 8, i * 37 + 5);
}

const Scenario kScenarios[] = {
    {"compute_loop", make_compute_loop, init_ramp},
    {"divergent_trips", make_divergent_trips, init_ramp},
    {"barrier_reduction", make_barrier_reduction, init_ramp},
    {"atomic_histogram", make_atomic_histogram, init_ramp},
};

class GoldenEquivalence
    : public ::testing::TestWithParam<std::tuple<int, SchedulerKind>> {};

TEST_P(GoldenEquivalence, RegistersAndMemoryMatchInterpreter) {
  const Scenario& scenario = kScenarios[std::get<0>(GetParam())];
  const SchedulerKind kind = std::get<1>(GetParam());

  Program p = scenario.make();
  GlobalMemory ref;
  scenario.init(ref);
  InterpreterResult golden = interpret(p, ref);

  GlobalMemory mem;
  scenario.init(mem);
  GpuConfig cfg = GpuConfig::test_config();
  cfg.scheduler.kind = kind;
  cfg.record_registers = true;
  GpuResult r = simulate(cfg, p, mem);

  EXPECT_TRUE(mem == ref) << scenario.name << ": memory diverged";
  ASSERT_EQ(r.registers.size(),
            static_cast<std::size_t>(p.info.grid_dim) * p.info.block_dim *
                p.info.regs_per_thread);
  for (int cta = 0; cta < p.info.grid_dim; ++cta) {
    for (int tid = 0; tid < p.info.block_dim; ++tid) {
      for (int reg = 0; reg < p.info.regs_per_thread; ++reg) {
        const RegValue expect = golden.registers[cta][tid][reg];
        const RegValue actual =
            r.registers[(static_cast<std::size_t>(cta) * p.info.block_dim +
                         tid) *
                            p.info.regs_per_thread +
                        reg];
        ASSERT_EQ(actual, expect)
            << scenario.name << " cta " << cta << " tid " << tid << " r"
            << reg;
      }
    }
  }
  // Instruction counts match too (same work, different order).
  EXPECT_EQ(r.totals.thread_insts, golden.instructions_executed);
}

INSTANTIATE_TEST_SUITE_P(
    AllScenariosAllSchedulers, GoldenEquivalence,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values(SchedulerKind::kLrr,
                                         SchedulerKind::kGto,
                                         SchedulerKind::kTl,
                                         SchedulerKind::kPro)),
    [](const auto& p) {
      return std::string(kScenarios[std::get<0>(p.param)].name) + "_" +
             scheduler_name(std::get<1>(p.param));
    });

}  // namespace
}  // namespace prosim
