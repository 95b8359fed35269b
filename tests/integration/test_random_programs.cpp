// Property-based testing: randomly generated structured programs must
// produce identical architectural state on the timing simulator (under
// every scheduler) and the scalar golden-model interpreter, on one fixed
// machine. The generator emits only schedule-independent constructs; see
// program_fuzzer.hpp for the catalogue. SimProperty draws the same programs
// over random machines, admissions and faults; this suite pins every
// scheduler on every program.
#include <gtest/gtest.h>

#include "gpu/gpu.hpp"
#include "isa/interpreter.hpp"
#include "program_fuzzer.hpp"

namespace prosim {
namespace {

class RandomPrograms : public ::testing::TestWithParam<int> {};

TEST_P(RandomPrograms, TimingSimMatchesGoldenModelUnderAllSchedulers) {
  const std::uint64_t seed = 0xF002 + static_cast<std::uint64_t>(GetParam());
  fuzz::ProgramFuzzer fuzzer(seed);
  const Program p = fuzzer.generate();
  ASSERT_EQ(p.validate(), "") << p.disassemble_all();

  GlobalMemory ref;
  fuzz::init_input(ref);
  InterpreterOptions opts;
  opts.max_steps_per_tb = 10'000'000;
  const InterpreterResult golden = interpret(p, ref, opts);

  for (SchedulerKind kind :
       {SchedulerKind::kLrr, SchedulerKind::kGto, SchedulerKind::kTl,
        SchedulerKind::kPro, SchedulerKind::kProAdaptive,
        SchedulerKind::kCaws, SchedulerKind::kOwl}) {
    GlobalMemory mem;
    fuzz::init_input(mem);
    GpuConfig cfg = GpuConfig::test_config();
    cfg.scheduler.kind = kind;
    cfg.record_registers = true;
    const GpuResult r = simulate(cfg, p, mem);
    EXPECT_TRUE(mem == ref)
        << "seed " << seed << " scheduler " << scheduler_name(kind)
        << "\n" << p.disassemble_all();
    EXPECT_EQ(r.totals.thread_insts, golden.instructions_executed)
        << "seed " << seed << " scheduler " << scheduler_name(kind);
    // Register-level equality.
    bool regs_ok = true;
    for (int cta = 0; cta < p.info.grid_dim && regs_ok; ++cta) {
      for (int tid = 0; tid < p.info.block_dim && regs_ok; ++tid) {
        for (int reg = 0; reg < p.info.regs_per_thread; ++reg) {
          const RegValue expect = golden.registers[cta][tid][reg];
          const RegValue actual =
              r.registers[(static_cast<std::size_t>(cta) *
                               p.info.block_dim +
                           tid) *
                              p.info.regs_per_thread +
                          reg];
          if (expect != actual) {
            ADD_FAILURE() << "seed " << seed << " "
                          << scheduler_name(kind) << " cta " << cta
                          << " tid " << tid << " r" << reg << ": "
                          << actual << " != " << expect;
            regs_ok = false;
            break;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms, ::testing::Range(0, 32));

}  // namespace
}  // namespace prosim
