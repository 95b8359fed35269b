// Golden-model equivalence over the full Table II workload suite: every
// kernel, under every scheduler, must leave exactly the memory state the
// scalar reference interpreter produces. Grids are trimmed to keep the
// 25 x 4 sweep fast; the kernels' code paths are unchanged.
#include <gtest/gtest.h>

#include "gpu/gpu.hpp"
#include "isa/interpreter.hpp"
#include "kernels/registry.hpp"

namespace prosim {
namespace {

Program trimmed(const Workload& w, int max_grid) {
  Program p = w.program;
  p.info.grid_dim = std::min(p.info.grid_dim, max_grid);
  return p;
}

class WorkloadGolden
    : public ::testing::TestWithParam<std::tuple<int, SchedulerKind>> {};

TEST_P(WorkloadGolden, MemoryMatchesInterpreter) {
  const Workload& w = all_workloads()[static_cast<std::size_t>(
      std::get<0>(GetParam()))];
  const SchedulerKind kind = std::get<1>(GetParam());
  const Program p = trimmed(w, 24);

  GlobalMemory ref;
  w.init(ref);
  InterpreterOptions opts;
  opts.record_registers = false;
  const InterpreterResult golden = interpret(p, ref, opts);

  GlobalMemory mem;
  w.init(mem);
  GpuConfig cfg = GpuConfig::test_config();
  cfg.scheduler.kind = kind;
  const GpuResult r = simulate(cfg, p, mem);

  EXPECT_TRUE(mem == ref) << w.kernel << " memory mismatch";
  if (w.schedule_invariant_inst_count) {
    EXPECT_EQ(r.totals.thread_insts, golden.instructions_executed)
        << w.kernel;
  }
  EXPECT_EQ(r.totals.tbs_executed,
            static_cast<std::uint64_t>(p.info.grid_dim));
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadsAllSchedulers, WorkloadGolden,
    ::testing::Combine(::testing::Range(0, 25),
                       ::testing::Values(SchedulerKind::kLrr,
                                         SchedulerKind::kGto,
                                         SchedulerKind::kTl,
                                         SchedulerKind::kPro)),
    [](const auto& p) {
      std::string name =
          all_workloads()[static_cast<std::size_t>(std::get<0>(p.param))]
              .kernel;
      for (char& c : name) {
        if (c == '+') c = 'p';
      }
      return name + "_" + scheduler_name(std::get<1>(p.param));
    });

}  // namespace
}  // namespace prosim
