// The event-driven step loop. Pins the work it visits, not only its
// results: the SimProfile counters of one Fig. 4 kernel under each Fig. 4
// scheduler and of the 14-SM serving backlog trace under fifo_exclusive
// and preemptive admission. A change to how the loop finds due SMs,
// partitions and admission decisions must visit exactly the same
// SM-cycles, partition-cycles, evaluations and clock jumps. Its SM sets
// are one-word masks, so the SM count is checked.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gpu/gpu.hpp"
#include "kernels/registry.hpp"
#include "mem/interconnect.hpp"

namespace prosim {
namespace {

std::string visited(const SimProfile& p) {
  return "sm_cycles_ticked=" + std::to_string(p.sm_cycles_ticked) +
         " partition_cycles_ticked=" +
         std::to_string(p.partition_cycles_ticked) +
         " admission_evals=" + std::to_string(p.admission_evals) +
         " ff_spans=" + std::to_string(p.ff_spans) +
         " ff_skipped_cycles=" + std::to_string(p.ff_skipped_cycles);
}

TEST(StepLoop, VisitsTheSameWork) {
  const std::pair<SchedulerKind, const char*> want[] = {
      {SchedulerKind::kLrr,
       "sm_cycles_ticked=25492 partition_cycles_ticked=27105 "
       "admission_evals=10844 ff_spans=2193 ff_skipped_cycles=4011"},
      {SchedulerKind::kGto,
       "sm_cycles_ticked=25733 partition_cycles_ticked=27302 "
       "admission_evals=10541 ff_spans=1653 ff_skipped_cycles=2747"},
      {SchedulerKind::kTl,
       "sm_cycles_ticked=28721 partition_cycles_ticked=27311 "
       "admission_evals=11779 ff_spans=1893 ff_skipped_cycles=3067"},
      {SchedulerKind::kPro,
       "sm_cycles_ticked=25193 partition_cycles_ticked=27485 "
       "admission_evals=9987 ff_spans=1916 ff_skipped_cycles=3221"},
  };
  const Workload& w = find_workload("bpnn_adjust_weights_cuda");
  for (const auto& [kind, profile] : want) {
    GpuConfig config;  // Table I GTX480: 14 SMs
    config.scheduler.kind = kind;
    GlobalMemory memory;
    w.init(memory);
    EXPECT_EQ(visited(simulate(config, w.program, memory).profile), profile)
        << scheduler_name(kind);
  }

  // perfbench's serve_backlog trace (prosim-serve --sms 14 --seed 42
  // --requests 12 --gap-scale 20000) and its deadlines: 4x each kernel's
  // isolated PRO makespan on this config.
  struct Arrival {
    const char* kernel;
    Cycle arrival;
    Cycle deadline;
  };
  constexpr Cycle kScalarProd = 1'706'932;
  constexpr Cycle kLaplace = 456'312;
  constexpr Cycle kHistogram = 697'552;
  const Arrival trace[] = {
      {"scalarProdGPU", 0, kScalarProd},
      {"GPU_laplace3d", 18'446, kLaplace},
      {"histogram64Kernel", 42'993, kHistogram},
      {"GPU_laplace3d", 53'751, kLaplace},
      {"histogram64Kernel", 63'547, kHistogram},
      {"histogram64Kernel", 79'909, kHistogram},
      {"scalarProdGPU", 91'491, kScalarProd},
      {"histogram64Kernel", 104'172, kHistogram},
      {"scalarProdGPU", 113'947, kScalarProd},
      {"GPU_laplace3d", 443'835, kLaplace},
      {"scalarProdGPU", 460'672, kScalarProd},
      {"histogram64Kernel", 476'046, kHistogram},
  };
  struct Cell {
    const char* admission;
    Cycle cycles;
    const char* profile;
  };
  const Cell cells[] = {
      {"fifo_exclusive", 2'942'753,
       "sm_cycles_ticked=3517336 partition_cycles_ticked=1232756 "
       "admission_evals=1908602 ff_spans=297087 ff_skipped_cycles=588324"},
      {"preemptive_slo", 2'932'717,
       "sm_cycles_ticked=3593358 partition_cycles_ticked=1237684 "
       "admission_evals=1906521 ff_spans=292100 ff_skipped_cycles=523175"},
  };
  GpuConfig serving = GpuConfig::test_config();
  serving.num_sms = 14;
  serving.scheduler.kind = SchedulerKind::kPro;
  serving.watchdog.barrier_timeout *= std::size(trace);
  for (const Cell& cell : cells) {
    std::vector<GlobalMemory> memories(std::size(trace));
    std::vector<KernelLaunch> launches;
    for (std::size_t i = 0; i < std::size(trace); ++i) {
      const Workload& kernel = find_workload(trace[i].kernel);
      kernel.init(memories[i]);
      KernelLaunch launch;
      launch.kernel_id = static_cast<int>(i);
      launch.name = trace[i].kernel;
      launch.program = kernel.program;
      launch.memory = &memories[i];
      launch.arrival = trace[i].arrival;
      launch.tenant.deadline_cycles = trace[i].deadline;
      launches.push_back(std::move(launch));
    }
    Gpu gpu(serving, std::move(launches), cell.admission);
    const GpuResult r = gpu.run();
    EXPECT_EQ(r.cycles, cell.cycles) << cell.admission;
    EXPECT_EQ(visited(r.profile), cell.profile) << cell.admission;
  }
}

TEST(StepLoop, SmCountOutsideOneMaskIsAStructuredError) {
  const Workload& w = find_workload("mergeHistogram64Kernel");
  for (const int sms : {0, -1, Interconnect::kMaxSms + 1}) {
    GpuConfig config;
    config.num_sms = sms;
    GlobalMemory memory;
    w.init(memory);
    const Expected<GpuResult> r = simulate_checked(config, w.program, memory);
    ASSERT_FALSE(r.has_value()) << sms;
    EXPECT_EQ(r.error().category, ErrorCategory::kInvariant);
    EXPECT_NE(r.error().message.find("num_sms"), std::string::npos);
  }
  GpuConfig config;
  config.num_sms = Interconnect::kMaxSms;
  GlobalMemory memory;
  w.init(memory);
  const Expected<GpuResult> r = simulate_checked(config, w.program, memory);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r.value().per_sm.size(), std::size_t{Interconnect::kMaxSms});
}

}  // namespace
}  // namespace prosim
