// Seeded differential check of the event-driven step loop (docs/PERF.md,
// "Event-driven wakeup"). Each trial draws a GPU configuration — 1-16 SMs,
// 2-64 L1 MSHR entries, interconnect queues of 1-8 entries, L1 on or off,
// FCFS or FR-FCFS DRAM, 1-8 memory partitions with 2-32 L2 MSHR entries,
// DRAM queues of 2-32 entries and L2 hit latencies up to 100 — plus a
// Table II kernel and a scheduler, runs it with SM, partition and admission
// wakeups, then again under PROSIM_NO_FASTFORWARD=1 (every SM and
// partition ticks and every SM's admission is evaluated every cycle), and
// requires byte-identical result documents and identical per-SM stall
// causes (which skip_cycles replays over a sleeping SM's quiet span),
// each reconciling with its SM's legacy counters in both modes. Tiny MSHRs
// and queues keep LDST head lines and partition request heads blocked, and
// long hit latencies back the L2-hit path up: exactly what the port,
// response and partition wakeups must catch. Multi-kernel cells run under
// all four admission policies with
// metrics + journal attached, whose output must match too, and one fixed
// serving-shaped cell (14 SMs, 2 partitions, PRO, preemptive_slo, three
// kernels) mirrors the serving benchmark. A failing trial names its seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gpu/gpu.hpp"
#include "gpu/result_io.hpp"
#include "kernels/registry.hpp"
#include "metrics/metrics.hpp"
#include "../trace/stall_checks.hpp"

namespace prosim {
namespace {

constexpr SchedulerKind kKinds[] = {SchedulerKind::kLrr, SchedulerKind::kGto,
                                    SchedulerKind::kTl, SchedulerKind::kPro};

GpuConfig draw_config(Rng& rng) {
  GpuConfig cfg;
  cfg.num_sms = static_cast<int>(rng.next_in(1, 16));
  cfg.sm.l1_mshr.entries = static_cast<int>(rng.next_in(2, 64));
  cfg.mem.icnt_queue_capacity = static_cast<int>(rng.next_in(1, 8));
  cfg.sm.l1_enabled = rng.next_bool(0.5);
  cfg.mem.dram.scheduler = rng.next_bool(0.5) ? DramSchedulerKind::kFcfs
                                              : DramSchedulerKind::kFrFcfs;
  cfg.scheduler.kind = kKinds[rng.next_below(std::size(kKinds))];
  cfg.mem.num_partitions = static_cast<int>(rng.next_in(1, 8));
  cfg.mem.l2_mshr.entries = static_cast<int>(rng.next_in(2, 32));
  cfg.mem.dram.queue_capacity = static_cast<int>(rng.next_in(2, 32));
  cfg.mem.l2_hit_latency = static_cast<Cycle>(rng.next_in(1, 100));
  return cfg;
}

const Workload& draw_workload(Rng& rng) {
  const std::vector<Workload>& all = all_workloads();
  return all[rng.next_below(all.size())];
}

std::string describe(const GpuConfig& cfg) {
  std::ostringstream os;
  os << scheduler_name(cfg.scheduler.kind) << " sms=" << cfg.num_sms
     << " l1_mshr=" << cfg.sm.l1_mshr.entries
     << " icnt_queue=" << cfg.mem.icnt_queue_capacity
     << " l1=" << cfg.sm.l1_enabled << " dram="
     << (cfg.mem.dram.scheduler == DramSchedulerKind::kFcfs ? "FCFS"
                                                            : "FR-FCFS")
     << " partitions=" << cfg.mem.num_partitions
     << " l2_mshr=" << cfg.mem.l2_mshr.entries
     << " dram_queue=" << cfg.mem.dram.queue_capacity
     << " l2_hit=" << cfg.mem.l2_hit_latency;
  return os.str();
}

/// Every SM's cause_cycles, one line per SM (result_io does not carry
/// them), after checking that each SM's causes reconcile with its legacy
/// counters.
std::string causes_of(const GpuResult& r) {
  std::ostringstream os;
  for (const SmStats& s : r.per_sm) {
    expect_reconciles(s, "sm " + std::to_string(&s - r.per_sm.data()));
    for (const std::uint64_t n : s.cause_cycles) os << n << ' ';
    os << '\n';
  }
  return os.str();
}

/// Everything one run produced that must not depend on the step loop.
struct Outcome {
  std::string result;
  std::string causes;
  std::string metrics;
  std::string journal;
};

/// Runs `body` with PROSIM_NO_FASTFORWARD set when `reference` is true.
template <typename Body>
Outcome run_mode(bool reference, Body&& body) {
  if (reference) ::setenv("PROSIM_NO_FASTFORWARD", "1", 1);
  Outcome out = body();
  ::unsetenv("PROSIM_NO_FASTFORWARD");
  return out;
}

Outcome run_single(const Workload& w, const GpuConfig& cfg) {
  GlobalMemory mem;
  if (w.init) w.init(mem);
  const GpuResult r = simulate(cfg, w.program, mem);
  return {gpu_result_to_json(r), causes_of(r), "", ""};
}

class WakeupEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WakeupEquivalence, SingleKernelMatchesTickingEveryCycle) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const GpuConfig cfg = draw_config(rng);
  const Workload& w = draw_workload(rng);
  SCOPED_TRACE("seed " + std::to_string(seed) + ": " + w.kernel + " " +
               describe(cfg));
  const Outcome fast = run_mode(false, [&] { return run_single(w, cfg); });
  const Outcome tick = run_mode(true, [&] { return run_single(w, cfg); });
  EXPECT_EQ(fast.result, tick.result);
  EXPECT_EQ(fast.causes, tick.causes);
}

/// Runs `launches` under `admission` with metrics (sampled every
/// `interval` cycles) and the journal attached.
Outcome run_launches(const GpuConfig& cfg, std::vector<KernelLaunch> launches,
                     const std::string& admission, Cycle interval) {
  MetricsCollector metrics(interval);
  EventJournal journal;
  Gpu gpu(cfg, std::move(launches), admission);
  gpu.set_metrics(&metrics);
  gpu.set_event_journal(&journal);
  const GpuResult r = gpu.run();
  std::ostringstream samples;
  metrics.registry().write_csv(samples);
  std::ostringstream events;
  journal.write_jsonl(events);
  return {gpu_result_to_json(r), causes_of(r), samples.str(), events.str()};
}

KernelLaunch make_launch(int k, const Workload& w, GlobalMemory& memory,
                         Cycle arrival, Cycle deadline) {
  w.init(memory);
  KernelLaunch launch;
  launch.kernel_id = k;
  launch.name = w.kernel;
  launch.program = w.program;
  launch.memory = &memory;
  launch.arrival = arrival;
  launch.tenant.deadline_cycles = deadline;
  return launch;
}

/// 2-3 kernels with random arrivals (and, for preemptive_slo, random
/// deadlines) under one admission policy, metrics and journal attached.
Outcome run_multi(std::uint64_t seed, const std::string& admission) {
  Rng rng(seed);
  GpuConfig cfg = draw_config(rng);
  // Serving-style slack: the barrier watchdog must outlast queueing.
  cfg.watchdog.barrier_timeout *= 4;
  const int kernels = static_cast<int>(rng.next_in(2, 3));
  std::vector<GlobalMemory> memories(static_cast<std::size_t>(kernels));
  std::vector<KernelLaunch> launches;
  Cycle arrival = 0;
  for (int k = 0; k < kernels; ++k) {
    const Workload& w = draw_workload(rng);
    const auto deadline = static_cast<Cycle>(rng.next_in(20'000, 400'000));
    GlobalMemory& memory = memories[static_cast<std::size_t>(k)];
    launches.push_back(make_launch(k, w, memory, arrival, deadline));
    arrival += static_cast<Cycle>(rng.next_in(0, 30'000));
  }
  const auto interval = static_cast<Cycle>(rng.next_in(500, 5'000));
  return run_launches(cfg, std::move(launches), admission, interval);
}

void expect_same(const Outcome& fast, const Outcome& tick) {
  EXPECT_EQ(fast.result, tick.result);
  EXPECT_EQ(fast.causes, tick.causes);
  EXPECT_EQ(fast.metrics, tick.metrics);
  EXPECT_EQ(fast.journal, tick.journal);
}

void expect_multi_matches(std::uint64_t seed, const std::string& admission) {
  SCOPED_TRACE("seed " + std::to_string(seed) + ": " + admission);
  const Outcome fast =
      run_mode(false, [&] { return run_multi(seed, admission); });
  const Outcome tick =
      run_mode(true, [&] { return run_multi(seed, admission); });
  expect_same(fast, tick);
}

// One case per admission policy over the same seeds, so that each case
// stays well inside the ctest timeout of a sanitized build.
TEST_P(WakeupEquivalence, MultiKernelMatchesTickingEveryCycle) {
  expect_multi_matches(GetParam(), "tb_interleaved");
}

TEST_P(WakeupEquivalence, MultiKernelPreemptiveSloMatchesTickingEveryCycle) {
  expect_multi_matches(GetParam(), "preemptive_slo");
}

TEST_P(WakeupEquivalence, MultiKernelFifoExclusiveMatchesTickingEveryCycle) {
  expect_multi_matches(GetParam(), "fifo_exclusive");
}

TEST_P(WakeupEquivalence, MultiKernelSmPartitionedMatchesTickingEveryCycle) {
  expect_multi_matches(GetParam(), "sm_partitioned");
}

/// The serving benchmark's shape: 14 SMs and 2 partitions shared by three
/// staggered kernels with deadlines, PRO under preemptive_slo.
Outcome run_serving_cell() {
  GpuConfig cfg;
  cfg.num_sms = 14;
  cfg.mem.num_partitions = 2;
  cfg.scheduler.kind = SchedulerKind::kPro;
  cfg.watchdog.barrier_timeout *= 4;
  // Later arrivals carry tighter absolute deadlines, so focus moves to
  // them and the older kernels are demoted.
  const char* kernels[] = {"scalarProdGPU", "histogram64Kernel",
                           "GPU_laplace3d"};
  const Cycle deadlines[] = {400'000, 100'000, 30'000};
  std::vector<GlobalMemory> memories(std::size(kernels));
  std::vector<KernelLaunch> launches;
  for (int k = 0; k < static_cast<int>(std::size(kernels)); ++k) {
    const Workload& w = find_workload(kernels[k]);
    GlobalMemory& memory = memories[static_cast<std::size_t>(k)];
    const auto arrival = static_cast<Cycle>(k) * 20'000;
    launches.push_back(make_launch(k, w, memory, arrival, deadlines[k]));
  }
  return run_launches(cfg, std::move(launches), "preemptive_slo", 10'000);
}

TEST(WakeupEquivalenceServing, PreemptiveSloMatchesTickingEveryCycle) {
  const Outcome fast = run_mode(false, run_serving_cell);
  expect_same(fast, run_mode(true, run_serving_cell));
  EXPECT_NE(fast.journal.find("\"demotion\""), std::string::npos)
      << "the cell must exercise preemption";
}

// A fixed seed list keeps the budget fixed and every failure reproducible.
INSTANTIATE_TEST_SUITE_P(Seeds, WakeupEquivalence,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace prosim
