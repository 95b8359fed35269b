// Seeded whole-simulator property driver. Each seed draws one trial (see
// draw()): a GPU configuration, one of the seven schedulers and 1-3
// staggered launches of fuzzer programs or Table II kernels. One launch
// runs on the single-kernel constructor that simulate() and every sweep
// cell use; several run under one drawn admission policy. Metrics and the
// journal watch every run. A quarter of the trials inject chaos faults
// under three fault seeds. Every run must:
//
//   1. complete (a SimError is the failure text);
//   2. match interpret(): every launch's memory, its thread-instruction
//      count where that is schedule-invariant, and a fuzzer launch's
//      registers;
//   3. run every TB once: one tb_launch per (kernel, ctaid), as many
//      tb_resume as tb_checkpoint, tbs_executed equal to the grid;
//   4. telescope metrics: per SM the issued and stall.<cause> series sum
//      to its counters, per kernel the issued series sums to its slice;
//   5. round-trip its result document through gpu_result_from_json;
//   6. (fault-free trials) equal, byte for byte, a PROSIM_NO_FASTFORWARD=1
//      rerun in result document, per-SM causes, metrics CSV and journal.
//
// A failure's trace describes the trial, and the gtest name reruns it:
// --gtest_filter='Seeds/SimProperty.Holds/<seed>'. Litmus spin kernels
// are not drawn: they do not terminate under every scheduler, and the
// litmus harness certifies those verdicts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "gpu/gpu.hpp"
#include "gpu/result_io.hpp"
#include "gpu/scheduler_registry.hpp"
#include "isa/interpreter.hpp"
#include "kernels/registry.hpp"
#include "metrics/metrics.hpp"
#include "program_fuzzer.hpp"

namespace prosim {
namespace {

struct Trial {
  GpuConfig config;
  std::string admission;  ///< empty: the single-kernel constructor
  /// Launch memories are bound per run.
  std::vector<KernelLaunch> launches;
  /// Per launch: its Table II workload, or null for a fuzzer program.
  std::vector<const Workload*> workloads;
  Cycle interval = 0;
  std::vector<std::uint64_t> fault_seeds;  ///< empty: no faults
};

Trial draw(std::uint64_t seed) {
  Rng rng(seed);
  Trial t;
  GpuConfig& cfg = t.config;
  // Tiny MSHRs and queues keep LDST heads and partition request heads
  // blocked, and long L2 hits back the hit path up: what the port,
  // response and partition wakeups must catch.
  cfg.num_sms = static_cast<int>(rng.next_in(1, 16));
  cfg.sm.num_schedulers = static_cast<int>(rng.next_in(1, 2));
  cfg.sm.l1_mshr.entries = static_cast<int>(rng.next_in(2, 64));
  cfg.mem.icnt_queue_capacity = static_cast<int>(rng.next_in(1, 8));
  cfg.sm.l1_enabled = rng.next_bool(0.5);
  cfg.mem.dram.scheduler = rng.next_bool(0.5) ? DramSchedulerKind::kFcfs
                                              : DramSchedulerKind::kFrFcfs;
  cfg.mem.num_partitions = static_cast<int>(rng.next_in(1, 8));
  cfg.mem.l2_mshr.entries = static_cast<int>(rng.next_in(2, 32));
  cfg.mem.dram.queue_capacity = static_cast<int>(rng.next_in(2, 32));
  cfg.mem.l2_hit_latency = static_cast<Cycle>(rng.next_in(1, 100));
  const auto schedulers = scheduler_registry();
  cfg.scheduler.kind = schedulers[rng.next_below(schedulers.size())].kind;
  // Serving-style slack: the barrier watchdog must outlast queueing.
  cfg.watchdog.barrier_timeout *= 4;
  cfg.record_registers = true;

  const bool faults = rng.next_bool(0.25);
  // Registry grids are trimmed to 24 TBs (as in WorkloadGolden) except
  // in one fault-free trial in 8.
  const bool full_grids = !faults && rng.next_bool(0.125);
  const int launches = static_cast<int>(rng.next_in(1, 3));
  if (launches > 1) {
    const auto admissions = admission_registry();
    t.admission = admissions[rng.next_below(admissions.size())].name;
  }
  Cycle arrival = 0;
  for (int k = 0; k < launches; ++k) {
    KernelLaunch l;
    l.kernel_id = k;
    const Workload* w = nullptr;
    if (rng.next_bool(0.5)) {
      l.program = fuzz::ProgramFuzzer(rng.next_below(1'000'000)).generate();
    } else {
      w = &all_workloads()[rng.next_below(all_workloads().size())];
      l.program = w->program;
      if (!full_grids) {
        l.program.info.grid_dim = std::min(l.program.info.grid_dim, 24);
      }
    }
    l.name = l.program.info.name;
    l.arrival = arrival;
    l.tenant.deadline_cycles =
        static_cast<Cycle>(rng.next_in(20'000, 400'000));
    arrival += static_cast<Cycle>(rng.next_in(0, 30'000));
    t.launches.push_back(std::move(l));
    t.workloads.push_back(w);
  }
  t.interval = static_cast<Cycle>(rng.next_in(500, 5'000));
  if (faults) {
    for (int i = 0; i < 3; ++i) t.fault_seeds.push_back(rng.next_below(1000));
  }
  return t;
}

std::string describe(std::uint64_t seed, const Trial& t) {
  std::ostringstream os;
  os << "seed " << seed << ": " << scheduler_name(t.config.scheduler.kind)
     << ' ' << (t.admission.empty() ? "single-kernel" : t.admission)
     << " sms=" << t.config.num_sms;
  for (const KernelLaunch& l : t.launches) {
    os << ' ' << l.name << '@' << l.arrival << 'x' << l.program.info.grid_dim;
  }
  for (const std::uint64_t f : t.fault_seeds) os << " fault=" << f;
  return os.str();
}

/// Fresh memories holding every launch's input.
std::vector<GlobalMemory> init_memories(const Trial& t) {
  std::vector<GlobalMemory> memories(t.launches.size());
  for (std::size_t k = 0; k < memories.size(); ++k) {
    if (t.workloads[k] != nullptr) {
      t.workloads[k]->init(memories[k]);
    } else {
      fuzz::init_input(memories[k]);
    }
  }
  return memories;
}

/// Everything one run produced.
struct Outcome {
  GpuResult result;
  std::vector<GlobalMemory> memories;            ///< per launch
  std::vector<std::vector<RegValue>> registers;  ///< per launch
  /// Sum of every (scope, id, metric) series over the run.
  std::map<std::tuple<MetricScope, int, std::string>, std::uint64_t> series;
  std::vector<SimEvent> events;
  std::string document;
  std::string causes;  ///< per-SM cause_cycles (result_io omits them)
  std::string metrics_csv;
  std::string journal_jsonl;
};

/// Runs `t` under `faults` with metrics and the journal attached, ticking
/// every cycle when `reference` is set. False (with the SimError as the
/// failure) when the run does not complete.
bool run(const Trial& t, const FaultConfig& faults, bool reference,
         Outcome& out) {
  GpuConfig cfg = t.config;
  cfg.faults = faults;
  out.memories = init_memories(t);
  // The Gpu reads the switch when it is constructed.
  if (reference) ::setenv("PROSIM_NO_FASTFORWARD", "1", 1);
  std::unique_ptr<Gpu> gpu;
  if (t.admission.empty()) {
    gpu = std::make_unique<Gpu>(cfg, t.launches[0].program, out.memories[0]);
  } else {
    std::vector<KernelLaunch> launches = t.launches;
    for (std::size_t k = 0; k < launches.size(); ++k) {
      launches[k].memory = &out.memories[k];
    }
    gpu = std::make_unique<Gpu>(cfg, std::move(launches), t.admission);
  }
  ::unsetenv("PROSIM_NO_FASTFORWARD");
  MetricsCollector metrics(t.interval);
  EventJournal journal;
  gpu->set_metrics(&metrics);
  gpu->set_event_journal(&journal);
  Expected<GpuResult> r = gpu->run_checked();
  if (!r.has_value()) {
    ADD_FAILURE() << r.error().to_string();
    return false;
  }
  out.result = std::move(r.value());
  for (int k = 0; k < gpu->num_streams(); ++k) {
    out.registers.push_back(t.admission.empty() ? out.result.registers
                                                : gpu->stream_registers(k));
  }
  for (const MetricSample& m : metrics.registry().samples()) {
    out.series[{m.scope, m.id, m.metric}] +=
        static_cast<std::uint64_t>(m.value);
  }
  out.events = journal.events();
  out.document = gpu_result_to_json(out.result);
  std::ostringstream causes;
  for (const SmStats& s : out.result.per_sm) {
    for (const std::uint64_t c : s.cause_cycles) causes << c << ' ';
    causes << '\n';
  }
  out.causes = causes.str();
  std::ostringstream csv;
  metrics.registry().write_csv(csv);
  out.metrics_csv = csv.str();
  std::ostringstream jsonl;
  journal.write_jsonl(jsonl);
  out.journal_jsonl = jsonl.str();
  return true;
}

/// "" when `got` equals `want`, else both texts around their first
/// difference (the documents and products run to megabytes).
std::string first_difference(const std::string& got,
                             const std::string& want) {
  if (got == want) return "";
  const auto at = static_cast<std::size_t>(
      std::mismatch(got.begin(), got.end(), want.begin(), want.end()).first -
      got.begin());
  const std::size_t from = at < 60 ? 0 : at - 60;
  return "at byte " + std::to_string(at) + "\ngot:  " + got.substr(from, 120) +
         "\nwant: " + want.substr(from, 120);
}

/// Properties 2-6 of one completed run against the interpreter's memories
/// and results.
void check(const Trial& t, const std::vector<GlobalMemory>& golden_memory,
           const std::vector<InterpreterResult>& golden, const Outcome& out) {
  const GpuResult& r = out.result;
  const bool single = t.admission.empty();
  ASSERT_EQ(r.kernel_slices.size(), single ? 0u : t.launches.size());
  for (std::size_t k = 0; k < t.launches.size(); ++k) {
    SCOPED_TRACE("launch " + std::to_string(k));
    const Workload* w = t.workloads[k];
    const int grid = t.launches[k].program.info.grid_dim;
    const SmStats& stats = single ? r.totals : r.kernel_slices[k].stats;
    EXPECT_TRUE(out.memories[k] == golden_memory[k]);
    if (w == nullptr || w->schedule_invariant_inst_count) {
      EXPECT_EQ(stats.thread_insts, golden[k].instructions_executed);
    }
    if (w == nullptr) {
      std::vector<RegValue> expected;  // [ctaid][tid][reg] flattened
      for (const auto& block : golden[k].registers) {
        for (const std::vector<RegValue>& regs : block) {
          expected.insert(expected.end(), regs.begin(), regs.end());
        }
      }
      const std::vector<RegValue>& actual = out.registers[k];
      EXPECT_TRUE(actual == expected)
          << "first differing register index "
          << std::mismatch(actual.begin(), actual.end(), expected.begin(),
                           expected.end())
                     .first -
                 actual.begin();
    }
    std::map<int, int> launches_per_ctaid;
    std::map<int, int> once;
    for (int ctaid = 0; ctaid < grid; ++ctaid) once[ctaid] = 1;
    int resumes = 0;
    int checkpoints = 0;
    for (const SimEvent& e : out.events) {
      if (e.kernel != static_cast<int>(k)) continue;
      if (e.kind == SimEventKind::kTbLaunch) ++launches_per_ctaid[e.tb];
      resumes += e.kind == SimEventKind::kTbResume;
      checkpoints += e.kind == SimEventKind::kTbCheckpoint;
    }
    EXPECT_EQ(launches_per_ctaid, once);
    EXPECT_EQ(resumes, checkpoints);
    EXPECT_EQ(stats.tbs_executed, static_cast<std::uint64_t>(grid));
    if (!single) {
      EXPECT_EQ(
          out.series.at({MetricScope::kKernel, static_cast<int>(k), "issued"}),
          stats.issued);
    }
  }
  for (std::size_t s = 0; s < r.per_sm.size(); ++s) {
    SCOPED_TRACE("sm " + std::to_string(s));
    const SmStats& stats = r.per_sm[s];
    const int id = static_cast<int>(s);
    EXPECT_EQ(out.series.at({MetricScope::kSm, id, "issued"}), stats.issued);
    for (int c = 0; c < kNumStallCauses; ++c) {
      const std::string name =
          std::string("stall.") + stall_cause_name(static_cast<StallCause>(c));
      EXPECT_EQ(out.series.at({MetricScope::kSm, id, name}),
                stats.cause_cycles[c])
          << name;
    }
  }
  const Expected<GpuResult> parsed = gpu_result_from_json(out.document);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().to_string();
  EXPECT_EQ(first_difference(gpu_result_to_json(parsed.value()), out.document),
            "");
}

/// Property 6: the event-driven run and the tick-every-cycle reference
/// produced the same bytes.
void expect_same(const Outcome& fast, const Outcome& tick) {
  EXPECT_EQ(tick.result.profile.ff_spans, 0u) << "the reference jumped";
  EXPECT_EQ(first_difference(fast.document, tick.document), "");
  EXPECT_EQ(first_difference(fast.causes, tick.causes), "");
  EXPECT_EQ(first_difference(fast.metrics_csv, tick.metrics_csv), "");
  EXPECT_EQ(first_difference(fast.journal_jsonl, tick.journal_jsonl), "");
}

class SimProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimProperty, Holds) {
  const std::uint64_t seed = GetParam();
  const Trial t = draw(seed);
  SCOPED_TRACE(describe(seed, t));

  std::vector<GlobalMemory> golden_memory = init_memories(t);
  std::vector<InterpreterResult> golden;
  for (std::size_t k = 0; k < t.launches.size(); ++k) {
    InterpreterOptions opts;
    opts.record_registers = t.workloads[k] == nullptr;
    golden.push_back(interpret(t.launches[k].program, golden_memory[k], opts));
  }

  for (const std::uint64_t f : t.fault_seeds) {
    SCOPED_TRACE("fault seed " + std::to_string(f));
    Outcome faulted;
    if (run(t, FaultConfig::chaos(f), false, faulted)) {
      check(t, golden_memory, golden, faulted);
    }
  }
  if (!t.fault_seeds.empty()) return;
  Outcome fast;
  Outcome tick;
  if (!run(t, FaultConfig{}, false, fast)) return;
  check(t, golden_memory, golden, fast);
  if (run(t, FaultConfig{}, true, tick)) expect_same(fast, tick);
}

// A fixed seed list keeps the budget fixed and every failure reproducible;
// a local soak widens the range.
INSTANTIATE_TEST_SUITE_P(Seeds, SimProperty,
                         ::testing::Range<std::uint64_t>(0, 256));

/// The serving benchmark's shape: 14 SMs and 2 partitions shared by three
/// staggered kernels with deadlines, PRO under preemptive_slo. Later
/// arrivals carry tighter absolute deadlines, so focus moves to them and
/// the older kernels are demoted.
TEST(WakeupEquivalenceServing, PreemptiveSloMatchesTickingEveryCycle) {
  Trial t;
  t.config.num_sms = 14;
  t.config.mem.num_partitions = 2;
  t.config.scheduler.kind = SchedulerKind::kPro;
  t.config.watchdog.barrier_timeout *= 4;
  t.admission = "preemptive_slo";
  t.interval = 10'000;
  const char* kernels[] = {"scalarProdGPU", "histogram64Kernel",
                           "GPU_laplace3d"};
  const Cycle deadlines[] = {400'000, 100'000, 30'000};
  for (int k = 0; k < static_cast<int>(std::size(kernels)); ++k) {
    const Workload& w = find_workload(kernels[k]);
    KernelLaunch l;
    l.kernel_id = k;
    l.name = w.kernel;
    l.program = w.program;
    l.arrival = static_cast<Cycle>(k) * 20'000;
    l.tenant.deadline_cycles = deadlines[k];
    t.launches.push_back(std::move(l));
    t.workloads.push_back(&w);
  }
  Outcome fast;
  Outcome tick;
  ASSERT_TRUE(run(t, FaultConfig{}, false, fast));
  ASSERT_TRUE(run(t, FaultConfig{}, true, tick));
  expect_same(fast, tick);
  EXPECT_NE(fast.journal_jsonl.find("\"demotion\""), std::string::npos)
      << "the cell must exercise preemption";
}

}  // namespace
}  // namespace prosim
