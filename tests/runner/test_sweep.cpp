// The sweep engine's three ISSUE-level guarantees:
//   1. Determinism — --jobs 8 is bit-identical to --jobs 1, across all
//      four paper schedulers and a fault-injected cell.
//   2. Failure isolation — one failing cell becomes a structured-error
//      artifact; the rest of the sweep completes normally.
//   3. Warm cache — rerunning an unchanged matrix simulates nothing.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gpu/result_io.hpp"
#include "kernels/registry.hpp"
#include "runner/matrix.hpp"
#include "runner/runner.hpp"
#include "sweep_test_util.hpp"

namespace prosim::runner {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("prosim_" + name);
  fs::remove_all(dir);
  return dir.string();
}

/// Two synthetic workloads x {LRR, GTO, TL, PRO}, fault-free plus one
/// chaos-faulted twin per cell — the matrix the determinism test sweeps.
std::vector<SweepJob> determinism_matrix() {
  const std::vector<Workload> workloads = {
      runner_test::make_mem_workload("det_mem", 4),
      runner_test::make_alu_workload("det_alu", 3),
  };
  const std::vector<SchedulerKind> kinds = {
      SchedulerKind::kLrr, SchedulerKind::kGto, SchedulerKind::kTl,
      SchedulerKind::kPro};
  return cross_matrix(workloads, kinds, /*fault_seeds=*/{11},
                      /*include_fault_free=*/true,
                      runner_test::sweep_test_config());
}

TEST(Sweep, ParallelRunIsBitIdenticalToSerial) {
  const std::vector<SweepJob> jobs = determinism_matrix();
  ASSERT_EQ(jobs.size(), 16u);  // 2 workloads x 4 schedulers x 2 fault modes

  SweepOptions serial;
  serial.jobs = 1;
  const SweepReport a = run_sweep(jobs, serial);

  SweepOptions parallel_opts;
  parallel_opts.jobs = 8;
  const SweepReport b = run_sweep(jobs, parallel_opts);

  ASSERT_EQ(a.cells.size(), jobs.size());
  ASSERT_EQ(b.cells.size(), jobs.size());
  EXPECT_EQ(a.simulated, jobs.size());
  EXPECT_EQ(b.simulated, jobs.size());

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(a.cells[i].ok()) << a.cells[i].label;
    ASSERT_TRUE(b.cells[i].ok()) << b.cells[i].label;
    EXPECT_EQ(a.cells[i].label, b.cells[i].label);
    EXPECT_EQ(gpu_result_to_json(*a.cells[i].result),
              gpu_result_to_json(*b.cells[i].result))
        << "cell " << a.cells[i].label << " differs between --jobs 1 and 8";
  }

  // The faulted twins must genuinely diverge from their fault-free cells
  // (otherwise the fault leg of this test proves nothing).
  bool any_faulted = false;
  for (const SweepCell& cell : a.cells) {
    if (cell.result->faults_injected > 0) any_faulted = true;
  }
  EXPECT_TRUE(any_faulted);
}

TEST(Sweep, SchedulersActuallyDiverge) {
  // Sanity for the determinism test's strength: the mem-heavy workload
  // must not produce identical cycle counts under all four schedulers.
  const std::vector<SweepJob> jobs = cross_matrix(
      {runner_test::make_mem_workload("diverge", 6)},
      {SchedulerKind::kLrr, SchedulerKind::kGto, SchedulerKind::kTl,
       SchedulerKind::kPro},
      /*fault_seeds=*/{}, /*include_fault_free=*/true,
      runner_test::sweep_test_config());
  const SweepReport report = run_sweep(jobs);
  std::set<Cycle> cycles;
  for (const SweepCell& cell : report.cells) {
    ASSERT_TRUE(cell.ok());
    cycles.insert(cell.result->cycles);
  }
  EXPECT_GT(cycles.size(), 1u);
}

TEST(Sweep, FailingCellIsIsolated) {
  std::vector<SweepJob> jobs = cross_matrix(
      {runner_test::make_mem_workload("isolate", 3)},
      {SchedulerKind::kLrr, SchedulerKind::kGto}, {},
      /*include_fault_free=*/true, runner_test::sweep_test_config());
  // Doom the middle cell: a max_cycles budget no real run fits inside.
  GpuConfig doomed = runner_test::sweep_test_config();
  doomed.max_cycles = 10;
  jobs.insert(jobs.begin() + 1,
              SweepJob::make(runner_test::make_mem_workload("doomed", 3),
                             doomed));

  const SweepReport report = run_sweep(jobs);
  ASSERT_EQ(report.cells.size(), 3u);
  EXPECT_TRUE(report.cells[0].ok());
  EXPECT_FALSE(report.cells[1].ok());
  EXPECT_TRUE(report.cells[2].ok());
  EXPECT_EQ(report.failures, 1u);

  // The failure is a structured artifact, not just a flag.
  ASSERT_TRUE(report.cells[1].error.has_value());
  EXPECT_FALSE(report.cells[1].error->message.empty());
}

TEST(Sweep, WarmCacheRunSimulatesNothing) {
  const std::string cache_dir = fresh_dir("warm");
  const std::vector<SweepJob> jobs = determinism_matrix();

  SweepOptions opts;
  opts.jobs = 4;
  opts.cache_dir = cache_dir;
  const SweepReport cold = run_sweep(jobs, opts);
  EXPECT_EQ(cold.simulated, jobs.size());
  EXPECT_EQ(cold.cache_hits, 0u);

  const SweepReport warm = run_sweep(jobs, opts);
  EXPECT_EQ(warm.simulated, 0u);  // the ISSUE's acceptance criterion
  EXPECT_EQ(warm.cache_hits, jobs.size());
  for (const SweepCell& cell : warm.cells) {
    EXPECT_TRUE(cell.from_cache) << cell.label;
  }

  // Cached cells are byte-identical to freshly simulated ones.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(warm.cells[i].ok());
    EXPECT_EQ(gpu_result_to_json(*warm.cells[i].result),
              gpu_result_to_json(*cold.cells[i].result));
  }
}

TEST(Sweep, ConfigChangeMissesTheCache) {
  const std::string cache_dir = fresh_dir("invalidate");
  std::vector<SweepJob> jobs = {SweepJob::make(
      runner_test::make_alu_workload("inval", 2),
      runner_test::sweep_test_config())};

  SweepOptions opts;
  opts.cache_dir = cache_dir;
  EXPECT_EQ(run_sweep(jobs, opts).simulated, 1u);
  EXPECT_EQ(run_sweep(jobs, opts).simulated, 0u);

  // Any timing-relevant knob change must invalidate.
  GpuConfig changed = runner_test::sweep_test_config();
  changed.scheduler.pro.sort_threshold = 500;
  changed.scheduler.kind = SchedulerKind::kPro;
  jobs[0] = SweepJob::make(runner_test::make_alu_workload("inval", 2), changed);
  EXPECT_EQ(run_sweep(jobs, opts).simulated, 1u);
}

// A cell whose config differs from the default in more than the
// scheduler, SM count and faults carries a config fingerprint in its label.
TEST(Sweep, LabelsTellConfigsApart) {
  const Workload& w = find_workload("bfs_kernel");
  GpuConfig plain;
  plain.scheduler.kind = SchedulerKind::kPro;
  GpuConfig no_l1 = plain;
  no_l1.sm.l1_enabled = false;
  const std::string label = SweepJob::make(w, plain).label;
  const std::string no_l1_label = SweepJob::make(w, no_l1).label;
  EXPECT_EQ(label, "bfs_kernel/PRO.sms14");
  EXPECT_NE(no_l1_label, label);
  EXPECT_EQ(no_l1_label.rfind(label + ".cfg", 0), 0u) << no_l1_label;
}

// The cache key runs the workload's init() a second time to hash the input
// image; a sweep with no cache and no product path never computes it.
TEST(Sweep, KeyIsComputedOnlyWhereRead) {
  const auto inits = std::make_shared<std::atomic<int>>(0);
  Workload w = runner_test::make_mem_workload("counted", 6);
  w.init = [inits, init = w.init](GlobalMemory& mem) {
    ++*inits;
    init(mem);
  };
  const std::vector<SweepJob> jobs = cross_matrix(
      {w}, {SchedulerKind::kLrr, SchedulerKind::kPro}, /*fault_seeds=*/{},
      /*include_fault_free=*/true, runner_test::sweep_test_config());

  SweepOptions opts;
  opts.jobs = 2;
  EXPECT_EQ(run_sweep(jobs, opts).simulated, jobs.size());
  EXPECT_EQ(*inits, static_cast<int>(jobs.size()));  // once per cell

  opts.cache_dir = fresh_dir("keyed");
  const SweepReport cold = run_sweep(jobs, opts);
  EXPECT_EQ(cold.simulated, jobs.size());
  const SweepReport warm = run_sweep(jobs, opts);
  EXPECT_EQ(warm.simulated, 0u);
  EXPECT_EQ(warm.cache_hits, jobs.size());
  // Each cell hits its own entry: LRR and PRO finish at different cycles.
  EXPECT_NE(cold.cells[0].result->cycles, cold.cells[1].result->cycles);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(gpu_result_to_json(*warm.cells[i].result),
              gpu_result_to_json(*cold.cells[i].result));
  }
}

TEST(Sweep, ProgressCallbackSeesEveryCell) {
  const std::vector<SweepJob> jobs = determinism_matrix();
  std::set<std::string> labels_seen;
  std::vector<int> completed_seen;
  int last_total = 0;
  SweepOptions opts;
  opts.jobs = 8;
  opts.progress = [&](const SweepProgress& p) {
    // Serialized by the runner, so no locking needed here.
    ASSERT_NE(p.cell, nullptr);
    labels_seen.insert(p.cell->label);
    completed_seen.push_back(p.completed);
    last_total = p.total;
  };
  run_sweep(jobs, opts);
  EXPECT_EQ(labels_seen.size(), jobs.size());
  EXPECT_EQ(last_total, static_cast<int>(jobs.size()));
  // Counts arrive in delivery order: 1, 2, ..., n.
  ASSERT_EQ(completed_seen.size(), jobs.size());
  for (std::size_t i = 0; i < completed_seen.size(); ++i) {
    EXPECT_EQ(completed_seen[i], static_cast<int>(i) + 1);
  }
}

TEST(CellPool, RunsEveryCellOnceWhateverJobs) {
  for (const int jobs : {0, 1, 3, 64}) {
    std::vector<int> runs(10, 0);
    std::vector<int> completed_seen;
    const auto run_one = [&](int i) { ++runs[static_cast<std::size_t>(i)]; };
    const auto on_done = [&](int, int completed) {
      // Holding the pool's lock a while queues the other workers on it,
      // so a count taken outside the lock would arrive out of order.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      completed_seen.push_back(completed);
    };
    run_cells(10, jobs, run_one, on_done);
    EXPECT_EQ(runs, std::vector<int>(10, 1)) << "jobs " << jobs;
    ASSERT_EQ(completed_seen.size(), 10u) << "jobs " << jobs;
    for (int i = 0; i < 10; ++i) EXPECT_EQ(completed_seen[i], i + 1);
  }
  run_cells(0, 4, [](int) { FAIL() << "no cell to run"; });
}

TEST(Sweep, MemoizedRunReturnsStableReference) {
  const Workload w = runner_test::make_alu_workload("memo", 2);
  const GpuConfig cfg = runner_test::sweep_test_config();
  const GpuResult& first = memoized_run(w, cfg);
  const GpuResult& second = memoized_run(w, cfg);
  EXPECT_EQ(&first, &second);  // same map node, not a re-simulation

  GpuConfig other = cfg;
  other.scheduler.kind = SchedulerKind::kGto;
  const GpuResult& third = memoized_run(w, other);
  EXPECT_NE(&first, &third);
}

TEST(Matrix, SpecExpandsAndValidates) {
  Expected<std::vector<SweepJob>> jobs = jobs_from_spec(R"({
    "workloads": ["scalarProdGPU"],
    "schedulers": ["LRR", "PRO"],
    "fault_seeds": [3],
    "include_fault_free": true
  })");
  ASSERT_TRUE(jobs.has_value()) << jobs.error().message;
  EXPECT_EQ(jobs.value().size(), 4u);  // 1 workload x 2 scheds x 2 modes

  EXPECT_FALSE(jobs_from_spec("not json").has_value());
  EXPECT_FALSE(jobs_from_spec(R"({"workloads": ["noSuchKernel"]})")
                   .has_value());
  EXPECT_FALSE(jobs_from_spec(R"({"schedulers": ["FIFO"]})").has_value());
  EXPECT_FALSE(jobs_from_spec(R"({"unknown_key": 1})").has_value());
}

TEST(Matrix, Fig4MatrixCoversAllWorkloadsAndSchedulers) {
  const std::vector<SweepJob> jobs = fig4_matrix();
  EXPECT_EQ(jobs.size(), all_workloads().size() * 4);
  std::set<std::string> keys;
  for (const SweepJob& job : jobs) {
    EXPECT_TRUE(keys.insert(job.cache_key()).second)
        << "duplicate cache key " << job.cache_key();
  }
}

}  // namespace
}  // namespace prosim::runner
