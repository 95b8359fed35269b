// Pins the optimized cycle loop to the pre-optimization implementation.
//
// The fast-forward/event-wakeup rework (see docs/PERF.md) must be
// invisible in results: every GpuResult field bit-identical to what the
// original tick-every-cycle loop produced. These fingerprints are FNV-1a
// hashes of gpu_result_to_json() — the same lossless serialization the
// sweep result cache stores — recorded from the seed implementation on
// six representative workloads (compute-bound, shared-memory heavy,
// memory-latency bound, irregular, barrier-heavy, multi-kernel app) for
// all four paper schedulers, plus one fault-injected cell that exercises
// the non-fast-forwarded path (fault injection disables cycle skipping).
//
// If a change moves these values it changed simulated behavior, not just
// speed — that is a correctness regression (or an intentional model
// change, which must re-record the constants AND refresh every golden
// artifact that depends on simulated results).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/fingerprint.hpp"
#include "metrics/metrics.hpp"
#include "gpu/admission.hpp"
#include "gpu/gpu.hpp"
#include "gpu/result_io.hpp"
#include "kernels/registry.hpp"

namespace prosim {
namespace {

std::uint64_t result_fingerprint(const Workload& w, const GpuConfig& cfg,
                                 ObservabilitySession* obs = nullptr) {
  GlobalMemory mem;
  if (w.init) w.init(mem);
  const GpuResult r = simulate(cfg, w.program, mem, obs);
  const std::string json = gpu_result_to_json(r);
  Fingerprint fp;
  fp.add_bytes(json.data(), json.size());
  return fp.hash();
}

// gtest prints a Cell as its raw bytes in the listed test name, so the
// scheduler kind leads: a leading pointer would make the visible part of
// the name depend on where the linker placed the kernel-name string.
struct Cell {
  SchedulerKind kind;
  const char* kernel;
  std::uint64_t expected;
};

// Recorded from the seed implementation (default GpuConfig — the fig4
// sweep configuration) before the hot-path rework.
constexpr Cell kCells[] = {
    {SchedulerKind::kLrr, "scalarProdGPU", 0x856755624a190199ull},
    {SchedulerKind::kGto, "scalarProdGPU", 0x1e4d8508ead8013full},
    {SchedulerKind::kTl, "scalarProdGPU", 0xf2a02ebebb02e32full},
    {SchedulerKind::kPro, "scalarProdGPU", 0xf0604c1acd235617ull},
    {SchedulerKind::kLrr, "histogram64Kernel", 0xa5566c0fdeb4c1a3ull},
    {SchedulerKind::kGto, "histogram64Kernel", 0x90bb7fff3249a079ull},
    {SchedulerKind::kTl, "histogram64Kernel", 0xdc8f192da1a4c3eaull},
    {SchedulerKind::kPro, "histogram64Kernel", 0xac4d3d4229760890ull},
    {SchedulerKind::kLrr, "GPU_laplace3d", 0x7cb9bc88114d6244ull},
    {SchedulerKind::kGto, "GPU_laplace3d", 0x66bf1be41e2e3d1eull},
    {SchedulerKind::kTl, "GPU_laplace3d", 0x9989434a0c6a9e7aull},
    {SchedulerKind::kPro, "GPU_laplace3d", 0x38970701efbcb9abull},
    {SchedulerKind::kLrr, "bfs_kernel", 0x9238752322f27cb4ull},
    {SchedulerKind::kGto, "bfs_kernel", 0x9df19b97a5dad72aull},
    {SchedulerKind::kTl, "bfs_kernel", 0x2a1b77df2e26072full},
    {SchedulerKind::kPro, "bfs_kernel", 0xa57699a9d2a9be82ull},
    {SchedulerKind::kLrr, "calculate_temp", 0xaad8152929a24ef7ull},
    {SchedulerKind::kGto, "calculate_temp", 0xf73d34b299219e61ull},
    {SchedulerKind::kTl, "calculate_temp", 0xb30cc56f2f0dce1aull},
    {SchedulerKind::kPro, "calculate_temp", 0x04656f32dcc626f9ull},
    {SchedulerKind::kLrr, "MonteCarloOneBlockPerOption",
     0x4feffd44f1db26eeull},
    {SchedulerKind::kGto, "MonteCarloOneBlockPerOption",
     0x7b0edbb23cca1e2dull},
    {SchedulerKind::kTl, "MonteCarloOneBlockPerOption",
     0x1b3cc5cd8525af8bull},
    {SchedulerKind::kPro, "MonteCarloOneBlockPerOption",
     0x14e6a647818a95dbull},
};

class EquivalenceFastpath
    : public ::testing::TestWithParam<Cell> {};

TEST_P(EquivalenceFastpath, MatchesSeedFingerprint) {
  const Cell& cell = GetParam();
  GpuConfig cfg;
  cfg.scheduler.kind = cell.kind;
  const std::uint64_t actual =
      result_fingerprint(find_workload(cell.kernel), cfg);
  EXPECT_EQ(actual, cell.expected)
      << cell.kernel << "/" << scheduler_name(cell.kind)
      << ": GpuResult diverged from the seed implementation (actual "
      << "fingerprint 0x" << std::hex << actual << ")";
}

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  return std::string(info.param.kernel) + "_" +
         scheduler_name(info.param.kind);
}

INSTANTIATE_TEST_SUITE_P(SeedCells, EquivalenceFastpath,
                         ::testing::ValuesIn(kCells), cell_name);

// Tracing must be purely observational: attaching every sink (warp lanes,
// wait windows) may not move a single bit of the canonical result. The
// pinned constants are the untraced seed values, so any perturbation — a
// classification side effect, a changed skip decision, an extra tick —
// fails against the same fingerprints above.
TEST(EquivalenceFastpath, TracingIsBitIdentical) {
  constexpr Cell kTracedCells[] = {
      {SchedulerKind::kLrr, "scalarProdGPU", 0x856755624a190199ull},
      {SchedulerKind::kPro, "scalarProdGPU", 0xf0604c1acd235617ull},
      {SchedulerKind::kPro, "GPU_laplace3d", 0x38970701efbcb9abull},
      {SchedulerKind::kTl, "bfs_kernel", 0x2a1b77df2e26072full},
      {SchedulerKind::kGto, "calculate_temp", 0xf73d34b299219e61ull},
  };
  for (const Cell& cell : kTracedCells) {
    GpuConfig cfg;
    cfg.scheduler.kind = cell.kind;
    ObservabilityOptions opts;
    opts.warp_lanes = "unused.json";
    opts.windows = "unused.csv";
    ObservabilitySession session(opts);
    const std::uint64_t actual =
        result_fingerprint(find_workload(cell.kernel), cfg, &session);
    EXPECT_EQ(actual, cell.expected)
        << cell.kernel << "/" << scheduler_name(cell.kind)
        << ": result changed when tracing was attached (actual "
        << "fingerprint 0x" << std::hex << actual << ")";
  }
}

// A sink that takes only the per-scheduler stall causes keeps the SMs on
// the cheaper no-warp-states path; pin that configuration separately from
// the everything-on case above.
TEST(EquivalenceFastpath, AttributionOnlyIsBitIdentical) {
  struct CausesOnly final : TraceSink {
    bool wants_warp_states() const override { return false; }
  } sink;
  GpuConfig cfg;
  cfg.scheduler.kind = SchedulerKind::kPro;
  const Workload& w = find_workload("scalarProdGPU");
  GlobalMemory mem;
  if (w.init) w.init(mem);
  Gpu gpu(cfg, w.program, mem);
  gpu.set_trace_sink(&sink);
  ASSERT_EQ(gpu.sm_trace_sink(), &sink);
  const std::string json = gpu_result_to_json(gpu.run());
  const std::uint64_t actual =
      Fingerprint().add_bytes(json.data(), json.size()).hash();
  EXPECT_EQ(actual, 0xf0604c1acd235617ull)
      << "causes-only tracing changed the result (actual "
      << "fingerprint 0x" << std::hex << actual << ")";
}

// The journal as JSON lines, without the rows of kind `drop`.
std::string journal_jsonl(const EventJournal& journal, SimEventKind drop) {
  EventJournal kept;
  for (const SimEvent& e : journal.events()) {
    if (e.kind != drop) kept.on_sim_event(e);
  }
  std::ostringstream os;
  kept.write_jsonl(os);
  return os.str();
}

// The legacy constructor *is* the concurrent-kernel constructor's
// one-launch fifo_exclusive run, and with a single launch every admission
// policy degenerates to "this kernel, always": the result fingerprints —
// pinned above from the seed implementation — must come out bit-identical,
// and the document must not grow the optional serving block's sibling
// fields into the canonical bytes (kernel_slices are serialized, appended
// after block_dim, so the prefix is the untouched single-kernel document).
// The lifecycle journals match too, except for the kernel_finish row that
// only a per-kernel report carries.
TEST(EquivalenceFastpath, SingleKernelViaMultiCtorMatchesSeed) {
  constexpr Cell kSingleCells[] = {
      {SchedulerKind::kPro, "scalarProdGPU", 0xf0604c1acd235617ull},
      {SchedulerKind::kLrr, "GPU_laplace3d", 0x7cb9bc88114d6244ull},
      {SchedulerKind::kTl, "bfs_kernel", 0x2a1b77df2e26072full},
      {SchedulerKind::kGto, "calculate_temp", 0xf73d34b299219e61ull},
  };
  for (const Cell& cell : kSingleCells) {
    const Workload& w = find_workload(cell.kernel);
    GpuConfig cfg;
    cfg.scheduler.kind = cell.kind;
    EventJournal legacy;
    {
      GlobalMemory mem;
      if (w.init) w.init(mem);
      Gpu gpu(cfg, w.program, mem);
      gpu.set_event_journal(&legacy);
      gpu.run();
    }
    EXPECT_EQ(legacy.count(SimEventKind::kKernelFinish), 0u) << cell.kernel;
    const std::string legacy_jsonl =
        journal_jsonl(legacy, SimEventKind::kKernelFinish);
    for (const AdmissionInfo& info : admission_registry()) {
      const std::string admission = info.name;
      GlobalMemory mem;
      if (w.init) w.init(mem);
      std::vector<KernelLaunch> launches;
      KernelLaunch launch;
      launch.kernel_id = 0;
      launch.name = cell.kernel;
      launch.program = w.program;
      launch.memory = &mem;
      launches.push_back(std::move(launch));
      Gpu gpu(cfg, std::move(launches), admission);
      EventJournal journal;
      gpu.set_event_journal(&journal);
      GpuResult r = gpu.run();
      EXPECT_EQ(journal.count(SimEventKind::kKernelFinish), 1u)
          << cell.kernel << "/" << admission;
      EXPECT_EQ(journal_jsonl(journal, SimEventKind::kKernelFinish),
                legacy_jsonl)
          << cell.kernel << "/" << admission
          << ": lifecycle journal diverged from the legacy constructor's";
      // The multi path records a (correct) slice for its one kernel; the
      // canonical document then carries the optional serving block. Every
      // *seed* field must still hash to the pinned fingerprint, so strip
      // the optional block and compare against the legacy constant.
      ASSERT_EQ(r.kernel_slices.size(), 1u) << admission;
      EXPECT_TRUE(r.kernel_slices[0].finished) << admission;
      // The slice finishes when its last TB drains; the run's cycle count
      // additionally covers the memory-subsystem drain that follows.
      EXPECT_GT(r.kernel_slices[0].finish, 0u) << admission;
      EXPECT_LE(r.kernel_slices[0].finish, r.cycles) << admission;
      r.kernel_slices.clear();
      const std::string json = gpu_result_to_json(r);
      EXPECT_EQ(json.find("\"serving\""), std::string::npos);
      Fingerprint fp;
      fp.add_bytes(json.data(), json.size());
      EXPECT_EQ(fp.hash(), cell.expected)
          << cell.kernel << "/" << scheduler_name(cell.kind) << "/"
          << admission
          << ": single-kernel run through the concurrent-kernel "
          << "constructor diverged from the legacy path (actual "
          << "fingerprint 0x" << std::hex << fp.hash() << ")";
    }
  }
}

// Fault injection disables fast-forwarding entirely (the injector draws
// per-cycle random numbers), so this cell pins the plain ticking loop —
// and the fault stream itself — across the optimization work.
TEST(EquivalenceFastpath, FaultInjectedCellMatchesSeed) {
  GpuConfig cfg;
  cfg.scheduler.kind = SchedulerKind::kPro;
  cfg.faults = FaultConfig::chaos(1234);
  const std::uint64_t actual =
      result_fingerprint(find_workload("scalarProdGPU"), cfg);
  EXPECT_EQ(actual, 0xadab3da89f00b3abull)
      << "fault-injected cell diverged from the seed implementation "
      << "(actual fingerprint 0x" << std::hex << actual << ")";
}

// Metrics sampling and the event journal are observers under the same
// contract as tracing: attaching both may not move a single bit of the
// canonical result, even though sampling clamps fast-forward spans at
// interval boundaries (skipping fewer cycles is provably bit-identical).
// The pinned constants are the untouched seed values.
TEST(EquivalenceFastpath, MetricsAndJournalAreBitIdentical) {
  constexpr Cell kObservedCells[] = {
      {SchedulerKind::kPro, "scalarProdGPU", 0xf0604c1acd235617ull},
      {SchedulerKind::kLrr, "GPU_laplace3d", 0x7cb9bc88114d6244ull},
      {SchedulerKind::kTl, "bfs_kernel", 0x2a1b77df2e26072full},
      {SchedulerKind::kGto, "calculate_temp", 0xf73d34b299219e61ull},
  };
  for (const Cell& cell : kObservedCells) {
    GpuConfig cfg;
    cfg.scheduler.kind = cell.kind;
    const Workload& w = find_workload(cell.kernel);
    GlobalMemory mem;
    if (w.init) w.init(mem);
    ObservabilityOptions opts;
    opts.metrics_interval = 777;  // deliberately an odd interval
    opts.events_jsonl = "unused.jsonl";
    ObservabilitySession session(opts);
    const GpuResult r = simulate(cfg, w.program, mem, &session);
    EXPECT_FALSE(session.metrics()->registry().samples().empty())
        << cell.kernel;
    const EventJournal& journal = *session.journal();
    EXPECT_GE(journal.count(SimEventKind::kTbLaunch), 1u) << cell.kernel;
    EXPECT_EQ(journal.count(SimEventKind::kSimEnd), 1u) << cell.kernel;
    const std::string json = gpu_result_to_json(r);
    EXPECT_EQ(json.find("\"profile\""), std::string::npos)
        << "SimProfile leaked into the canonical document";
    Fingerprint fp;
    fp.add_bytes(json.data(), json.size());
    EXPECT_EQ(fp.hash(), cell.expected)
        << cell.kernel << "/" << scheduler_name(cell.kind)
        << ": result changed when metrics + journal were attached "
        << "(actual fingerprint 0x" << std::hex << fp.hash() << ")";
  }
}

// The same contract with the optimizations toggled around the observers:
// plain ticking (PROSIM_NO_FASTFORWARD=1) reproduces the pinned seed
// fingerprint.
TEST(EquivalenceFastpath, ObserversBitIdenticalAcrossExecutionModes) {
  constexpr Cell kCell = {SchedulerKind::kPro, "scalarProdGPU",
                          0xf0604c1acd235617ull};
  const Workload& w = find_workload(kCell.kernel);
  ::setenv("PROSIM_NO_FASTFORWARD", "1", 1);
  GpuConfig cfg;
  cfg.scheduler.kind = kCell.kind;
  GlobalMemory mem;
  if (w.init) w.init(mem);
  ObservabilityOptions opts;
  opts.metrics_interval = 500;
  opts.events_jsonl = "unused.jsonl";
  ObservabilitySession session(opts);
  const GpuResult r = simulate(cfg, w.program, mem, &session);
  ::unsetenv("PROSIM_NO_FASTFORWARD");
  const std::string json = gpu_result_to_json(r);
  Fingerprint fp;
  fp.add_bytes(json.data(), json.size());
  EXPECT_EQ(fp.hash(), kCell.expected)
      << "observed run without fast-forward diverged (actual fingerprint 0x"
      << std::hex << fp.hash() << ")";
}

}  // namespace
}  // namespace prosim
