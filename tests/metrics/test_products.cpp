// End-to-end tests of the observability products as the runners write
// them: byte-identity against recorded digests, write-error reporting and
// the per-cell suffix rule of multi-cell runs.
//
// The digests are FNV-1a hashes of every product file of two cells,
// recorded from the implementation that predates the single observability
// session (separate trace and metrics sessions, the journal outside the
// sink fan-out). Any reordered, dropped or duplicated event changes them.
// The two k.json digests were re-recorded when the kernel timeline moved
// to the Trace Event writer's array form; its events are unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/fingerprint.hpp"
#include "kernels/registry.hpp"
#include "litmus/litmus.hpp"
#include "runner/runner.hpp"
#include "serving/serving.hpp"

namespace prosim {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty scratch directory for one test.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("prosim_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// FNV-1a of a file's bytes as 16 hex digits ("missing" when absent).
std::string file_digest(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "missing";
  std::ostringstream bytes;
  bytes << in.rdbuf();
  const std::string s = bytes.str();
  return Fingerprint().add_bytes(s.data(), s.size()).hex();
}

/// The 14-SM preemptive_slo serving cell (prosim-serve --sms 14
/// --schedulers PRO --admissions preemptive_slo --requests 4).
serving::ServingOptions serving_cell(const fs::path& dir) {
  serving::ServingOptions options;
  options.trace.seed = 42;
  options.trace.requests = 4;
  options.trace.gap_scale = 20000;
  options.trace.mix = {"scalarProdGPU", "histogram64Kernel", "GPU_laplace3d"};
  options.base = GpuConfig::test_config();
  options.base.num_sms = 14;
  options.schedulers = {SchedulerKind::kPro};
  options.admissions = {"preemptive_slo"};
  options.obs.metrics_interval = 20000;
  options.obs.metrics_csv = (dir / "m.csv").string();
  options.obs.metrics_json = (dir / "m.json").string();
  options.obs.events_jsonl = (dir / "e.jsonl").string();
  options.obs.kernel_timeline = (dir / "k.json").string();
  return options;
}

/// One single-kernel cell of a small kernel (PRO unless `kind` says
/// otherwise).
runner::SweepJob sweep_job(SchedulerKind kind = SchedulerKind::kPro) {
  GpuConfig config = GpuConfig::test_config();
  config.scheduler.kind = kind;
  return runner::SweepJob::make(find_workload("mergeHistogram64Kernel"),
                                config);
}

/// Every product of a run_sweep cell, at paths in `dir`.
ObservabilityOptions every_product(const fs::path& dir) {
  ObservabilityOptions obs;
  obs.warp_lanes = (dir / "lanes.json").string();
  obs.windows = (dir / "w.csv").string();
  obs.metrics_interval = 500;
  obs.metrics_csv = (dir / "m.csv").string();
  obs.metrics_json = (dir / "m.json").string();
  obs.events_jsonl = (dir / "e.jsonl").string();
  obs.kernel_timeline = (dir / "k.json").string();
  return obs;
}

runner::SweepReport sweep(const std::vector<runner::SweepJob>& jobs,
                          const ObservabilityOptions& obs) {
  runner::SweepOptions options;
  options.obs = obs;
  return runner::run_sweep(jobs, options);
}

TEST(ObservabilityProducts, ServingCellMatchesRecordedDigests) {
  const fs::path dir = scratch_dir("serve_digests");
  const serving::ServingReport report =
      serving::run_serving(serving_cell(dir));
  ASSERT_EQ(report.cells.size(), 1u);
  ASSERT_TRUE(report.cells[0].ok());
  EXPECT_EQ(report.cells[0].write_error, "");
  const std::pair<const char*, const char*> want[] = {
      {"m.csv", "e10caaa865607031"}, {"m.json", "7ece85a3ac80ecb4"},
      {"e.jsonl", "03265348d82f5265"}, {"k.json", "b508a66e2b4a8af9"}};
  for (const auto& [file, digest] : want) {
    EXPECT_EQ(file_digest(dir / file), digest) << file;
  }
}

// A one-cell sweep writes every product at its path as given.
TEST(ObservabilityProducts, SingleKernelCellMatchesRecordedDigests) {
  const fs::path dir = scratch_dir("sweep_digests");
  const runner::SweepReport report = sweep({sweep_job()}, every_product(dir));
  ASSERT_EQ(report.cells.size(), 1u);
  ASSERT_TRUE(report.cells[0].ok());
  EXPECT_EQ(report.cells[0].write_error, "");
  const std::pair<const char*, const char*> want[] = {
      {"m.csv", "91c9e5f39e0c8eb5"},      {"m.json", "70313bef1722a325"},
      {"e.jsonl", "1d696ca54ee31a42"},    {"k.json", "6ebf8549a829e8bf"},
      {"lanes.json", "9302ce59c4060a0d"}, {"w.csv", "aa2142f0b8687b46"},
      {"w.hist.csv", "7cdb0853b029bc01"}};
  for (const auto& [file, digest] : want) {
    EXPECT_EQ(file_digest(dir / file), digest) << file;
  }
}

// With more than one cell, each product path carries the cell's cache key
// before its extension, and nothing else is written.
TEST(ObservabilityProducts, MultiCellPathsCarryTheCacheKey) {
  const fs::path dir = scratch_dir("multi_cell");
  const std::vector<runner::SweepJob> jobs = {
      sweep_job(), sweep_job(SchedulerKind::kGto)};
  const runner::SweepReport report = sweep(jobs, every_product(dir));
  std::vector<fs::path> want;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(report.cells[i].ok());
    EXPECT_EQ(report.cells[i].write_error, "");
    const std::string key = jobs[i].cache_key();
    for (const char* file : {"lanes.json", "w.csv", "w.hist.csv", "m.csv",
                             "m.json", "e.jsonl", "k.json"}) {
      const std::string name = file;
      const std::size_t dot = name.find('.');
      want.push_back(dir / (name.substr(0, dot) + "." + key +
                            name.substr(dot)));
    }
  }
  std::vector<fs::path> written;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    written.push_back(entry.path());
  }
  std::sort(want.begin(), want.end());
  std::sort(written.begin(), written.end());
  EXPECT_EQ(written, want);
}

// A product that cannot be written is reported per cell with its path,
// by every runner that writes products; the simulation result stands.
TEST(ObservabilityProducts, UnwritablePathIsReportedPerCell) {
  const fs::path dir = scratch_dir("unwritable");
  const std::string missing = (dir / "no" / "such" / "e.jsonl").string();

  serving::ServingOptions serve = serving_cell(dir);
  serve.trace.requests = 2;
  serve.obs = {};
  serve.obs.events_jsonl = missing;
  const serving::ServingReport served = serving::run_serving(serve);
  ASSERT_TRUE(served.cells[0].ok());
  EXPECT_NE(served.cells[0].write_error.find(missing), std::string::npos)
      << served.cells[0].write_error;

  ObservabilityOptions obs;
  obs.events_jsonl = missing;
  const runner::SweepReport swept = sweep({sweep_job()}, obs);
  ASSERT_TRUE(swept.cells[0].ok());
  EXPECT_NE(swept.cells[0].write_error.find(missing), std::string::npos)
      << swept.cells[0].write_error;

  litmus::LitmusOptions lit;
  lit.schedulers = {SchedulerKind::kGto};
  lit.tests = {"intra_tb_flag"};
  lit.obs.events_jsonl = missing;
  for (const litmus::LitmusReport& report :
       {litmus::run_litmus(lit), litmus::run_litmus_bg(lit)}) {
    ASSERT_FALSE(report.cells.empty());
    for (const litmus::LitmusCell& cell : report.cells) {
      EXPECT_NE(cell.write_error.find(dir.string()), std::string::npos)
          << cell.litmus << ": " << cell.write_error;
    }
  }
}

}  // namespace
}  // namespace prosim
