// End-to-end tests of the observability products as the runners write
// them: byte-identity against recorded digests, write-error reporting and
// product path resolution.
//
// The digests are FNV-1a hashes of every product file of two cells,
// recorded from the implementation that predates the single observability
// session (separate trace and metrics sessions, the journal outside the
// sink fan-out). Any reordered, dropped or duplicated event changes them.
#include <gtest/gtest.h>

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

/// One single-kernel PRO cell through run_sweep with every product on.
runner::SweepJob sweep_job() {
  GpuConfig config = GpuConfig::test_config();
  config.scheduler.kind = SchedulerKind::kPro;
  return runner::SweepJob::make(find_workload("mergeHistogram64Kernel"),
                                config);
}

runner::SweepReport sweep_cell(const fs::path& dir,
                               const ObservabilityOptions& obs) {
  runner::SweepOptions options;
  options.trace_dir = dir.string();
  options.obs = obs;
  options.obs.warp_lanes = true;
  options.obs.windows = true;
  return runner::run_sweep({sweep_job()}, options);
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
      {"e.jsonl", "03265348d82f5265"}, {"k.json", "cbff52e9baaffc35"}};
  for (const auto& [file, digest] : want) {
    EXPECT_EQ(file_digest(dir / file), digest) << file;
  }
}

TEST(ObservabilityProducts, SingleKernelCellMatchesRecordedDigests) {
  const fs::path dir = scratch_dir("sweep_digests");
  ObservabilityOptions obs;
  obs.metrics_interval = 500;
  obs.metrics_csv = "m.csv";
  obs.metrics_json = "m.json";
  obs.events_jsonl = "e.jsonl";
  obs.kernel_timeline = "k.json";
  const runner::SweepReport report = sweep_cell(dir, obs);
  ASSERT_EQ(report.cells.size(), 1u);
  ASSERT_TRUE(report.cells[0].ok());
  EXPECT_EQ(report.cells[0].write_error, "");
  const SmStats& totals = report.cells[0].result->totals;
  EXPECT_EQ(totals.cause_cycles[static_cast<int>(StallCause::kIssued)],
            totals.issued);
  const std::string key = sweep_job().cache_key();
  const std::pair<std::string, const char*> want[] = {
      {"m." + key + ".csv", "91c9e5f39e0c8eb5"},
      {"m." + key + ".json", "70313bef1722a325"},
      {"e." + key + ".jsonl", "1d696ca54ee31a42"},
      {"k." + key + ".json", "b8ae01a2f0e0e1f7"},
      {key + ".trace.json", "9302ce59c4060a0d"},
      {key + ".windows.csv", "aa2142f0b8687b46"},
      {key + ".windows.hist.csv", "7cdb0853b029bc01"}};
  for (const auto& [file, digest] : want) {
    EXPECT_EQ(file_digest(dir / file), digest) << file;
  }
}

// Relative product paths land in trace_dir; absolute ones stay where
// they point.
TEST(ObservabilityProducts, AbsolutePathsIgnoreTraceDir) {
  const fs::path dir = scratch_dir("abs_paths");
  const fs::path elsewhere = scratch_dir("abs_paths_elsewhere");
  ObservabilityOptions obs;
  obs.events_jsonl = (elsewhere / "e.jsonl").string();
  obs.kernel_timeline = "k.json";
  const runner::SweepReport report = sweep_cell(dir, obs);
  ASSERT_TRUE(report.cells[0].ok());
  EXPECT_EQ(report.cells[0].write_error, "");
  const std::string key = sweep_job().cache_key();
  EXPECT_TRUE(fs::exists(elsewhere / ("e." + key + ".jsonl")));
  EXPECT_TRUE(fs::exists(dir / ("k." + key + ".json")));
  EXPECT_TRUE(fs::exists(dir / (key + ".trace.json")));
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
  const runner::SweepReport swept = sweep_cell(dir, obs);
  ASSERT_TRUE(swept.cells[0].ok());
  EXPECT_NE(swept.cells[0].write_error.find("e." + sweep_job().cache_key()),
            std::string::npos)
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
