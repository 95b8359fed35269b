// prosim-sweep: parallel experiment-sweep driver over the workload x
// scheduler x config x fault-seed matrix, with a persistent result cache.
//
//   $ prosim-sweep --fig4 --jobs 8 --cache-dir .prosim-cache --out fig4.json
//   $ prosim-sweep --paper --jobs 4 --cache-dir .prosim-cache > paper.txt
//   $ prosim-sweep --matrix sweep.json --csv results.csv
//   $ prosim-sweep --workloads scalarProdGPU,bfs_kernel --schedulers LRR,PRO
//   $ prosim-sweep --fig4 --cache-dir .prosim-cache --expect-cached
//   $ prosim-sweep --workloads scalarProdGPU --warp-lanes traces/lanes.json
//
// One failed cell does not kill the sweep: the failure is recorded as a
// structured-error artifact in the output and the exit code becomes 4.
// --expect-cached asserts a warm cache (exit 5 if anything simulated).
// --paper prints every table and figure of the paper's evaluation to
// stdout (src/runner/paper.hpp) once all its cells have run.
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/argparse.hpp"
#include "common/build_info.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "gpu/admission.hpp"
#include "gpu/result_io.hpp"
#include "gpu/scheduler_registry.hpp"
#include "runner/matrix.hpp"
#include "runner/paper.hpp"
#include "runner/runner.hpp"

using namespace prosim;
using namespace prosim::runner;

namespace {

struct Options {
  std::string matrix_path;
  bool paper = false;
  bool fig4 = false;
  std::vector<std::string> workloads;
  std::vector<std::string> schedulers;
  int jobs = 0;        // 0 = hardware concurrency
  std::string cache_dir;
  std::uint64_t fault_seed = 0;
  bool have_fault_seed = false;
  std::string out_path;
  std::string csv_path;
  bool quiet = false;
  bool expect_cached = false;
  std::int64_t metrics_interval = 0;
  ObservabilityOptions obs;
  bool profile = false;
  bool progress_line = false;
};

/// Rejects a second matrix selection (--fig4 is the default one) and
/// flags the selection does not use, after printing the reason.
bool check_selection(const ArgParser& parser) {
  std::string chosen;
  for (const char* flag : {"--paper", "--fig4", "--workloads", "--matrix"}) {
    if (!parser.seen(flag)) continue;
    if (!chosen.empty()) {
      std::cerr << chosen << " and " << flag
                << " are both matrix selections; choose one\n";
      return false;
    }
    chosen = flag;
  }
  if (chosen.empty()) chosen = "--fig4";
  const char* unused = nullptr;
  if (parser.seen("--schedulers") && chosen != "--workloads") {
    unused = "--schedulers";
  } else if (parser.seen("--fault-seed") &&
             (chosen == "--paper" || chosen == "--fig4")) {
    unused = "--fault-seed";
  }
  if (unused != nullptr) {
    std::cerr << unused << " does not apply to " << chosen << "\n";
  }
  return unused == nullptr;
}

/// Builds the job list from whichever selection mechanism was used.
/// `keys` receives the jobs' cache keys where building them computed them.
bool build_jobs(const Options& opt, std::vector<SweepJob>& jobs,
                std::vector<std::string>& keys) {
  if (opt.paper) {
    PaperCells cells = paper_cells();
    jobs = std::move(cells.jobs);
    keys = std::move(cells.keys);
  } else if (!opt.matrix_path.empty()) {
    std::ifstream in(opt.matrix_path);
    if (!in) {
      std::cerr << "cannot open " << opt.matrix_path << "\n";
      return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    Expected<std::vector<SweepJob>> expanded = jobs_from_spec(text.str());
    if (!expanded.has_value()) {
      std::cerr << opt.matrix_path << ": " << expanded.error().message << "\n";
      return false;
    }
    jobs = std::move(expanded.value());
  } else if (!opt.workloads.empty()) {
    std::vector<Workload> workloads;
    for (const std::string& kernel : opt.workloads) {
      bool found = false;
      for (const Workload& w : all_workloads()) {
        if (w.kernel == kernel) {
          workloads.push_back(w);
          found = true;
        }
      }
      if (!found) {
        std::cerr << "unknown kernel '" << kernel << "'\n";
        return false;
      }
    }
    std::vector<SchedulerKind> kinds;
    if (opt.schedulers.empty()) {
      kinds = {SchedulerKind::kLrr, SchedulerKind::kGto, SchedulerKind::kTl,
               SchedulerKind::kPro};
    } else {
      for (const std::string& name : opt.schedulers) {
        const SchedulerInfo* info = find_scheduler(name);
        if (info == nullptr) {
          std::cerr << "unknown scheduler '" << name << "'\n"
                    << list_schedulers();
          return false;
        }
        kinds.push_back(info->kind);
      }
    }
    jobs = cross_matrix(workloads, kinds, {});
  } else {
    jobs = fig4_matrix();
  }

  if (opt.have_fault_seed) {
    // Add the fault dimension on top of whatever matrix was selected.
    std::vector<SweepJob> faulted;
    faulted.reserve(jobs.size() * 2);
    for (const SweepJob& job : jobs) {
      faulted.push_back(job);
      GpuConfig cfg = job.config;
      cfg.faults = FaultConfig::chaos(opt.fault_seed);
      faulted.push_back(SweepJob::make(job.workload, cfg));
    }
    jobs = std::move(faulted);
  }
  return true;
}

/// `num_sms` and `num_partitions` turn the ticked SM- and partition-cycles
/// into wake rates: the shares of those cycles the run actually executed.
void write_sim_profile_json(std::ostream& os, const SimProfile& p,
                            std::size_t num_sms, int num_partitions) {
  const auto rate = [&](std::uint64_t ticked, double per_cycle) {
    const double cycles = static_cast<double>(p.total_cycles) * per_cycle;
    return cycles > 0.0 ? static_cast<double>(ticked) / cycles : 0.0;
  };
  os << "{\"total_cycles\": " << p.total_cycles
     << ", \"ff_spans\": " << p.ff_spans
     << ", \"ff_skipped_cycles\": " << p.ff_skipped_cycles
     << ", \"sm_cycles_ticked\": " << p.sm_cycles_ticked
     << ", \"sm_wake_rate\": "
     << rate(p.sm_cycles_ticked, static_cast<double>(num_sms))
     << ", \"partition_cycles_ticked\": " << p.partition_cycles_ticked
     << ", \"partition_wake_rate\": "
     << rate(p.partition_cycles_ticked, static_cast<double>(num_partitions))
     << ", \"admission_evals\": " << p.admission_evals;
  os << "}";
}

void write_results_json(std::ostream& os, const SweepReport& report,
                        const std::vector<SweepJob>& jobs,
                        const std::vector<std::string>& keys, double wall_ms,
                        int jobs_used, bool profile) {
  os << "{\n  \"build\": ";
  write_build_info_json(os);
  os << ",\n  \"summary\": {\"cells\": " << report.cells.size()
     << ", \"jobs\": " << jobs_used << ", \"simulated\": " << report.simulated
     << ", \"cache_hits\": " << report.cache_hits
     << ", \"failures\": " << report.failures << ", \"wall_ms\": " << wall_ms
     << "},\n  \"cells\": [\n";
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const SweepCell& cell = report.cells[i];
    os << "    {\"label\": ";
    write_json_string(os, cell.label);
    os << ", \"kernel\": ";
    write_json_string(os, cell.kernel);
    os << ", \"app\": ";
    write_json_string(os, cell.app);
    os << ", \"scheduler\": ";
    write_json_string(os, cell.scheduler);
    os << ", \"cache_key\": ";
    write_json_string(os, keys[i]);
    os << ", \"from_cache\": " << (cell.from_cache ? "true" : "false")
       << ", \"ok\": " << (cell.ok() ? "true" : "false") << ",\n     ";
    if (cell.ok()) {
      os << "\"result\": ";
      write_gpu_result_json(os, *cell.result);
      // Self-profiling rides outside the "result" block: it is wall-clock
      // measurement metadata, never part of cached or fingerprinted bytes.
      // Cache hits carry no profile (nothing ran).
      if (profile && !cell.from_cache) {
        os << ",\n     \"profile\": ";
        write_sim_profile_json(os, cell.result->profile,
                               cell.result->per_sm.size(),
                               jobs[i].config.mem.num_partitions);
      }
    } else {
      os << "\"error\": ";
      cell.error->write_json(os);
    }
    os << "}" << (i + 1 == report.cells.size() ? "\n" : ",\n");
  }
  os << "  ]\n}\n";
}

void write_results_csv(std::ostream& os, const SweepReport& report) {
  Table t({"kernel", "app", "scheduler", "label", "from_cache", "ok",
           "cycles", "ipc", "issued", "idle", "scoreboard", "pipeline",
           "l1_misses", "l2_misses", "tbs", "faults_injected", "error"});
  for (const SweepCell& cell : report.cells) {
    std::vector<std::string> row{cell.kernel, cell.app, cell.scheduler,
                                 cell.label, cell.from_cache ? "1" : "0",
                                 cell.ok() ? "1" : "0"};
    if (cell.ok()) {
      const GpuResult& r = *cell.result;
      row.insert(row.end(),
                 {Table::fmt(r.cycles), Table::fmt(r.ipc(), 4),
                  Table::fmt(r.totals.issued),
                  Table::fmt(r.totals.idle_stalls),
                  Table::fmt(r.totals.scoreboard_stalls),
                  Table::fmt(r.totals.pipeline_stalls),
                  Table::fmt(r.l1_misses), Table::fmt(r.l2_misses),
                  Table::fmt(r.totals.tbs_executed),
                  Table::fmt(r.faults_injected), ""});
    } else {
      row.insert(row.end(), {"", "", "", "", "", "", "", "", "", "",
                             to_string(cell.error->category)});
    }
    t.add_row(row);
  }
  t.print_csv(os);
}

bool write_to(const std::string& path, const std::string& what,
              const std::function<void(std::ostream&)>& writer) {
  if (path == "-") {
    writer(std::cout);
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  writer(out);
  std::cerr << "wrote " << what << " to " << path << "\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;

  ArgParser parser("prosim-sweep",
                   "Parallel experiment sweeps with a persistent result "
                   "cache.");
  parser.add_section("matrix selection (choose one; default --fig4)");
  parser.add_flag("--paper", &opt.paper,
                  "every cell of the paper's tables and figures; prints "
                  "the report to stdout");
  parser.add_string("--matrix", &opt.matrix_path, "FILE",
                    "JSON matrix spec (see docs/RUNNER.md)");
  parser.add_flag("--fig4", &opt.fig4,
                  "all 25 Table II kernels x {LRR,GTO,TL,PRO}");
  parser.add_string_list("--workloads", &opt.workloads, "A,B,...",
                         "explicit kernel list");
  parser.add_string_list("--schedulers", &opt.schedulers, "S,...",
                         "scheduler list (only with --workloads; default "
                         "the paper's four)");
  parser.add_section("execution");
  parser.add_int("--jobs", &opt.jobs, "N",
                 "worker threads (default: hardware concurrency)");
  parser.add_string("--cache-dir", &opt.cache_dir, "DIR",
                    "persistent result cache (created if missing)");
  parser.add_u64("--fault-seed", &opt.fault_seed, "N",
                 "add a chaos-preset fault dimension, seed N (with "
                 "--workloads or --matrix)");
  parser.add_flag("--expect-cached", &opt.expect_cached,
                  "fail (exit 5) if any cell had to simulate — asserts a "
                  "warm cache, e.g. in CI");
  parser.add_section(
      "observability (per simulated cell; with several cells the cache key "
      "is inserted before each FILE's extension)");
  add_observability_flags(parser, opt.obs, opt.metrics_interval);
  parser.add_flag("--profile", &opt.profile,
                  "profile the simulator itself (fast-forward spans, SM and "
                  "partition wake rates, admission evaluations) and add a "
                  "per-cell \"profile\" block to --out JSON");
  parser.add_section("output");
  parser.add_flag("--progress", &opt.progress_line,
                  "single live progress line (cells done, cache hits, "
                  "ETA) instead of per-cell lines");
  parser.add_string("--out", &opt.out_path, "FILE",
                    "full results as JSON ('-' = stdout)");
  parser.add_string("--csv", &opt.csv_path, "FILE",
                    "per-cell headline stats as CSV ('-' = stdout)");
  parser.add_flag("--quiet", &opt.quiet, "no per-cell progress on stderr");
  parser.set_epilog(list_schedulers() + "\n" + list_admissions() +
                    "\nexit: 0 ok | 2 usage | 1 I/O or spec error | "
                    "4 cell failures |\n      5 --expect-cached violated");
  parser.set_version(build_info_line());

  switch (parser.parse(argc, argv)) {
    case ArgParser::Status::kOk: break;
    case ArgParser::Status::kHelp: return 0;
    case ArgParser::Status::kVersion: return 0;
    case ArgParser::Status::kError: return 2;
  }
  if (parser.seen("--jobs") && opt.jobs < 0) {
    std::cerr << "--jobs must be >= 0\n";
    return 2;
  }
  if (!check_observability_flags(parser, opt.metrics_interval, opt.obs)) {
    return 2;
  }
  if (!check_selection(parser)) return 2;
  opt.have_fault_seed = parser.seen("--fault-seed");

  std::vector<SweepJob> jobs;
  std::vector<std::string> keys;
  if (!build_jobs(opt, jobs, keys)) return 1;

  SweepOptions sweep_opt;
  sweep_opt.jobs = opt.jobs;
  sweep_opt.cache_dir = opt.cache_dir;
  sweep_opt.obs = opt.obs;
  const auto progress_t0 = std::chrono::steady_clock::now();
  if (opt.progress_line) {
    auto cache_hits = std::make_shared<int>(0);
    sweep_opt.progress = [progress_t0, cache_hits](const SweepProgress& p) {
      if (p.cell->from_cache) ++*cache_hits;
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        progress_t0)
              .count();
      const double eta =
          p.completed > 0
              ? elapsed * static_cast<double>(p.total - p.completed) /
                    static_cast<double>(p.completed)
              : 0.0;
      std::cerr << "\r[" << p.completed << "/" << p.total << "] "
                << *cache_hits << " cache hits, ETA "
                << static_cast<int>(eta + 0.5) << "s   " << std::flush;
      if (p.completed == p.total) std::cerr << "\n";
    };
  } else if (!opt.quiet) {
    sweep_opt.progress = [](const SweepProgress& p) {
      std::cerr << "[" << p.completed << "/" << p.total << "] "
                << p.cell->label << ": ";
      if (!p.cell->ok()) {
        std::cerr << "FAILED (" << to_string(p.cell->error->category) << ")";
      } else {
        std::cerr << p.cell->result->cycles << " cycles";
        if (p.cell->from_cache) std::cerr << " (cached)";
      }
      std::cerr << "\n";
    };
  }

  const auto t0 = std::chrono::steady_clock::now();
  SweepReport report = run_sweep(jobs, sweep_opt);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();

  const int jobs_used = opt.jobs;
  std::cerr << "sweep: " << report.cells.size() << " cells, "
            << report.simulated << " simulated, " << report.cache_hits
            << " cache hits, " << report.failures << " failures, "
            << static_cast<std::uint64_t>(wall_ms) << " ms\n";

  if (!opt.out_path.empty() && keys.empty()) {
    for (const SweepJob& job : jobs) keys.push_back(job.cache_key());
  }
  if (!opt.out_path.empty() &&
      !write_to(opt.out_path, "results", [&](std::ostream& os) {
        write_results_json(os, report, jobs, keys, wall_ms, jobs_used,
                           opt.profile);
      })) {
    return 1;
  }
  if (!opt.csv_path.empty() &&
      !write_to(opt.csv_path, "CSV", [&](std::ostream& os) {
        write_results_csv(os, report);
      })) {
    return 1;
  }
  if (print_write_errors(std::cerr, report.cells)) return 1;

  if (opt.paper && report.failures == 0) {
    std::map<std::string, const GpuResult*> results;
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
      results.emplace(keys[i], &*report.cells[i].result);
    }
    print_paper_report(std::cout, [&](const std::string& key) {
      const auto it = results.find(key);
      return it == results.end() ? nullptr : it->second;
    });
  } else if (opt.paper) {
    std::cerr << "paper report not printed: " << report.failures
              << " cells failed\n";
  }

  if (opt.expect_cached && report.simulated > 0) {
    std::cerr << "--expect-cached: " << report.simulated
              << " cells had to simulate (cache was cold or stale)\n";
    return 5;
  }
  if (report.failures > 0) return 4;
  return 0;
}
