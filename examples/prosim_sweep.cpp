// prosim-sweep: the simulator's driver. It runs a matrix of workload x
// scheduler x config x fault-seed cells in parallel, with a persistent
// result cache; one kernel under one scheduler is a one-cell matrix.
//
//   $ prosim-sweep --fig4 --jobs 8 --cache-dir .prosim-cache --out fig4.json
//   $ prosim-sweep --paper --jobs 4 --cache-dir .prosim-cache > paper.txt
//   $ prosim-sweep --matrix sweep.json --csv results.csv
//   $ prosim-sweep --workloads scalarProdGPU,bfs_kernel --schedulers LRR,PRO
//   $ prosim-sweep --fig4 --cache-dir .prosim-cache --expect-cached
//   $ prosim-sweep --workloads scalarProdGPU --warp-lanes traces/lanes.json
//   $ prosim-sweep --workloads bfs_kernel --schedulers TL --sms 8 --csv -
//   $ prosim-sweep --asm my_kernel.sasm --schedulers GTO --out -
//   $ prosim-sweep --workloads scalarProdGPU --schedulers PRO --stall-report
//   $ prosim-sweep --workloads GPU_laplace3d --tb-timeline tbs.json
//   $ prosim-sweep --list
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
#include "isa/assembler.hpp"
#include "runner/matrix.hpp"
#include "runner/paper.hpp"
#include "runner/runner.hpp"
#include "trace/trace_event_writer.hpp"

using namespace prosim;
using namespace prosim::runner;

namespace {

struct Options {
  std::string matrix_path;
  bool paper = false;
  bool fig4 = false;
  std::vector<std::string> workloads;
  std::string asm_path;
  std::vector<std::string> schedulers;
  // Machine overrides of the --workloads cells (0 / false = Table I's).
  int sms = 0;
  std::int64_t threshold = 0;
  std::int64_t max_cycles = 0;
  bool no_barrier = false;
  bool no_finish = false;
  bool no_l1 = false;
  bool fcfs_dram = false;
  bool no_watchdog = false;
  int jobs = 0;        // 0 = hardware concurrency
  std::string cache_dir;
  std::uint64_t fault_seed = 0;
  bool have_fault_seed = false;
  std::string out_path;
  std::string csv_path;
  std::string tb_timeline_path;
  bool list = false;
  bool disasm = false;
  bool stall_report = false;
  bool quiet = false;
  bool expect_cached = false;
  std::int64_t metrics_interval = 0;
  ObservabilityOptions obs;
  bool profile = false;
  bool progress_line = false;
};

/// The flags that shape only the cells of the --workloads selection.
constexpr const char* kWorkloadsFlags[] = {
    "--schedulers", "--disasm",      "--sms",        "--threshold",
    "--no-barrier", "--no-finish",   "--no-l1",      "--fcfs-dram",
    "--max-cycles", "--no-watchdog"};

/// Rejects a second matrix selection (--fig4 is the default one), flags
/// the selection does not use, and --stall-report over a cache, after
/// printing the reason.
bool check_selection(const ArgParser& parser) {
  std::string chosen;
  for (const char* flag :
       {"--paper", "--fig4", "--workloads", "--asm", "--matrix"}) {
    if (!parser.seen(flag)) continue;
    // --asm adds its kernel to the --workloads selection.
    const std::string selection =
        std::string(flag) == "--asm" ? "--workloads" : flag;
    if (!chosen.empty() && chosen != selection) {
      std::cerr << chosen << " and " << flag
                << " are both matrix selections; choose one\n";
      return false;
    }
    chosen = selection;
  }
  if (chosen.empty()) chosen = "--fig4";
  std::string unused;
  if (chosen != "--workloads") {
    for (const char* flag : kWorkloadsFlags) {
      if (unused.empty() && parser.seen(flag)) unused = flag;
    }
  }
  if (unused.empty() && parser.seen("--fault-seed") &&
      (chosen == "--paper" || chosen == "--fig4")) {
    unused = "--fault-seed";
  }
  if (!unused.empty()) {
    std::cerr << unused << " does not apply to " << chosen << "\n";
    return false;
  }
  // The result cache stores no per-cause cycles (gpu/result_io.hpp), so a
  // cache hit would report every cause as zero.
  if (parser.seen("--stall-report") && parser.seen("--cache-dir")) {
    std::cerr << "--stall-report does not apply to --cache-dir: a cached "
                 "cell carries no stall causes\n";
    return false;
  }
  return true;
}

/// Reads `path` whole; prints the reason and returns false when it cannot.
bool read_file(const std::string& path, std::string& text) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return false;
  }
  std::ostringstream os;
  os << in.rdbuf();
  text = os.str();
  return true;
}

/// The Table I machine with the machine flags applied: the base config of
/// every --workloads cell.
GpuConfig machine_config(const Options& opt) {
  GpuConfig cfg;
  if (opt.sms > 0) cfg.num_sms = opt.sms;
  if (opt.threshold > 0) {
    cfg.scheduler.pro.sort_threshold = static_cast<Cycle>(opt.threshold);
    cfg.scheduler.adaptive.base.sort_threshold =
        static_cast<Cycle>(opt.threshold);
  }
  cfg.scheduler.pro.handle_barriers = !opt.no_barrier;
  cfg.scheduler.pro.handle_finish = !opt.no_finish;
  cfg.sm.l1_enabled = !opt.no_l1;
  if (opt.fcfs_dram) cfg.mem.dram.scheduler = DramSchedulerKind::kFcfs;
  if (opt.max_cycles > 0) cfg.max_cycles = static_cast<Cycle>(opt.max_cycles);
  cfg.watchdog.enabled = !opt.no_watchdog;
  return cfg;
}

/// Builds the job list from whichever selection mechanism was used.
/// `keys` receives the jobs' cache keys where building them computed them.
/// Returns 0, or the exit code after printing the reason: 2 for an unknown
/// kernel or scheduler name, 1 for an unreadable or invalid file.
int build_jobs(const Options& opt, std::vector<SweepJob>& jobs,
               std::vector<std::string>& keys) {
  if (opt.paper) {
    PaperCells cells = paper_cells();
    jobs = std::move(cells.jobs);
    keys = std::move(cells.keys);
  } else if (!opt.matrix_path.empty()) {
    std::string text;
    if (!read_file(opt.matrix_path, text)) return 1;
    Expected<std::vector<SweepJob>> expanded = jobs_from_spec(text);
    if (!expanded.has_value()) {
      std::cerr << opt.matrix_path << ": " << expanded.error().message << "\n";
      return 1;
    }
    jobs = std::move(expanded.value());
  } else if (!opt.workloads.empty() || !opt.asm_path.empty()) {
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
        std::cerr << "unknown kernel '" << kernel << "' (see --list)\n";
        return 2;
      }
    }
    if (!opt.asm_path.empty()) {
      // An assembled kernel runs with no input data.
      std::string text;
      if (!read_file(opt.asm_path, text)) return 1;
      AssembleResult assembled = assemble(text);
      if (const auto* error = std::get_if<AssemblerError>(&assembled)) {
        std::cerr << opt.asm_path << ":" << error->line << ": "
                  << error->message << "\n";
        return 1;
      }
      Workload w;
      w.program = std::get<Program>(std::move(assembled));
      w.kernel = w.program.info.name;
      workloads.push_back(std::move(w));
    }
    if (opt.disasm) {
      for (const Workload& w : workloads) {
        std::cout << w.program.disassemble_all() << "\n";
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
          return 2;
        }
        kinds.push_back(info->kind);
      }
    }
    jobs = cross_matrix(workloads, kinds, {}, true, machine_config(opt));
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
  return 0;
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

/// Scheduler-cycles per stall cause, with the legacy class each sums into.
void print_stall_report(std::ostream& os, const SmStats& totals) {
  Table t({"cause", "legacy_class", "sched_cycles"});
  for (int c = 0; c < kNumStallCauses; ++c) {
    const auto cause = static_cast<StallCause>(c);
    const char* cls = "?";
    switch (legacy_stall_class(cause)) {
      case LegacyStallClass::kIssued: cls = "issued"; break;
      case LegacyStallClass::kIdle: cls = "idle"; break;
      case LegacyStallClass::kScoreboard: cls = "scoreboard"; break;
      case LegacyStallClass::kPipeline: cls = "pipeline"; break;
    }
    t.add_row(
        {stall_cause_name(cause), cls, Table::fmt(totals.cause_cycles[c])});
  }
  t.print(os);
}

void print_workloads(std::ostream& os) {
  Table t({"Kernel", "Suite", "App", "TBs", "Block"});
  for (const Workload& w : all_workloads()) {
    t.add_row({w.kernel, w.suite, w.app, Table::fmt(w.program.info.grid_dim),
               Table::fmt(w.program.info.block_dim)});
  }
  t.print(os);
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
                   "Cycle-level GPU simulation: one kernel or a parallel "
                   "sweep, with a persistent result cache.");
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
  parser.add_string("--asm", &opt.asm_path, "FILE",
                    "add an assembly-file kernel to the --workloads cells");
  parser.add_flag("--list", &opt.list, "list the Table II workloads and exit");
  parser.add_section("--workloads cells (with --workloads or --asm)");
  parser.add_string_list("--schedulers", &opt.schedulers, "S,...",
                         "scheduler list (default the paper's four)");
  parser.add_flag("--disasm", &opt.disasm,
                  "print each kernel's disassembly before running");
  parser.add_int("--sms", &opt.sms, "N", "number of SMs (default 14)");
  parser.add_i64("--threshold", &opt.threshold, "N",
                 "PRO sort threshold in cycles (default 1000)");
  parser.add_flag("--no-barrier", &opt.no_barrier,
                  "disable PRO barrier handling");
  parser.add_flag("--no-finish", &opt.no_finish,
                  "disable PRO finish handling");
  parser.add_flag("--no-l1", &opt.no_l1, "bypass the L1 data cache");
  parser.add_flag("--fcfs-dram", &opt.fcfs_dram,
                  "plain FCFS DRAM scheduling (default FR-FCFS)");
  parser.add_i64("--max-cycles", &opt.max_cycles, "N",
                 "fail a cell with a livelock report after N cycles");
  parser.add_flag("--no-watchdog", &opt.no_watchdog,
                  "disable the forward-progress watchdog");
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
  parser.add_flag("--stall-report", &opt.stall_report,
                  "print each cell's per-cause stall attribution (not "
                  "with --cache-dir)");
  parser.add_string("--tb-timeline", &opt.tb_timeline_path, "FILE",
                    "write each cell's chrome-trace TB timeline (suffixed "
                    "like the observability FILEs)");
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
  if (parser.seen("--sms") && opt.sms <= 0) {
    std::cerr << "--sms must be positive\n";
    return 2;
  }
  if (parser.seen("--max-cycles") && opt.max_cycles <= 0) {
    std::cerr << "--max-cycles must be positive\n";
    return 2;
  }
  if (!check_observability_flags(parser, opt.metrics_interval, opt.obs)) {
    return 2;
  }
  if (!check_selection(parser)) return 2;
  if (opt.list) {
    print_workloads(std::cout);
    return 0;
  }
  opt.have_fault_seed = parser.seen("--fault-seed");

  std::vector<SweepJob> jobs;
  std::vector<std::string> keys;
  if (const int rc = build_jobs(opt, jobs, keys); rc != 0) return rc;

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

  // With several cells the TB timelines take the product-path suffix.
  const bool suffix_timelines =
      !opt.tb_timeline_path.empty() && jobs.size() > 1;
  if ((!opt.out_path.empty() || suffix_timelines) && keys.empty()) {
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
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const SweepCell& cell = report.cells[i];
    if (!cell.ok()) continue;
    if (opt.stall_report) {
      if (report.cells.size() > 1) std::cout << cell.label << "\n";
      print_stall_report(std::cout, cell.result->totals);
    }
    const std::string tb_path =
        suffix_timelines ? suffixed_path(opt.tb_timeline_path, keys[i])
                         : opt.tb_timeline_path;
    if (!tb_path.empty() &&
        !write_to(tb_path, "TB timeline", [&](std::ostream& os) {
          write_tb_timeline(os, cell.result->timelines);
        })) {
      return 1;
    }
  }

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
