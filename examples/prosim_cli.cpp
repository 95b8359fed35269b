// Full command-line driver: run any Table II workload (or a .sasm file)
// under any scheduler with configuration overrides, and emit reports in
// table, CSV, JSON or chrome-trace form. The run is a one-cell sweep
// (runner/runner.hpp), so the observability products are written as
// every other single-kernel run writes them.
//
//   $ ./examples/prosim_cli --kernel render --scheduler PRO
//   $ ./examples/prosim_cli --kernel bfs_kernel --scheduler TL --sms 8 --csv
//   $ ./examples/prosim_cli --asm my_kernel.sasm --scheduler GTO
//   $ ./examples/prosim_cli --kernel GPU_laplace3d --warp-lanes out.json
//   $ ./examples/prosim_cli --kernel GPU_laplace3d --tb-timeline tbs.json
//   $ ./examples/prosim_cli --kernel scalarProdGPU --stall-report
//   $ ./examples/prosim_cli --list
//
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/argparse.hpp"
#include "common/build_info.hpp"
#include "common/table.hpp"
#include "gpu/admission.hpp"
#include "gpu/report.hpp"
#include "gpu/result_io.hpp"
#include "gpu/scheduler_registry.hpp"
#include "gpu/trace_export.hpp"
#include "isa/assembler.hpp"
#include "kernels/registry.hpp"
#include "runner/runner.hpp"

using namespace prosim;

namespace {

void print_stall_report(std::ostream& os, const SmStats& totals, bool csv) {
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
  if (csv) {
    t.print_csv(os);
  } else {
    t.print(os);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string kernel = "scalarProdGPU";
  std::string asm_path;
  std::string scheduler = "PRO";
  int num_sms = -1;
  std::int64_t threshold = 0;
  std::int64_t max_cycles = 0;
  std::uint64_t fault_seed = 0;
  bool no_watchdog = false;
  bool no_barrier_handling = false;
  bool no_finish_handling = false;
  bool no_l1 = false;
  bool fcfs_dram = false;
  bool csv = false;
  bool json = false;
  bool list = false;
  bool disasm = false;
  bool stall_report = false;
  std::string tb_timeline_path;
  std::int64_t metrics_interval = 0;
  ObservabilityOptions oopts;

  ArgParser parser("prosim_cli",
                   "Cycle-level GPU simulation of one kernel.");
  parser.add_section("workload");
  parser.add_string("--kernel", &kernel, "NAME",
                    "Table II workload to run (default scalarProdGPU)");
  parser.add_string("--asm", &asm_path, "FILE",
                    "run an assembly file instead of a workload");
  parser.add_flag("--list", &list, "list available workloads and exit");
  parser.add_flag("--disasm", &disasm,
                  "print the kernel disassembly before running");
  parser.add_section("configuration");
  parser.add_string("--scheduler", &scheduler, "S",
                    "warp scheduler (see listing below; default PRO)");
  parser.add_int("--sms", &num_sms, "N",
                 "override number of SMs (default 14)");
  parser.add_i64("--threshold", &threshold, "N",
                 "PRO sort threshold in cycles (default 1000)");
  parser.add_flag("--no-barrier", &no_barrier_handling,
                  "disable PRO barrier handling");
  parser.add_flag("--no-finish", &no_finish_handling,
                  "disable PRO finish handling");
  parser.add_flag("--no-l1", &no_l1, "bypass the L1 data cache");
  parser.add_flag("--fcfs-dram", &fcfs_dram,
                  "plain FCFS DRAM scheduling (default FR-FCFS)");
  parser.add_u64("--fault-seed", &fault_seed, "N",
                 "inject timing faults (chaos preset, seed N)");
  parser.add_i64("--max-cycles", &max_cycles, "N",
                 "abort with a livelock report after N cycles");
  parser.add_flag("--no-watchdog", &no_watchdog,
                  "disable the forward-progress watchdog");
  parser.add_section("output");
  parser.add_string("--tb-timeline", &tb_timeline_path, "FILE",
                    "write the chrome-trace TB timeline");
  parser.add_flag("--stall-report", &stall_report,
                  "print the per-cause stall attribution");
  add_observability_flags(parser, oopts, metrics_interval);
  parser.add_flag("--csv", &csv, "emit the result row as CSV");
  parser.add_flag("--json", &json, "emit the full result as JSON");
  parser.set_epilog(list_schedulers() + "\n" + list_admissions());
  parser.set_version(build_info_line());

  switch (parser.parse(argc, argv)) {
    case ArgParser::Status::kOk: break;
    case ArgParser::Status::kHelp: return 0;
    case ArgParser::Status::kVersion: return 0;
    case ArgParser::Status::kError: return 2;
  }

  const SchedulerInfo* sched_info = find_scheduler(scheduler);
  if (sched_info == nullptr) {
    std::cerr << "unknown scheduler '" << scheduler << "'\n"
              << list_schedulers();
    return 2;
  }
  if (parser.seen("--sms") && num_sms <= 0) {
    std::cerr << "--sms must be positive\n";
    return 2;
  }
  if (parser.seen("--max-cycles") && max_cycles <= 0) {
    std::cerr << "--max-cycles must be positive\n";
    return 2;
  }
  if (!check_observability_flags(parser, metrics_interval, oopts)) return 2;

  if (list) {
    Table t({"Kernel", "Suite", "App", "TBs", "Block"});
    for (const Workload& w : all_workloads()) {
      t.add_row({w.kernel, w.suite, w.app,
                 Table::fmt(w.program.info.grid_dim),
                 Table::fmt(w.program.info.block_dim)});
    }
    t.print(std::cout);
    return 0;
  }

  // Resolve the workload: the registry's, or the assembled program with
  // no input data.
  runner::SweepJob job;
  if (!asm_path.empty()) {
    std::ifstream in(asm_path);
    if (!in) {
      std::cerr << "cannot open " << asm_path << "\n";
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    AssembleResult result = assemble(text.str());
    if (auto* error = std::get_if<AssemblerError>(&result)) {
      std::cerr << asm_path << ":" << error->line << ": "
                << error->message << "\n";
      return 1;
    }
    job.workload.program = std::get<Program>(std::move(result));
    job.workload.kernel = job.workload.program.info.name;
  } else {
    bool known = false;
    for (const Workload& w : all_workloads())
      known = known || w.kernel == kernel;
    if (!known) {
      std::cerr << "unknown kernel '" << kernel << "' (use --list)\n";
      return 1;
    }
    job.workload = find_workload(kernel);
  }
  const Program& program = job.workload.program;

  if (disasm) std::cout << program.disassemble_all() << "\n";

  GpuConfig& cfg = job.config;
  cfg.scheduler.kind = sched_info->kind;
  if (num_sms > 0) cfg.num_sms = num_sms;
  if (threshold > 0) {
    cfg.scheduler.pro.sort_threshold = static_cast<Cycle>(threshold);
    cfg.scheduler.adaptive.base.sort_threshold =
        static_cast<Cycle>(threshold);
  }
  cfg.scheduler.pro.handle_barriers = !no_barrier_handling;
  cfg.scheduler.pro.handle_finish = !no_finish_handling;
  cfg.sm.l1_enabled = !no_l1;
  if (fcfs_dram) cfg.mem.dram.scheduler = DramSchedulerKind::kFcfs;
  if (parser.seen("--fault-seed")) cfg.faults = FaultConfig::chaos(fault_seed);
  if (max_cycles > 0) cfg.max_cycles = static_cast<Cycle>(max_cycles);
  cfg.watchdog.enabled = !no_watchdog;

  runner::SweepOptions sweep;
  sweep.obs = oopts;
  runner::SweepCell cell = std::move(runner::run_sweep({job}, sweep).cells[0]);
  if (!cell.ok()) {
    // Structured diagnosis of the stuck simulation: JSON on stdout when
    // asked, the human-readable report on stderr otherwise.
    if (json) {
      cell.error->write_json(std::cout);
    } else {
      std::cerr << cell.error->to_string() << "\n";
    }
    return 3;
  }
  const GpuResult& r = *cell.result;

  Table t({"kernel", "scheduler", "cycles", "ipc", "issued", "idle",
           "scoreboard", "pipeline", "l1_hits", "l1_misses", "l2_misses",
           "barrier_wait", "tbs"});
  t.add_row({program.info.name, sched_info->name, Table::fmt(r.cycles),
             Table::fmt(r.ipc(), 2), Table::fmt(r.totals.issued),
             Table::fmt(r.totals.idle_stalls),
             Table::fmt(r.totals.scoreboard_stalls),
             Table::fmt(r.totals.pipeline_stalls), Table::fmt(r.l1_hits),
             Table::fmt(r.l1_misses), Table::fmt(r.l2_misses),
             Table::fmt(r.totals.barrier_wait_cycles),
             Table::fmt(r.totals.tbs_executed)});
  if (json) {
    JsonReportOptions jopt;
    jopt.kernel = program.info.name;
    jopt.scheduler = sched_info->name;
    jopt.include_timelines = true;
    jopt.stall_attribution = stall_report;
    write_json_report(std::cout, r, jopt);
  } else if (csv) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }
  if (stall_report && !json) print_stall_report(std::cout, r.totals, csv);

  if (!cell.write_error.empty()) {
    std::cerr << cell.write_error << "\n";
    return 1;
  }
  if (!tb_timeline_path.empty()) {
    std::ofstream out(tb_timeline_path);
    if (!out) {
      std::cerr << "cannot write " << tb_timeline_path << "\n";
      return 1;
    }
    write_chrome_trace(out, r);
  }
  return 0;
}
