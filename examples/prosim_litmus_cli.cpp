// prosim-litmus: scheduler forward-progress certification.
//
//   $ prosim-litmus                       # full matrix, table on stdout
//   $ prosim-litmus --jobs 8 --out litmus.json
//   $ prosim-litmus --schedulers TL,PRO --tests intra_tb_flag
//   $ prosim-litmus --background --admission preemptive_slo
//   $ prosim-litmus --list
//
// Runs every selected scheduler through every (litmus x occupancy-regime)
// cell under the per-warp starvation watchdog and prints the verdict
// matrix plus each scheduler's progress model; two axes select the
// matrix, the tenant (--background) and the admission policy. Verdicts
// are data, not failures: a scheduler that livelocks a litmus (Two-Level
// on intra_tb_flag) exits 0 — the harness certified its behavior. Exit 3
// flags cells that indicate a *harness or simulator* defect
// (wrong_result / unclassified error).
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/argparse.hpp"
#include "common/build_info.hpp"
#include "common/table.hpp"
#include "gpu/admission.hpp"
#include "gpu/scheduler_registry.hpp"
#include "litmus/litmus.hpp"

using namespace prosim;
using namespace prosim::litmus;

int main(int argc, char** argv) {
  int jobs = 1;
  std::vector<std::string> scheds;
  std::vector<std::string> tests;
  std::string out_path;
  std::string admission;
  bool quiet = false;
  bool list = false;
  bool background = false;
  std::int64_t metrics_interval = 0;
  ObservabilityOptions oopts;

  ArgParser parser("prosim-litmus",
                   "Forward-progress litmus harness: certifies every warp "
                   "scheduler's fairness behavior deterministically.");
  parser.add_int("--jobs", &jobs, "N",
                 "worker threads (default 1; verdicts are identical "
                 "whatever N is)");
  parser.add_string_list("--schedulers", &scheds, "S,...",
                         "schedulers to certify (default: all)");
  parser.add_string_list("--tests", &tests, "T,...",
                         "litmus tests to run (default: the whole suite)");
  parser.add_string("--out", &out_path, "FILE",
                    "verdict matrix as prosim-litmus-v1 JSON ('-' = "
                    "stdout)");
  parser.add_flag("--background", &background,
                  "certify with a streaming co-tenant kernel resident "
                  "(tb_interleaved admission, two SMs; docs/SERVING.md)");
  parser.add_string("--admission", &admission, "A",
                    "admission policy every cell runs under (default "
                    "fifo_exclusive; tb_interleaved with --background); "
                    "under preemptive_slo TB yield-resume lets "
                    "oversubscribed cross-TB waits terminate, so every hang "
                    "is a defect");
  parser.add_section(
      "observability (the \"<scheduler>.<litmus>.<regime>\" key is "
      "inserted before each FILE's extension)");
  add_observability_flags(parser, oopts, metrics_interval);
  parser.add_flag("--quiet", &quiet, "no per-cell progress on stderr");
  parser.add_flag("--list", &list, "list the litmus suite and exit");
  parser.set_epilog(list_schedulers() + "\n" + list_admissions() +
                    "\nexit: 0 ok | 2 usage | 1 I/O error | 3 broken cells "
                    "(wrong_result/error verdicts)");
  parser.set_version(build_info_line());
  switch (parser.parse(argc, argv)) {
    case ArgParser::Status::kOk: break;
    case ArgParser::Status::kHelp: return 0;
    case ArgParser::Status::kVersion: return 0;
    case ArgParser::Status::kError: return 2;
  }

  if (list) {
    for (const LitmusTest& t : litmus_suite()) {
      std::cout << t.name << " (block " << t.block_dim << "): "
                << t.description << "\n";
    }
    return 0;
  }

  if (!admission.empty() && find_admission(admission) == nullptr) {
    std::cerr << "unknown admission policy '" << admission << "'\n"
              << list_admissions();
    return 2;
  }
  if (!check_observability_flags(parser, metrics_interval, oopts)) return 2;

  LitmusOptions opt;
  opt.jobs = jobs;
  opt.admission = admission;
  opt.obs = oopts;
  for (const std::string& name : scheds) {
    const SchedulerInfo* info = find_scheduler(name);
    if (info == nullptr) {
      std::cerr << "unknown scheduler '" << name << "'\n"
                << list_schedulers();
      return 2;
    }
    opt.schedulers.push_back(info->kind);
  }
  for (const std::string& name : tests) {
    if (find_litmus(name) == nullptr) {
      std::cerr << "unknown litmus test '" << name << "' (--list shows the "
                << "suite)\n";
      return 2;
    }
    opt.tests.push_back(name);
  }
  if (!quiet) {
    opt.progress = [](int completed, int total, const std::string& label) {
      std::cerr << "[" << completed << "/" << total << "] " << label << "\n";
    };
  }

  const LitmusReport report =
      background ? run_litmus_bg(opt) : run_litmus(opt);

  // With --out - the JSON owns stdout; the human matrix moves to stderr.
  std::ostream& human = out_path == "-" ? std::cerr : std::cout;
  Table matrix({"scheduler", "litmus", "regime", "grid", "verdict",
                "detect_cycle", "as_expected"});
  for (const LitmusCell& c : report.cells) {
    matrix.add_row({scheduler_name(c.scheduler), c.litmus,
                    regime_name(c.regime), Table::fmt(c.grid),
                    verdict_name(c.verdict), Table::fmt(c.detect_cycle),
                    c.as_expected() ? "yes" : "NO"});
  }
  matrix.print(human);

  human << "\nprogress models:\n";
  for (const SchedulerSummary& s : report.schedulers) {
    human << "  " << scheduler_name(s.scheduler) << ": "
          << progress_model_name(s.model) << " (" << s.passes << " pass, "
          << s.expected_hangs << " expected hang(s), " << s.unfair_cells
          << " unfair, " << s.broken_cells << " broken)\n";
  }

  if (!out_path.empty()) {
    if (out_path == "-") {
      write_litmus_json(std::cout, report);
    } else {
      std::ofstream out(out_path);
      if (!out) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
      }
      write_litmus_json(out, report);
      std::cerr << "wrote verdict matrix to " << out_path << "\n";
    }
  }
  if (print_write_errors(std::cerr, report.cells)) return 1;

  for (const SchedulerSummary& s : report.schedulers) {
    if (s.broken_cells > 0) return 3;
  }
  return 0;
}
